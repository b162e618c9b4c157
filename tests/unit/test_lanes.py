"""Lane-vectorized shadow execution: scalar parity and the lanes knob.

The hard guarantee under test: ``run_campaign(..., lanes=N)`` is
bit-identical to ``lanes=1`` — joint content *and* insertion order,
records, events (minus wall-clock fields), and provenance bytes — for
any lane count, any worker count, and any interruption-and-resume
pattern in between (see docs/performance.md, "Lane vectorization").
Apps are module-level classes so ``spawn`` workers can unpickle them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.engine.chunks as chunks_mod
import repro.fi.lanes as lanes_mod
from repro import obs
from repro.apps import get_app
from repro.fi.cache import deployment_key
from repro.fi.campaign import Deployment, run_campaign
from repro.knobs import env_value
from repro.obs import provenance_path
from repro.taint.tarray import TArray
from tests.ci_checks import lane_parity


class LaneApp:
    """Distributed dot product with reductions and an allreduce.

    Exercises elementwise ops, a sequential-decomposition reduction
    (injection sites inside ``dot``), and collective taint spread — the
    paths where lane batching must reproduce scalar bits exactly.
    """

    name = "laneapp"

    def __init__(self, n=64, tol=1e-9):
        self.n = n
        self.tol = tol

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        y = fp.mul(x, x)
        local = fp.dot(x, y)
        total = yield comm.allreduce(local, op="sum")
        if rank == 0:
            return {"total": total.value}
        return None

    def verify(self, output, reference):
        got, ref = output["total"], reference["total"]
        if not (np.isfinite(got) and np.isfinite(ref)):
            return False
        return abs(got - ref) <= self.tol * abs(ref)

    def cache_key(self):
        return f"laneapp(n={self.n},tol={self.tol})"


class BranchyApp(LaneApp):
    """Reads ``.value`` mid-program: diverged lanes must eject cleanly."""

    name = "branchy"

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        local = fp.dot(x, x)
        total = yield comm.allreduce(local, op="sum")
        # Control-flow read: any lane whose value diverged from golden
        # leaves the shared path here and replays on the scalar path.
        if total.value > 0:
            z = fp.add(x, x)
        else:
            z = fp.sub(x, x)
        final = yield comm.allreduce(fp.sum(z), op="sum")
        if rank == 0:
            return {"total": final.value}
        return None

    def cache_key(self):
        return f"branchy(n={self.n},tol={self.tol})"


def _strip_times(line: str) -> dict:
    event = json.loads(line)
    for key in ("ts", "duration_s", "profile_time", "injection_time"):
        event.pop(key, None)
    return event


def _trial_counters(rec) -> dict:
    """Counters without the lane-execution ones (``fi.lanes.*``) and the
    chunk's forked children (``engine.chunk.children``), which describe
    how trials ran, not what they did."""
    return {k: v for k, v in rec.counters.items()
            if not k.startswith("fi.lanes.") and k != "engine.chunk.children"}


def _run_traced(app, deployment, tmp_path, tag, *, lanes, jobs=1):
    """One traced campaign; returns (result, events, prov, recorder)."""
    trace = tmp_path / f"{tag}.jsonl"
    previous = obs.get_recorder()
    rec = obs.configure(trace_path=trace)
    try:
        result = run_campaign(
            app, deployment, keep_records=True, jobs=jobs, lanes=lanes
        )
    finally:
        rec.close()
        obs.set_recorder(previous)
    events = [_strip_times(line) for line in trace.read_text().splitlines()]
    prov = provenance_path(trace).read_bytes()
    return result, events, prov, rec


class TestScalarParity:
    """lanes=N must be indistinguishable from lanes=1 in every output."""

    @pytest.mark.parametrize("lanes", [2, 8, 32])
    def test_records_joint_events_provenance_identical(self, tmp_path, lanes):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        base, ev1, pv1, rec1 = _run_traced(
            app, dep, tmp_path, "scalar", lanes=1
        )
        got, ev, pv, rec = _run_traced(
            app, dep, tmp_path, f"l{lanes}", lanes=lanes
        )
        assert got.joint == base.joint
        assert list(got.joint) == list(base.joint)
        assert got.records == base.records
        assert ev == ev1
        assert pv == pv1
        # lane replay meters each trial once, exactly as the scalar loop
        assert _trial_counters(rec) == rec1.counters
        assert rec.histograms == rec1.histograms

    def test_cg_metrics_match_scalar(self, tmp_path):
        dep = Deployment(nprocs=2, trials=8, seed=3)
        runs = [
            _run_traced(get_app("cg"), dep, tmp_path, f"cg{lanes}", lanes=lanes)
            for lanes in (1, 4)
        ]
        (_, _, _, rec1), (_, _, _, rec4) = runs
        assert _trial_counters(rec4) == rec1.counters
        assert rec4.histograms == rec1.histograms
        # [count, sum, min, max]: a double-counted replay would inflate both
        assert rec4.histograms["scheduler.blocked_ranks"] == [261, 504, 0, 2]
        assert rec4.histograms["taint.contamination_spread"] == [8, 16, 2, 2]

    def test_lanes_compose_with_jobs(self, tmp_path):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=20, seed=4)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)
        got = run_campaign(
            app, dep, keep_records=True, jobs=2, lanes=4, checkpoint_every=5
        )
        assert got.joint == base.joint
        assert list(got.joint) == list(base.joint)
        assert got.records == base.records

    def test_lane_trailing_block_shorter_than_lanes(self):
        """Trial count not divisible by lanes: the short tail still runs."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=7, seed=2)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)
        got = run_campaign(app, dep, keep_records=True, jobs=1, lanes=4)
        assert got.records == base.records


class TestScaleParity:
    """Lanes match lanes=1 from 8 ranks on, where numpy starts summing a
    contiguous vector of per-rank scalars pairwise instead of in order."""

    @pytest.mark.parametrize("nprocs", [8, 16])
    @pytest.mark.parametrize("name", ["cg", "mg", "ft", "lu"])
    def test_apps_match_scalar(self, tmp_path, name, nprocs):
        assert lane_parity(name, nprocs, 1, 0, tmp_path) == []


    @pytest.mark.parametrize("nprocs", [2, 4, 8, 9, 16, 64])
    def test_lane_sum_matches_scalar_order(self, nprocs):
        from repro.mpisim.collectives import reduce_payloads

        rng = np.random.default_rng(nprocs)
        k = 5
        golden = rng.standard_normal(nprocs) * 10.0 ** rng.integers(-8, 8, nprocs)
        fstack = golden * (1 + rng.standard_normal((k, nprocs)) * 1e-3)
        batched = reduce_payloads(
            [TArray.batched(golden[r], fstack[:, r]) for r in range(nprocs)], "sum"
        )
        for lane in range(k):
            scalar = reduce_payloads(
                [TArray(golden[r], fstack[lane, r]) for r in range(nprocs)], "sum"
            )
            assert batched.lanes.fstack[lane].tobytes() == scalar.faulty.tobytes()


class TestSeededParity:
    """A tier-1 slice of ``tests/ci_checks.py lanes-parity``: records,
    joint order, events and provenance bytes at lanes 8 vs 1."""

    @pytest.mark.parametrize("nprocs, seed, trials", [
        (4, 6, 16), (4, 62000, 10), (16, 20016, 10),
    ])
    def test_mg_flips_survive_inner_lane_axis(self, tmp_path, nprocs, seed,
                                              trials):
        """Each of these MG campaigns injects one flip into an
        elementwise op whose lane stack keeps its lane axis inner."""
        assert lane_parity("mg", nprocs, 1, seed, tmp_path, trials=trials) == []

    @pytest.mark.parametrize("nprocs", [1, 4])
    @pytest.mark.parametrize(
        "name", ["cg", "ft", "mg", "lu", "minife", "pennant"]
    )
    def test_multi_error_campaigns(self, tmp_path, name, nprocs):
        assert lane_parity(name, nprocs, 8, 1, tmp_path) == []

    def test_flip_lands_in_stack_with_inner_lane_axis(self):
        from repro.fi.lanes import BatchTracer
        from repro.fi.plan import InjectionPlan, PlannedFlip
        from repro.taint.laneops import LaneFPOps
        from repro.taint.region import Region
        from repro.taint.tracer_api import Operand

        k, index = 3, 5
        flip = PlannedFlip(rank=0, region=Region.COMMON, index=index,
                           operand=Operand.A, bit=62)
        batch = BatchTracer([InjectionPlan(())] * (k - 1)
                            + [InjectionPlan((flip,))])
        golden = np.arange(1.0, 7.0).reshape(3, 2)
        # a (k, 3, 2) stack stored lane-axis-second, as a stacked or
        # transposed operand leaves it; lane 0 diverged
        stack = np.repeat(golden[:, np.newaxis], k, axis=1).transpose(1, 0, 2)
        stack[0, 0, 0] += 1.0
        a = TArray.batched(golden, stack, None, batch)
        out = LaneFPOps(batch, 0, batch).add(a, np.ones((3, 2)))
        row = out.lanes.fstack[k - 1].reshape(-1)
        assert len(batch.observations[k - 1]) == 1
        assert row[index] != golden.reshape(-1)[index] + 1.0
        assert row[index] == batch.observations[k - 1][0].post + 1.0


class TestInterruptResume:
    def test_resume_matches_uninterrupted_scalar(self, monkeypatch):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        clean = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        real = lanes_mod.run_lane_block
        calls = {"n": 0}

        def interrupted(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:  # two blocks = one checkpointed chunk
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(lanes_mod, "run_lane_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(app, dep, keep_records=True, jobs=1, lanes=4,
                         checkpoint_every=8)
        monkeypatch.setattr(lanes_mod, "run_lane_block", real)

        resumed = run_campaign(app, dep, keep_records=True, jobs=1, lanes=4,
                               checkpoint_every=8, resume=True)
        assert resumed.joint == clean.joint
        assert list(resumed.joint) == list(clean.joint)
        assert resumed.records == clean.records

    def test_resume_under_different_lane_count(self, monkeypatch):
        """Lane count is an execution knob: a checkpoint written under
        one value resumes under any other (chunk layout is pinned at
        first write and lanes-invariant)."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        clean = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        real = lanes_mod.run_lane_block
        calls = {"n": 0}

        def interrupted(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(lanes_mod, "run_lane_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(app, dep, keep_records=True, jobs=1, lanes=8,
                         checkpoint_every=8)
        monkeypatch.setattr(lanes_mod, "run_lane_block", real)

        resumed = run_campaign(app, dep, keep_records=True, jobs=1, lanes=3,
                               checkpoint_every=8, resume=True)
        assert resumed.records == clean.records


class TestEjection:
    def test_branchy_app_ejects_and_stays_identical(self, monkeypatch):
        app = BranchyApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        ejections = []
        real = lanes_mod.BatchTracer.eject

        def spying(self, lanes, reason):
            ejections.extend(lanes)
            return real(self, lanes, reason)

        monkeypatch.setattr(lanes_mod.BatchTracer, "eject", spying)
        got = run_campaign(app, dep, keep_records=True, jobs=1, lanes=8)
        assert ejections, "control-flow read never ejected a lane"
        assert got.joint == base.joint
        assert got.records == base.records


class TestPayRule:
    """A block that ejects most of its lanes sends the rest of its chunk
    down the scalar path; results cannot tell."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """``(lanes, ejected)`` of every lane block run."""
        seen = []
        real = lanes_mod.run_lane_block

        def spying(*args):
            records, ejected = real(*args)
            seen.append((args[5] - args[4], ejected))
            return records, ejected

        monkeypatch.setattr(lanes_mod, "run_lane_block", spying)
        return seen

    def _run(self, lanes):
        rec = obs.Recorder(enabled=True)
        with obs.recording(rec):
            result = run_campaign(
                get_app("pennant"), Deployment(nprocs=1, trials=24, seed=11),
                keep_records=True, jobs=1, lanes=lanes,
            )
        return result, rec

    def test_unpaid_chunk_finishes_scalar_with_identical_records(self, blocks):
        got, rec = self._run(lanes=8)
        base, rec1 = self._run(lanes=1)
        assert got.records == base.records
        assert list(got.joint) == list(base.joint)
        # the drop follows the first block that ejected more than
        # LANE_EJECT_SHARE of its lanes; no lane block runs after it
        share = chunks_mod.LANE_EJECT_SHARE
        size, ejected = blocks[-1]
        assert ejected > share * size
        assert all(e <= share * n for n, e in blocks[:-1])
        assert sum(n for n, _ in blocks) < 24
        assert rec.counters["fi.lanes.unpaid"] == 1
        by_reason = sum(v for k, v in rec.counters.items()
                        if k.startswith("fi.lanes.ejected."))
        assert by_reason == rec.counters["fi.lanes.ejected"]
        assert by_reason == sum(e for _, e in blocks)
        assert _trial_counters(rec) == rec1.counters
        assert not any(k.startswith("fi.lanes.") for k in rec1.counters)

    def test_whole_block_fallback_counted(self, monkeypatch):
        def broken_pass(*args, **kwargs):
            raise RuntimeError("batched pass failed")

        monkeypatch.setattr(lanes_mod, "execute_spmd", broken_pass)
        rec = obs.Recorder(enabled=True)
        with obs.recording(rec):
            got = run_campaign(LaneApp(), Deployment(nprocs=2, trials=8, seed=2),
                               keep_records=True, jobs=1, lanes=4)
        base = run_campaign(LaneApp(), Deployment(nprocs=2, trials=8, seed=2),
                            keep_records=True, jobs=1, lanes=1)
        assert got.records == base.records
        # the first failed block re-ran all four lanes: an unpaid drop
        assert rec.counters["fi.lanes.fallback"] == 1
        assert rec.counters["fi.lanes.ejected"] == 4
        assert rec.counters["fi.lanes.unpaid"] == 1

    def test_metrics_summary_lists_lane_counters_at_zero(self):
        from repro.obs import render_metrics_summary

        dep = Deployment(nprocs=2, trials=8, seed=3)
        rec = obs.Recorder(enabled=True)
        with obs.recording(rec):
            got = run_campaign(get_app("cg"), dep, keep_records=True, jobs=1)
        summary = render_metrics_summary(rec)
        for name in ("fi.lanes.ejected", "fi.lanes.fallback", "fi.lanes.unpaid"):
            assert rec.counters[name] == 0
            assert name in summary
        # counting changes nothing the campaign reports
        unobserved = run_campaign(get_app("cg"), dep, keep_records=True, jobs=1)
        assert got.records == unobserved.records


class TestLanesKnob:
    def test_malformed_env_falls_back_to_default(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LANES", "many")
        assert env_value("lanes") == 32
        assert "REPRO_LANES" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_LANES", "0")
        assert env_value("lanes") == 32

    def test_cache_key_excludes_lanes(self):
        dep = Deployment(nprocs=2, trials=10, seed=5)
        batched = Deployment(nprocs=2, trials=10, seed=5, lanes=32)
        assert deployment_key(dep) == deployment_key(batched)

    def test_profiling_stays_per_trial(self):
        """Candidate-instruction counts come from scalar profiling runs
        regardless of the lane count (profiling forces lanes=1)."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=8, seed=3)
        base = run_campaign(app, dep, jobs=1, lanes=1)
        got = run_campaign(app, dep, jobs=1, lanes=8)
        assert got.total_instructions == base.total_instructions
        assert got.candidate_instructions == base.candidate_instructions


class TestDataMovementDtypes:
    """scatter/concatenate/stack preserve non-default dtypes."""

    def test_scatter_keeps_float32(self):
        values = TArray(np.ones(3, dtype=np.float32))
        out = TArray.scatter(values, np.array([0, 2, 4]), 6)
        assert out.golden.dtype == np.float32

    def test_concatenate_keeps_float32(self):
        parts = [TArray(np.ones(2, dtype=np.float32)) for _ in range(2)]
        out = TArray.concatenate(parts)
        assert out.golden.dtype == np.float32

    def test_stack_keeps_float32(self):
        parts = [TArray(np.ones(2, dtype=np.float32)) for _ in range(2)]
        out = TArray.stack(parts)
        assert out.golden.dtype == np.float32
