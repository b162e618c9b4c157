"""Fork at the fault site: system-level trials share one fault-free prefix.

Rank-kill and message-corruption blocks run the fault-free execution
once and fork a child at each trial's site
(:meth:`~repro.fi.scenarios.base.SiteFaultModel.run_block`); a trial run
alone is the same site-driven run with its one site armed in place
(:meth:`~repro.fi.scenarios.base.SiteFaultModel.run_trial`).  Pinned
here:

* **Byte-identity** — the forked path, the forced in-place fallback, the
  worker pool (whose workers fork too) and checkpoint→resume all
  reproduce the scenario goldens captured from the per-trial pipeline
  (``tests/goldens``);
* **Edge cases** — blocks below and at the break-even, a victim that
  finishes before its kill step, several trials at one site, and
  several sites inside one multi-leaf payload;
* **When to fork** — the cost model keeps short executions on the
  in-place path, and a long chunk forks in bounded blocks whose events
  reach a live sink block by block;
* **Side by side** — up to :func:`~repro.fi.scenarios.base.fork_slots`
  children run at once; the goldens, the span tree and the failures
  above hold with the slots forced to 1 (one child at a time) and to
  more, whatever the host's CPUs;
* **Observability** — with obs on, forked trials report the same span
  tree, counters and histograms as the fallback, plus the ``fi.fork.*``
  metrics; overlapping trials export to a valid Chrome trace;
* **Failure** — a child that exits or raises gives a typed
  :class:`~repro.errors.WorkerCrashError` naming its trial (the first
  failure in site order, however many children are alive), and no
  child outlives the campaign, not even on ``KeyboardInterrupt`` or an
  exception in the parent.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.apps import get_app
from repro.engine import chunks as chunks_mod
from repro.engine.chunks import MAX_CHUNK_TRIALS
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.scenarios import base, resolve_model
from repro.fi.scenarios.base import execution_dynamics, fork_pays
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs.timeline import chrome_trace, spans_of, validate_chrome_trace
from repro.utils.rng import trial_seed

from tests.unit.test_timeline import _tree_digest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"
#: the break-even the ``fork_from`` fixture pins in place of the timed
#: cost model, so that CG at 4 ranks (too short for forking to pay) forks
FORK_FROM = 3
SRC = Path(__file__).resolve().parents[2] / "src"
#: forked children alive at once: one at a time, and more than this
#: host may have CPUs for
SLOTS = (1, 3)

_spec = importlib.util.spec_from_file_location(
    "gen_scenario_goldens", GOLDEN_DIR / "gen_scenario_goldens.py"
)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def _golden(name: str):
    return (
        (GOLDEN_DIR / f"{name}.provenance.jsonl").read_bytes(),
        (GOLDEN_DIR / f"{name}.events.jsonl").read_text(),
        json.loads((GOLDEN_DIR / f"{name}.joint.json").read_text()),
    )


@pytest.fixture
def forks(monkeypatch):
    """Count the forks a test makes."""
    calls = []
    real = base._fork

    def counting():
        pid = real()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(base, "_fork", counting)
    return calls


@pytest.fixture
def fork_from(monkeypatch):
    """Fork every block of ``FORK_FROM`` trials or more, whatever it costs."""
    monkeypatch.setattr(
        base, "fork_pays", lambda app, deployment, trials: trials >= FORK_FROM
    )


@pytest.fixture
def no_fork(monkeypatch):
    """Force the in-place fallback, as in a process that may not fork."""
    monkeypatch.setattr(base, "fork_safe", lambda: False)


def _force_slots(monkeypatch, slots: int) -> None:
    """Keep ``slots`` forked children alive at once, whatever the host."""
    monkeypatch.setattr(base, "fork_slots", lambda workers=1: slots)


def _interrupt_after(n_trials: int):
    real = chunks_mod.fold_record
    calls = {"n": 0}

    def interrupted(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > n_trials:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    chunks_mod.fold_record = interrupted
    return lambda: setattr(chunks_mod, "fold_record", real)


# ----------------------------------------------------------------------
# apps with the shapes the edge cases need (module-level: picklable)
# ----------------------------------------------------------------------
class GatherApp:
    """One allgather: every delivery carries ``size`` corruptible leaves."""

    name = "fork-gather"

    def program(self, rank, size, comm, fp):
        x = fp.asarray(np.linspace(1.0, 2.0, 8) + rank)
        parts = yield comm.allgather(fp.dot(x, x))
        total = parts[0]
        for part in parts[1:]:
            total = fp.add(total, part)
        return {"total": total} if rank == 0 else None

    def verify(self, output, reference):
        return bool(np.isclose(output["total"], reference["total"]))

    def cache_key(self):
        return "fork-gather"


class EarlyExitApp:
    """The last rank finishes at once; the others keep exchanging."""

    name = "fork-early-exit"

    def program(self, rank, size, comm, fp):
        x = fp.asarray(np.full(4, 1.0 + rank))
        if rank == size - 1:
            return None
        peers = size - 1
        for _ in range(12):
            y = yield comm.sendrecv(
                (rank + 1) % peers, x, source=(rank - 1) % peers
            )
            x = fp.add(fp.mul(x, fp.asarray(np.full(4, 0.5))), y)
        return {"x": x} if rank == 0 else None

    def verify(self, output, reference):
        return bool(np.allclose(output["x"], reference["x"]))

    def cache_key(self):
        return "fork-early-exit"


def _block(app, deployment, start, stop, fork):
    """Records of trials [start, stop): one forked block, or one by one."""
    model = resolve_model(deployment.scenario)
    tracer = Tracer(TracerMode.PROFILE)
    reference = execute_spmd(app.program, deployment.nprocs, sink=tracer)[0]
    args = (app, deployment, tracer.profile, reference)
    recorder = obs.get_recorder()
    if fork:
        return model.run_block(*args, start, stop, recorder)
    return [model.run_trial(*args, t, recorder) for t in range(start, stop)]


def _plans(app, deployment):
    model = resolve_model(deployment.scenario)
    return [
        model.sample(None, trial_seed(deployment.seed, t), app=app,
                     deployment=deployment)
        for t in range(deployment.trials)
    ]


# ----------------------------------------------------------------------
# byte-identity against the per-trial pipeline's goldens
# ----------------------------------------------------------------------
class TestGoldens:
    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    def test_forked(self, name, forks, fork_from, monkeypatch):
        app, kwargs = goldens.CASES[name]
        for slots in SLOTS:
            _force_slots(monkeypatch, slots)
            assert goldens.capture(app, kwargs, jobs=1) == _golden(name), slots
        assert len(forks) >= len(SLOTS) * kwargs["trials"]

    @pytest.mark.parametrize("name", ["mg16-rankkill", "mg16-msgcorrupt"])
    def test_mg16_forks_on_its_own_cost(self, name, forks):
        # a fault-free MG16 run takes about 100 ms: 8 trials pay
        app, kwargs = goldens.CASES[name]
        assert goldens.capture(app, kwargs, jobs=1) == _golden(name)
        assert len(forks) == kwargs["trials"]

    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    def test_in_place_fallback(self, name, forks, no_fork):
        app, kwargs = goldens.CASES[name]
        assert goldens.capture(app, kwargs, jobs=1) == _golden(name)
        assert forks == []

    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    def test_worker_pool(self, name):
        app, kwargs = goldens.CASES[name]
        assert goldens.capture(app, kwargs, jobs=2) == _golden(name)

    def test_pool_workers_fork(self):
        # jobs=2 plans chunks of 5 trials; each forks off one fault-free
        # MG16 run inside a pool worker, as it would inline
        deployment = Deployment(nprocs=16, trials=40, seed=5,
                                scenario="msgcorrupt")
        inline = run_campaign(get_app("mg"), deployment, keep_records=True,
                              jobs=1)
        with obs.recording(obs.Recorder([obs.MemorySink()])) as rec:
            pooled = run_campaign(get_app("mg"), deployment,
                                  keep_records=True, jobs=2)
        assert rec.counters["fi.fork.children"] > 0
        assert list(pooled.joint.items()) == list(inline.joint.items())
        assert pooled.records == inline.records

    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    def test_checkpoint_resume(self, name, tmp_cache, forks, fork_from,
                               monkeypatch):
        app, kwargs = goldens.CASES[name]
        deployment = Deployment(**kwargs)
        gold_prov, _, gold_joint = _golden(name)
        for slots in SLOTS:
            _force_slots(monkeypatch, slots)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_cache / str(slots)))
            before = len(forks)
            restore = _interrupt_after(4)
            try:
                with pytest.raises(KeyboardInterrupt):
                    run_campaign(get_app(app), deployment, jobs=1,
                                 checkpoint_every=3)
            finally:
                restore()
            prov, _, joint = goldens.capture(
                app, kwargs, jobs=1, checkpoint_every=3, resume=True,
            )
            assert prov == gold_prov, slots
            assert joint == gold_joint, slots
            assert len(forks) > before, slots  # chunks of 3 trials fork

    @pytest.mark.parametrize("every", [1, 2, FORK_FROM])
    def test_blocks_at_and_below_threshold(self, every, tmp_cache, forks, fork_from):
        app, kwargs = goldens.CASES["cg4-rankkill"]
        prov, _, joint = goldens.capture(app, kwargs, jobs=1,
                                         checkpoint_every=every)
        gold_prov, _, gold_joint = _golden("cg4-rankkill")
        assert prov == gold_prov
        assert joint == gold_joint
        assert bool(forks) == (every >= FORK_FROM)


# ----------------------------------------------------------------------
# edge cases: run_block itself against trials run one by one
# ----------------------------------------------------------------------
class TestEdgeCases:
    @pytest.mark.parametrize("scenario", ["rankkill", "msgcorrupt"])
    @pytest.mark.parametrize("start,stop", [(0, 1), (3, 5), (0, 8)])
    def test_any_block_matches_trials_run_alone(self, scenario, start, stop, forks):
        app = get_app("cg")
        deployment = Deployment(nprocs=4, trials=8, seed=3, scenario=scenario)
        forked = _block(app, deployment, start, stop, fork=True)
        alone = _block(app, deployment, start, stop, fork=False)
        assert forked == alone
        assert len(forks) == stop - start

    def test_victim_finishing_before_its_step(self, forks):
        app = EarlyExitApp()
        deployment = Deployment(nprocs=4, trials=6, seed=1,
                                scenario="rankkill:rank=3")
        forked = _block(app, deployment, 0, 6, fork=True)
        assert forked == _block(app, deployment, 0, 6, fork=False)
        assert not all(r.activated for r in forked)
        assert len(forks) == 6  # unreached sites fork at the run's end

    @pytest.mark.parametrize("scenario", ["rankkill:rank=0", "msgcorrupt"])
    def test_several_trials_at_one_site(self, scenario, forks):
        app = GatherApp()
        deployment = Deployment(nprocs=4, trials=12, seed=2, scenario=scenario)
        plans = [p.to_payload()[0] for p in _plans(app, deployment)]
        site = "step" if scenario.startswith("rankkill") else "delivery"
        assert len({p[site] for p in plans}) < len(plans)  # collisions
        forked = _block(app, deployment, 0, 12, fork=True)
        assert forked == _block(app, deployment, 0, 12, fork=False)
        assert len(forks) == 12

    def test_several_sites_inside_one_payload(self, forks):
        app = GatherApp()
        deployment = Deployment(nprocs=4, trials=10, seed=6,
                                scenario="msgcorrupt")
        deliveries = {p.delivery for p in _plans(app, deployment)}
        payloads = {d // 4 for d in deliveries}  # 4 leaves per delivery
        assert len(payloads) < len(deliveries)
        forked = _block(app, deployment, 0, 10, fork=True)
        assert forked == _block(app, deployment, 0, 10, fork=False)
        assert all(r.activated for r in forked)


# ----------------------------------------------------------------------
# observability: forked trials report what trials run alone report
# ----------------------------------------------------------------------
class TestObservability:
    def _run(self, scenario):
        mem = obs.MemorySink()
        rec = obs.Recorder([mem], tracing=True)
        deployment = Deployment(nprocs=4, trials=9, seed=4, scenario=scenario)
        with obs.recording(rec):
            run_campaign(get_app("cg"), deployment, jobs=1)
        return mem, rec

    @pytest.mark.parametrize("scenario", ["rankkill", "msgcorrupt"])
    def test_spans_counters_histograms_match_fallback(
        self, scenario, forks, fork_from, monkeypatch
    ):
        forked = {}
        for slots in SLOTS:
            _force_slots(monkeypatch, slots)
            forked[slots] = self._run(scenario)
        assert len(forks) == 9 * len(SLOTS)
        monkeypatch.setattr(base, "fork_safe", lambda: False)
        alone_mem, alone = self._run(scenario)
        assert len(forks) == 9 * len(SLOTS)
        for mem, rec in forked.values():
            assert _tree_digest(spans_of(mem.events)) == _tree_digest(
                spans_of(alone_mem.events)
            )
            # the fork metrics are the forked path's own
            summary = obs.render_metrics_summary(rec)
            assert "fi.fork.children" in summary and "fi.fork.wait_s" in summary
            assert rec.counters.pop("fi.fork.children") == 9
            assert rec.histograms.pop("fi.fork.wait_s")[0] == 9
            assert rec.counters == alone.counters
            assert rec.histograms == alone.histograms
            assert {k: v[0] for k, v in rec.span_totals.items()} == {
                k: v[0] for k, v in alone.span_totals.items()
            }

    def test_side_by_side_trials_export_to_a_valid_chrome_trace(
        self, forks, fork_from, monkeypatch
    ):
        _force_slots(monkeypatch, 3)
        mem, _ = self._run("msgcorrupt")
        spans = spans_of(mem.events)
        blob = chrome_trace(spans)
        assert validate_chrome_trace(blob) == len(spans)
        # every span keeps its recorded start: overlaps move to other tids
        t_base = min(span["t0"] for span in spans)
        begins = {e["args"]["span_id"]: e["ts"]
                  for e in blob["traceEvents"] if e["ph"] == "B"}
        trials = [span for span in spans if span["cat"] == "trial"]
        assert len(trials) == 9
        for span in trials:
            assert begins[span["span_id"]] == round((span["t0"] - t_base) * 1e6, 3)

    def test_profiling_runs_in_place(self, forks, fork_from):
        rec = obs.Recorder([obs.MemorySink()], profiling=True)
        with obs.recording(rec):
            run_campaign(
                get_app("cg"),
                Deployment(nprocs=4, trials=4, seed=4, scenario="rankkill"),
                jobs=1,
            )
        assert forks == []

    def test_another_thread_forces_the_fallback(self, forks, fork_from):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not base.fork_safe()
            run_campaign(
                get_app("cg"),
                Deployment(nprocs=4, trials=4, seed=4, scenario="rankkill"),
                jobs=1,
            )
        finally:
            stop.set()
            thread.join()
        assert forks == []


# ----------------------------------------------------------------------
# when to fork: the cost model and bounded blocks
# ----------------------------------------------------------------------
def _time_dynamics(monkeypatch, app, deployment, seconds):
    """Pretend the fault-free run of ``app`` at this scale took ``seconds``."""
    key = (app.cache_key(), deployment.nprocs, deployment.max_steps)
    timed = dataclasses.replace(execution_dynamics(app, deployment), seconds=seconds)
    monkeypatch.setitem(base._FAULT_FREE, key, timed)
    assert execution_dynamics(app, deployment) is timed


class TestWhenToFork:
    def test_break_even_follows_the_execution_cost(self, monkeypatch):
        app, deployment = get_app("cg"), Deployment(nprocs=4, trials=1)
        _time_dynamics(monkeypatch, app, deployment, 0.1)  # MG16-like
        assert not fork_pays(app, deployment, 2)
        assert fork_pays(app, deployment, 3)
        _time_dynamics(monkeypatch, app, deployment, 0.015)  # CG4-like
        assert not fork_pays(app, deployment, MAX_CHUNK_TRIALS)

    @pytest.mark.parametrize("seconds,forked", [(0.001, False), (1.0, True)])
    def test_campaign_forks_only_where_it_pays(
        self, seconds, forked, monkeypatch, forks
    ):
        app, kwargs = goldens.CASES["cg4-rankkill"]
        _time_dynamics(monkeypatch, get_app(app), Deployment(**kwargs), seconds)
        assert goldens.capture(app, kwargs, jobs=1) == _golden("cg4-rankkill")
        assert bool(forks) == forked

    def test_live_sink_sees_each_block_before_the_next_runs(
        self, forks, fork_from, monkeypatch
    ):
        blocks = []
        real = base.SiteFaultModel.run_block

        def counting(model, *args):
            blocks.append(args[-3:-1])  # (start, stop)
            return real(model, *args)

        monkeypatch.setattr(base.SiteFaultModel, "run_block", counting)
        seen = {}

        class Sink:
            def write(self, event):
                if isinstance(event, obs.TrialFinished):
                    seen[event.trial] = len(blocks)

            def close(self):
                pass

        trials = MAX_CHUNK_TRIALS + FORK_FROM
        with obs.recording(obs.Recorder([Sink()])):
            run_campaign(
                get_app("cg"),
                Deployment(nprocs=4, trials=trials, seed=4, scenario="rankkill"),
                jobs=1,
            )
        assert blocks == [(0, MAX_CHUNK_TRIALS), (MAX_CHUNK_TRIALS, trials)]
        assert seen == {
            t: 1 if t < MAX_CHUNK_TRIALS else 2 for t in range(trials)
        }
        assert len(forks) == trials


def test_fork_beside_other_threads_does_not_warn():
    """Python 3.12+ warns on fork() beside other OS threads (numpy's
    OpenBLAS pool is one); the suppression is scoped to ``_fork``."""
    import warnings

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pid = base._fork()
            if pid == 0:
                os._exit(0)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# a failing child: typed, bounded, reaped
# ----------------------------------------------------------------------
_CHILD_SCRIPT = textwrap.dedent("""
    import os, signal, sys, time
    import numpy as np
    import repro.fi.scenarios.base as base
    from repro.errors import WorkerCrashError
    from repro.fi.campaign import Deployment, run_campaign

    pids = []
    real_fork = base._fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    base._fork = recording_fork
    base.fork_pays = lambda app, deployment, trials: True  # a tiny app
    MODE, SLOTS = sys.argv[1], int(sys.argv[2])
    base.fork_slots = lambda workers=1: SLOTS
    ORIGIN = os.getpid()

    class App:
        name = "fork-failing"

        def program(self, rank, size, comm, fp):
            x = fp.asarray(np.linspace(1.0, 2.0, 8) + rank)
            total = yield comm.allreduce(fp.dot(x, x), op="sum")
            if os.getpid() != ORIGIN:  # only a forked child gets here
                if MODE == "exit":
                    os._exit(3)
                if MODE == "raise":
                    raise ValueError("boom")
                if MODE == "staggered":  # the first site fails last
                    if not pids:
                        time.sleep(0.3)
                        os._exit(3)
                    os._exit(4)
                if MODE == "sleep":
                    time.sleep(60)
            elif MODE == "parent" and pids:
                raise RuntimeError("parent fails mid-block")
            return {"total": total} if rank == 0 else None

        def verify(self, output, reference):
            return True

        def cache_key(self):
            return "fork-failing"

    if MODE == "sleep":
        def interrupt(*_):
            raise KeyboardInterrupt
        signal.signal(signal.SIGALRM, interrupt)
        signal.alarm(1)
    start = time.monotonic()
    try:
        run_campaign(App(), Deployment(nprocs=4, trials=4, seed=1,
                                       scenario="msgcorrupt"), jobs=1)
    except WorkerCrashError as exc:
        print("crash", exc.chunk_start, exc.chunk_stop, exc)
    except KeyboardInterrupt:
        print("interrupted after", round(time.monotonic() - start), "s")
    except RuntimeError as exc:
        print("parent raised", exc)
    print("forked", len(pids))
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no children")
""")


class TestChildFailure:
    def _run(self, mode: str, slots: int) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, mode, str(slots)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _crashed_trial(self, mode: str, pattern: str) -> str:
        """The trial named at one slot and at two: the same one."""
        named = set()
        for slots in (1, 2):
            out = self._run(mode, slots)
            match = re.search(rf"crash (\d+) \d+ forked trial \1 {pattern}", out)
            assert match, (slots, out)
            assert "no children" in out, (slots, out)
            named.add(match[1])
        assert len(named) == 1
        return named.pop()

    def test_child_exit_is_a_typed_error_naming_the_trial(self):
        self._crashed_trial("exit", "exited with status 3")

    def test_child_exception_is_a_typed_error_naming_the_trial(self):
        self._crashed_trial("raise", "raised ValueError: boom")

    def test_first_failure_in_site_order_is_raised(self):
        # the first child fails after its younger sibling already has
        self._crashed_trial("staggered", "exited with status 3")

    def test_interrupted_parent_kills_and_reaps_its_child(self):
        out = self._run("sleep", 2)
        # the alarm lands while the first child sleeps for a minute
        assert "interrupted after 1 s" in out
        assert int(re.search(r"forked (\d+)", out)[1]) <= 2
        assert "no children" in out

    def test_parent_exception_kills_and_reaps_live_children(self):
        out = self._run("parent", 2)
        assert "parent raised parent fails mid-block" in out
        assert "no children" in out
