"""The campaign execution engine: backends, folding, checkpoint/resume.

The hard guarantee under test: ``run_campaign(..., jobs=N)`` is
bit-identical — joint content *and* insertion order, records, events —
to the serial loop for any N, any checkpoint interval, and any
interruption-and-resume pattern in between.  Apps are module-level
classes so ``spawn`` workers can unpickle them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.engine.chunks as chunks_mod
from repro import obs
from repro.engine import (
    CheckpointStore,
    ChunkAggregator,
    ChunkPayload,
    InlineBackend,
    LocalDirStore,
    ProcessPoolBackend,
    chunk_bounds,
    plan_chunks,
    select_backend,
)
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    WorkerCrashError,
)
from repro.fi.cache import cached_campaign
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.outcomes import Outcome
from repro.knobs import env_value


class EngineApp:
    """Distributed dot product: cheap, but exercises real injections."""

    name = "engine"

    def __init__(self, n=64, tol=1e-9):
        self.n = n
        self.tol = tol

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        local = fp.dot(x, x)
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
        return f"engine(n={self.n},tol={self.tol})"


class FlagCrashApp(EngineApp):
    """Hard-exits in worker processes while ``flag_path`` exists.

    Deleting the flag file turns the app back into :class:`EngineApp`,
    so a campaign killed by crashing workers can be *resumed* by the
    very same app identity — the checkpoint-store key sees no change.
    """

    name = "flagcrash"

    def __init__(self, flag_path, **kwargs):
        super().__init__(**kwargs)
        self.flag_path = str(flag_path)
        self.parent_pid = os.getpid()

    def program(self, rank, size, comm, fp):
        if os.path.exists(self.flag_path) and os.getpid() != self.parent_pid:
            os._exit(5)
        return super().program(rank, size, comm, fp)

    def cache_key(self):
        return f"flagcrash(n={self.n},tol={self.tol})"


def _interrupt_after(n_trials: int):
    """Patch ``fold_record`` to raise KeyboardInterrupt after N trials.

    Returns the restore callable; ``execute_chunk`` resolves
    ``fold_record`` at call time, so the patch reaches inline chunk
    execution whichever block kind ran the trials.
    """
    real = chunks_mod.fold_record
    calls = {"n": 0}

    def interrupted(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > n_trials:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    chunks_mod.fold_record = interrupted
    return lambda: setattr(chunks_mod, "fold_record", real)


@pytest.fixture(autouse=True)
def _isolated_store(tmp_cache):
    """Checkpoints (and any cache writes) land in a per-test directory."""
    yield


class TestChunkPlanning:
    def test_serial_uncheckpointed_is_one_chunk(self):
        assert plan_chunks(500, 1) == [(0, 500)]

    def test_checkpoint_interval_bounds_chunk_size(self):
        chunks = plan_chunks(10, 1, checkpoint_every=3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_parallel_plan_matches_chunk_bounds(self):
        assert plan_chunks(200, 4) == chunk_bounds(200, 4)

    def test_plans_tile_the_trial_range(self):
        for trials, jobs, every in [(1, 1, 1), (7, 2, 3), (40, 4, None),
                                    (200, 3, 7), (1000, 16, 50)]:
            chunks = plan_chunks(trials, jobs, every)
            flat = [t for lo, hi in chunks for t in range(lo, hi)]
            assert flat == list(range(trials))

    def test_no_trials_no_chunks(self):
        assert plan_chunks(0, 4, checkpoint_every=2) == []


class TestBackendSelection:
    def test_serial_runs_inline(self):
        assert isinstance(select_backend(1, 10, capture=False), InlineBackend)

    def test_single_chunk_runs_inline_despite_jobs(self):
        assert isinstance(select_backend(4, 1, capture=False), InlineBackend)

    def test_parallel_uses_the_pool(self):
        backend = select_backend(2, 8, capture=True)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.live_events is False


class TestAggregator:
    def _payload(self, lo, hi, key=(Outcome.SUCCESS, 1, True)):
        return ChunkPayload(start=lo, stop=hi, joint={key: hi - lo})

    def test_out_of_order_arrival_folds_in_chunk_order(self):
        k1, k2 = (Outcome.SDC, 2, True), (Outcome.SUCCESS, 0, False)
        agg = ChunkAggregator([(0, 2), (2, 4)])
        agg.add(self._payload(2, 4, key=k2))  # later chunk arrives first
        assert agg.trials_folded == 0  # buffered, not folded
        agg.add(self._payload(0, 2, key=k1))
        joint, _ = agg.finish()
        # insertion order follows chunk order, not arrival order
        assert list(joint) == [k1, k2]

    def test_unexpected_chunk_rejected(self):
        agg = ChunkAggregator([(0, 2)])
        with pytest.raises(ValueError, match="unexpected chunk"):
            agg.add(self._payload(5, 9))

    def test_finish_reports_missing_chunks(self):
        agg = ChunkAggregator([(0, 2), (2, 4)])
        agg.add(self._payload(0, 2))
        with pytest.raises(RuntimeError, match="never[\\s\\S]*arrived"):
            agg.finish()


class TestCheckpointedParity:
    """Checkpointing must never change a campaign's result."""

    def _assert_identical(self, app, deployment, **kwargs):
        serial = run_campaign(app, deployment, keep_records=True, jobs=1)
        other = run_campaign(app, deployment, keep_records=True, **kwargs)
        assert other.joint == serial.joint
        assert list(other.joint) == list(serial.joint)
        assert other.records == serial.records

    def test_inline_checkpointed(self):
        self._assert_identical(
            EngineApp(), Deployment(nprocs=2, trials=10, seed=5),
            jobs=1, checkpoint_every=3,
        )

    def test_pool_checkpointed(self):
        self._assert_identical(
            EngineApp(), Deployment(nprocs=2, trials=10, seed=5),
            jobs=2, checkpoint_every=3,
        )

    def test_interval_larger_than_campaign(self):
        self._assert_identical(
            EngineApp(), Deployment(nprocs=1, trials=4, seed=2),
            jobs=1, checkpoint_every=100,
        )

    def test_store_removed_after_success(self):
        app, dep = EngineApp(), Deployment(nprocs=1, trials=6, seed=1)
        run_campaign(app, dep, jobs=1, checkpoint_every=2)
        assert not CheckpointStore(app, dep).dir.exists()


class TestCheckpointCost:
    """The durability tax is one store write per chunk, plus the manifest."""

    @staticmethod
    def _count_puts(monkeypatch) -> list[str]:
        keys: list[str] = []
        real = LocalDirStore.put

        def put(self, key, data):
            if key.startswith("checkpoints/"):
                keys.append(key)
            return real(self, key, data)

        monkeypatch.setattr(LocalDirStore, "put", put)
        return keys

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_write_per_chunk_and_one_manifest(self, monkeypatch, jobs):
        keys = self._count_puts(monkeypatch)
        dep = Deployment(nprocs=2, trials=10, seed=5)
        run_campaign(EngineApp(), dep, jobs=jobs, checkpoint_every=3)
        chunks = plan_chunks(dep.trials, jobs, 3)
        manifests = [k for k in keys if k.endswith("/meta.json")]
        assert len(manifests) == 1
        assert len(keys) == len(chunks) + 1
        # every chunk written exactly once
        assert len(set(keys)) == len(keys)

    def test_adaptive_writes_one_manifest_per_wave(self, monkeypatch):
        keys = self._count_puts(monkeypatch)
        dep = Deployment(nprocs=2, trials=400, seed=5, ci_halfwidth=0.12)
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            run_campaign(EngineApp(), dep, jobs=1, checkpoint_every=7)
        (converged,) = mem.of(obs.CampaignConverged)
        written = mem.of(obs.CheckpointWritten)
        manifests = [k for k in keys if k.endswith("/meta.json")]
        assert converged.waves > 1
        assert len(manifests) == converged.waves
        assert len(keys) == len(written) + converged.waves
        assert len(set(keys) - set(manifests)) == len(written)


class TestInterruptAndResume:
    def test_resume_matches_uninterrupted(self):
        app = EngineApp()
        dep = Deployment(nprocs=2, trials=10, seed=5)
        clean = run_campaign(app, dep, keep_records=True, jobs=1)

        restore = _interrupt_after(6)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, dep, keep_records=True, jobs=1,
                             checkpoint_every=3)
        finally:
            restore()
        store = CheckpointStore(app, dep, keep_records=True)
        assert len(list(store.dir.glob("chunk-*.json"))) == 2
        # a fixed-N manifest pins the whole layout: no partial `planned`
        meta = json.loads((store.dir / "meta.json").read_text())
        assert "planned" not in meta
        assert meta["trials"] == 10
        tiled = [t for lo, hi in sorted(meta["chunks"]) for t in range(lo, hi)]
        assert tiled == list(range(10))

        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            resumed = run_campaign(app, dep, keep_records=True, jobs=1,
                                   checkpoint_every=3, resume=True)
        assert resumed.joint == clean.joint
        assert list(resumed.joint) == list(clean.joint)
        assert resumed.records == clean.records
        assert not store.dir.exists()

        (event,) = mem.of(obs.CampaignResumed)
        assert (event.trials_done, event.trials_total) == (6, 10)
        assert (event.chunks_done, event.chunks_total) == (2, 4)
        # replayed + fresh events cover every trial exactly once, in order
        assert [e.trial for e in mem.of(obs.TrialFinished)] == list(range(10))

    def test_resume_without_checkpoints_runs_normally(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=5, seed=3)
        clean = run_campaign(app, dep, jobs=1)
        resumed = run_campaign(app, dep, jobs=1, resume=True)
        assert resumed.joint == clean.joint

    def test_resume_under_different_worker_count(self):
        """The chunk layout is pinned at first write, not re-planned."""
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=10, seed=7)
        clean = run_campaign(app, dep, keep_records=True, jobs=1)
        restore = _interrupt_after(6)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, dep, keep_records=True, jobs=1,
                             checkpoint_every=3)
        finally:
            restore()
        resumed = run_campaign(app, dep, keep_records=True, jobs=2,
                               checkpoint_every=3, resume=True)
        assert resumed.joint == clean.joint
        assert list(resumed.joint) == list(clean.joint)
        assert resumed.records == clean.records

    def test_fresh_run_discards_stale_checkpoints(self):
        """Without --resume, leftovers must not leak into the result."""
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=8, seed=9)
        restore = _interrupt_after(4)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, dep, jobs=1, checkpoint_every=2)
        finally:
            restore()
        clean = run_campaign(app, dep, jobs=1)
        fresh = run_campaign(app, dep, jobs=1, checkpoint_every=2)
        assert fresh.joint == clean.joint


class TestWorkerCrash:
    def test_crash_names_first_unfinished_trial_range(self, tmp_path):
        flag = tmp_path / "crash.flag"
        flag.touch()
        app = FlagCrashApp(flag)
        with pytest.raises(WorkerCrashError,
                           match=r"trials \d+\.\.\d+") as excinfo:
            run_campaign(app, Deployment(nprocs=1, trials=6, seed=0), jobs=2)
        err = excinfo.value
        assert err.chunk_start is not None
        assert err.chunk_stop is not None
        assert 0 <= err.chunk_start < err.chunk_stop <= 6

    def test_resume_after_worker_crash(self, tmp_path):
        flag = tmp_path / "crash.flag"
        app = FlagCrashApp(flag)
        dep = Deployment(nprocs=1, trials=8, seed=4)
        clean = run_campaign(app, dep, keep_records=True, jobs=1)

        flag.touch()
        with pytest.raises(WorkerCrashError):
            run_campaign(app, dep, keep_records=True, jobs=2,
                         checkpoint_every=2)
        flag.unlink()  # the transient failure clears; same app identity
        resumed = run_campaign(app, dep, keep_records=True, jobs=1,
                               checkpoint_every=2, resume=True)
        assert resumed.joint == clean.joint
        assert list(resumed.joint) == list(clean.joint)
        assert resumed.records == clean.records


class TestCheckpointCorruption:
    def _interrupted_store(self, app, dep):
        restore = _interrupt_after(6)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, dep, jobs=1, checkpoint_every=3)
        finally:
            restore()
        return CheckpointStore(app, dep)

    def test_corrupt_chunk_raises_then_restarts_clean(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=10, seed=11)
        clean = run_campaign(app, dep, jobs=1)
        store = self._interrupted_store(app, dep)
        victim = sorted(store.dir.glob("chunk-*.json"))[0]
        victim.write_text("{ not json")

        with pytest.raises(CheckpointCorruptError) as excinfo:
            run_campaign(app, dep, jobs=1, checkpoint_every=3, resume=True)
        assert excinfo.value.path == str(victim)
        assert not victim.exists()  # damaged artifact removed on sight
        retried = run_campaign(app, dep, jobs=1, checkpoint_every=3,
                               resume=True)
        assert retried.joint == clean.joint

    def test_corrupt_manifest_wipes_store(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=10, seed=11)
        clean = run_campaign(app, dep, jobs=1)
        store = self._interrupted_store(app, dep)
        (store.dir / "meta.json").write_text("{ not json")

        with pytest.raises(CheckpointCorruptError):
            run_campaign(app, dep, jobs=1, checkpoint_every=3, resume=True)
        assert not store.dir.exists()
        retried = run_campaign(app, dep, jobs=1, checkpoint_every=3,
                               resume=True)
        assert retried.joint == clean.joint

    def _metered_interrupted_store(self, app, dep):
        """An interrupted checkpointed run whose chunks carry metrics."""
        with obs.recording(obs.Recorder(enabled=True)):
            return self._interrupted_store(app, dep)

    @pytest.mark.parametrize("entry", [
        "abc",                                    # any iterable used to load
        [1, "x"],                                 # non-numeric sample
        {"count": 2, "sum": 4, "min": 1},         # incomplete summary
        {"count": 0, "sum": 0, "min": 0, "max": 0},  # summary of nothing
        {"count": True, "sum": 1, "min": 1, "max": 1},
    ])
    def test_malformed_histogram_is_corrupt(self, entry):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=10, seed=11)
        store = self._metered_interrupted_store(app, dep)
        victim = sorted(store.dir.glob("chunk-*.json"))[0]
        blob = json.loads(victim.read_text())
        blob["obs"]["histograms"]["taint.contamination_spread"] = entry
        victim.write_text(json.dumps(blob))

        with obs.recording(obs.Recorder(enabled=True)) as rec:
            with pytest.raises(CheckpointCorruptError, match="histogram"):
                run_campaign(app, dep, jobs=1, checkpoint_every=3,
                             resume=True)
        assert rec.counters["checkpoint.corrupt"] == 1
        assert not victim.exists()

    def test_sample_list_chunks_still_resume(self, monkeypatch):
        """A ckpt-v1 chunk written before histogram summaries holds each
        histogram as its list of samples; it resumes to the same metrics
        as an uninterrupted run."""
        app = EngineApp()
        dep = Deployment(nprocs=2, trials=10, seed=11)
        with obs.recording(obs.Recorder(enabled=True)) as clean:
            run_campaign(app, dep, jobs=1)

        chunk_recorders = []

        class SampleRecorder(obs.Recorder):
            """A chunk recorder that also keeps every sample."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.samples = {}
                chunk_recorders.append(self)

            def observe(self, name, value):
                super().observe(name, value)
                self.samples.setdefault(name, []).append(value)

        with monkeypatch.context() as patch:
            patch.setattr(chunks_mod, "Recorder", SampleRecorder)
            store = self._metered_interrupted_store(app, dep)
        chunk_files = sorted(store.dir.glob("chunk-*.json"))
        assert len(chunk_files) == 2
        for path, chunk_rec in zip(chunk_files, chunk_recorders):
            blob = json.loads(path.read_text())
            assert set(blob["obs"]["histograms"]) == set(chunk_rec.samples)
            blob["obs"]["histograms"] = chunk_rec.samples
            path.write_text(json.dumps(blob))

        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as resumed:
            run_campaign(app, dep, jobs=1, checkpoint_every=3, resume=True)
        (event,) = mem.of(obs.CampaignResumed)  # the list chunks were read
        assert event.trials_done == 6
        assert resumed.histograms == clean.histograms

    def test_foreign_manifest_is_stale_not_corrupt(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=10, seed=11)
        store = self._interrupted_store(app, dep)
        meta = json.loads((store.dir / "meta.json").read_text())
        meta["key"] = "somebody-else"
        (store.dir / "meta.json").write_text(json.dumps(meta))
        assert store.load() is None  # wiped silently, no typed error
        assert not store.dir.exists()

    def test_keep_records_is_part_of_the_identity(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=6, seed=2)
        with_records = CheckpointStore(app, dep, keep_records=True)
        without = CheckpointStore(app, dep, keep_records=False)
        assert with_records.dir != without.dir


class TestKnobResolution:
    def test_checkpoint_env_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "25")
        assert env_value("checkpoint_every") == 25

    def test_checkpoint_env_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        assert env_value("checkpoint_every") is None

    @pytest.mark.parametrize("raw", ["soon", "0", "-3"])
    def test_checkpoint_env_malformed_warns_and_disables(
        self, monkeypatch, capsys, raw
    ):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", raw)
        assert env_value("checkpoint_every") is None
        assert "REPRO_CHECKPOINT_EVERY" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", True), ("yes", True), ("0", False), ("false", False),
         ("no", False), ("", False)],
    )
    def test_resume_env(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_RESUME", raw)
        assert env_value("resume") is expected

    def test_deployment_validates_checkpoint_every(self):
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=1, trials=1, checkpoint_every=0)

    def test_env_drives_run_campaign(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "2")
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            run_campaign(EngineApp(), Deployment(nprocs=1, trials=4, seed=1))
        writes = mem.of(obs.CheckpointWritten)
        assert [(e.chunk_start, e.chunk_stop) for e in writes] == \
            [(0, 2), (2, 4)]
        assert writes[-1].trials_done == 4
        assert all(e.size_bytes > 0 for e in writes)

    def test_deployment_field_drives_run_campaign(self):
        app = EngineApp()
        dep = Deployment(nprocs=1, trials=4, seed=1, checkpoint_every=2)
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            run_campaign(app, dep)
        assert len(mem.of(obs.CheckpointWritten)) == 2


class TestCacheInteraction:
    def test_checkpoint_every_does_not_fork_cache_entries(self, tmp_cache):
        """checkpoint_every is an execution knob, not result identity."""
        app = EngineApp()
        first = cached_campaign(
            app, Deployment(nprocs=1, trials=8, seed=6, checkpoint_every=3)
        )
        assert len(list(tmp_cache.glob("engine-*.json"))) == 1
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            second = cached_campaign(
                app, Deployment(nprocs=1, trials=8, seed=6)
            )
        assert len(mem.of(obs.CacheHit)) == 1  # served, not recomputed
        assert second.joint == first.joint


class TestCrashResumeByteParity:
    """A hard-killed interpreter resumes to the byte-identical artifacts."""

    def test_joint_and_provenance_byte_identical(self, tmp_path):
        child = Path(__file__).with_name("engine_child.py")
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": f"{src}{os.pathsep}" + os.environ.get(
                   "PYTHONPATH", "")}

        def run_child(mode, trace, out):
            return subprocess.run(
                [sys.executable, str(child), mode, str(tmp_path / trace),
                 str(tmp_path / out), str(tmp_path / "ckpt")],
                env=env, capture_output=True, text=True, timeout=300,
            )

        clean = run_child("clean", "clean.jsonl", "clean.json")
        assert clean.returncode == 0, clean.stderr

        crash = run_child("crash", "broken.jsonl", "unused.json")
        assert crash.returncode == 41, crash.stderr  # died mid-campaign
        ckpt_dirs = list((tmp_path / "ckpt" / "checkpoints").glob("cg-*"))
        assert ckpt_dirs, "the killed run left no checkpoints behind"

        resume = run_child("resume", "broken.jsonl", "resumed.json")
        assert resume.returncode == 0, resume.stderr

        clean_joint = json.loads((tmp_path / "clean.json").read_text())
        resumed_joint = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed_joint == clean_joint  # content *and* order
        assert (tmp_path / "broken.provenance.jsonl").read_bytes() == \
            (tmp_path / "clean.provenance.jsonl").read_bytes()
