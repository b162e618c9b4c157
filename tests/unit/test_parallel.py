"""Serial-vs-parallel campaign parity and worker-failure semantics.

The apps here are module-level classes so ``spawn`` workers can unpickle
them (spawned children import this module by path).  Parity is the hard
guarantee: ``run_campaign(..., jobs=N)`` must be bit-identical to the
serial path for any N, because the disk cache and every results/*.txt
regression keys off the serial numbers.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError, WorkerCrashError
from repro.fi.cache import cached_campaign
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.outcomes import Outcome
from repro.engine import MAX_CHUNK_TRIALS, chunk_bounds
from repro.knobs import env_value


class ParityApp:
    """Distributed dot product: cheap, but exercises real injections."""

    name = "parity"

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
        return f"parity(n={self.n},tol={self.tol})"


class CrashingWorkerApp(ParityApp):
    """Dies abruptly — but only inside a worker process.

    ``parent_pid`` is captured at construction (in the test process) and
    travels with the pickle, so the parent's profiling pass succeeds
    while any spawned worker hard-exits without reporting.
    """

    name = "crashy"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.parent_pid = os.getpid()

    def program(self, rank, size, comm, fp):
        if os.getpid() != self.parent_pid:
            os._exit(3)
        return super().program(rank, size, comm, fp)


class RaisingWorkerApp(ParityApp):
    """Raises a normal exception — but only inside a worker process."""

    name = "angry"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.parent_pid = os.getpid()

    def program(self, rank, size, comm, fp):
        if os.getpid() != self.parent_pid:
            raise RuntimeError("worker exploded on purpose")
        return super().program(rank, size, comm, fp)


class TestChunking:
    def test_chunks_cover_range_exactly(self):
        for trials, jobs in [(1, 4), (7, 2), (40, 4), (200, 3), (1000, 16)]:
            chunks = chunk_bounds(trials, jobs)
            flat = [t for lo, hi in chunks for t in range(lo, hi)]
            assert flat == list(range(trials))

    def test_chunk_size_capped(self):
        assert all(
            hi - lo <= MAX_CHUNK_TRIALS for lo, hi in chunk_bounds(10_000, 2)
        )

    def test_no_trials_no_chunks(self):
        assert chunk_bounds(0, 4) == []

    def test_small_campaign_is_one_chunk_per_worker(self):
        # each worker then runs one full lane block
        assert chunk_bounds(40, 2) == [(0, 20), (20, 40)]
        assert chunk_bounds(30, 2) == [(0, 15), (15, 30)]

    @pytest.mark.parametrize("trials, jobs", [
        (7, 2), (40, 4), (101, 2), (200, 3), (201, 2), (1000, 16), (10_000, 2),
    ])
    def test_chunks_are_balanced_per_worker(self, trials, jobs):
        chunks = chunk_bounds(trials, jobs)
        sizes = [hi - lo for lo, hi in chunks]
        assert len(chunks) % jobs == 0
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= MAX_CHUNK_TRIALS

    @pytest.mark.parametrize("trials, jobs, max_size", [
        (10, 2, 4), (40, 2, 3), (40, 2, 20), (200, 3, 7), (1000, 16, 60),
    ])
    def test_max_size_bounds_every_chunk(self, trials, jobs, max_size):
        chunks = chunk_bounds(trials, jobs, max_size)
        assert [t for lo, hi in chunks for t in range(lo, hi)] == list(range(trials))
        assert all(hi - lo <= min(max_size, MAX_CHUNK_TRIALS) for lo, hi in chunks)


class TestJobsResolution:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert env_value("jobs") == 3

    def test_default_jobs_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_value("jobs") == 1
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert env_value("jobs") == 1

    def test_deployment_validates_jobs(self):
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=1, trials=1, jobs=0)

    def test_env_drives_run_campaign(self, monkeypatch):
        # jobs resolved from $REPRO_JOBS must give the serial result too
        serial = run_campaign(ParityApp(), Deployment(nprocs=1, trials=6, seed=3))
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_campaign(ParityApp(), Deployment(nprocs=1, trials=6, seed=3))
        assert parallel.joint == serial.joint


class TestParity:
    """jobs ∈ {1, 2, 4} must agree bit-for-bit."""

    def _assert_identical(self, app, deployment, jobs):
        serial = run_campaign(app, deployment, keep_records=True, jobs=1)
        parallel = run_campaign(app, deployment, keep_records=True, jobs=jobs)
        assert parallel.joint == serial.joint
        # dict *insertion order* must match too: the serialized cache
        # entry and any iteration-order-dependent consumer see no delta
        assert list(parallel.joint) == list(serial.joint)
        assert parallel.records == serial.records
        assert parallel.activation_rate() == serial.activation_rate()
        for outcome in Outcome:
            assert parallel.rate(outcome) == serial.rate(outcome)
        assert parallel.parallel_unique_fraction == serial.parallel_unique_fraction
        assert parallel.total_instructions == serial.total_instructions

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_single_error_parallel_app(self, jobs):
        self._assert_identical(
            ParityApp(), Deployment(nprocs=2, trials=14, seed=5), jobs
        )

    def test_multi_error_deployment(self):
        self._assert_identical(
            ParityApp(), Deployment(nprocs=1, trials=10, n_errors=4, seed=2), 2
        )

    def test_multibit_deployment(self):
        self._assert_identical(
            ParityApp(),
            Deployment(nprocs=1, trials=10, seed=8, bits_per_error=2), 2,
        )

    def test_registered_app(self):
        from repro.apps import get_app

        self._assert_identical(
            get_app("cg"), Deployment(nprocs=2, trials=8, seed=1), 2
        )

    def test_more_jobs_than_trials(self):
        self._assert_identical(
            ParityApp(), Deployment(nprocs=1, trials=3, seed=4), 4
        )


class TestCacheInteraction:
    def test_jobs_do_not_fork_cache_entries(self, tmp_cache):
        """jobs is an execution knob, not part of the result's identity."""
        app = ParityApp()
        first = cached_campaign(app, Deployment(nprocs=1, trials=8, seed=6, jobs=2))
        assert len(list(tmp_cache.glob("parity-*.json"))) == 1
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            second = cached_campaign(
                app, Deployment(nprocs=1, trials=8, seed=6, jobs=1)
            )
        assert len(mem.of(obs.CacheHit)) == 1  # served, not recomputed
        assert second.joint == first.joint


class TestWorkerFailure:
    def test_worker_crash_is_a_clear_error_not_a_hang(self):
        app = CrashingWorkerApp()
        started = time.monotonic()
        with pytest.raises(WorkerCrashError, match="worker process died"):
            run_campaign(app, Deployment(nprocs=1, trials=6, seed=0), jobs=2)
        # raised once no worker was left alive, not at the 120 s
        # worker timeout
        assert time.monotonic() - started < 30.0
        # the next campaign respawns the pool
        deployment = Deployment(nprocs=1, trials=6, seed=0)
        assert (run_campaign(ParityApp(), deployment, jobs=2).joint
                == run_campaign(ParityApp(), deployment, jobs=1).joint)

    def test_worker_exception_propagates(self):
        app = RaisingWorkerApp()
        with pytest.raises(WorkerCrashError, match="worker exploded"):
            run_campaign(app, Deployment(nprocs=1, trials=6, seed=0), jobs=2)


class TestParallelObservability:
    """Events and aggregates must match serial-run semantics exactly."""

    def _run(self, deployment, jobs, lanes=None):
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as rec:
            result = run_campaign(ParityApp(), deployment, jobs=jobs,
                                  lanes=lanes)
        return result, mem, rec

    def test_trial_events_complete_and_ordered(self):
        dep = Deployment(nprocs=2, trials=12, seed=9)
        res, mem, _ = self._run(dep, jobs=2)
        trials = mem.of(obs.TrialFinished)
        assert [e.trial for e in trials] == list(range(12))
        for outcome in Outcome:
            emitted = sum(1 for e in trials if e.outcome == outcome.value)
            assert emitted == res.outcome_count(outcome)

    def test_aggregates_match_serial(self):
        dep = Deployment(nprocs=2, trials=12, seed=9)
        _, _, serial_rec = self._run(dep, jobs=1, lanes=1)
        _, _, parallel_rec = self._run(dep, jobs=2, lanes=1)
        # counters: identical work was metered, just in other processes
        assert parallel_rec.counters == serial_rec.counters
        # integer histogram summaries merge exactly, in any chunk order
        assert parallel_rec.histograms == serial_rec.histograms
        # span paths and counts line up (durations differ, of course)
        assert set(parallel_rec.span_totals) == set(serial_rec.span_totals)
        for path in ("campaign/trial", "campaign/trial/inject"):
            assert parallel_rec.span_totals[path][0] == \
                serial_rec.span_totals[path][0]

    def test_trial_aggregates_match_serial_at_default_lanes(self):
        dep = Deployment(nprocs=2, trials=12, seed=9)
        _, _, serial_rec = self._run(dep, jobs=1)
        _, _, parallel_rec = self._run(dep, jobs=2)
        # lane-execution counters follow the chunk layout; the rest
        # metered the same trials
        trial_counters = lambda rec: {
            k: v for k, v in rec.counters.items() if not k.startswith("fi.lanes.")
        }
        assert trial_counters(parallel_rec) == trial_counters(serial_rec)
        assert "fi.lanes.ejected" in serial_rec.counters
        assert parallel_rec.histograms == serial_rec.histograms

    def test_fault_injected_events_match_activation(self):
        dep = Deployment(nprocs=1, trials=10, seed=3)
        res, mem, _ = self._run(dep, jobs=2)
        activated = sum(c for (_, _, act), c in res.joint.items() if act)
        assert len(mem.of(obs.FaultInjected)) == activated

    def test_progress_sink_sees_every_trial(self):
        sink = obs.ProgressSink(stream=_NullStream(), min_interval=0.0)
        with obs.recording(obs.Recorder([sink])):
            run_campaign(ParityApp(), Deployment(nprocs=1, trials=8, seed=1), jobs=2)
        assert sink._done == 8
        assert sink._total == 8


class _NullStream:
    def write(self, text):
        return None

    def flush(self):
        return None
