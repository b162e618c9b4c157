"""Differential + chaos tests for pooled campaign execution.

Layers:

* Wire-level unit tests for the length-prefixed JSON framing
  (``socketpair`` — no subprocesses), the backend choice and the
  aggregator's duplicate-chunk guard.
* Differential tests: campaigns on the local worker pool (``--jobs``)
  against inline runs — joints, records, provenance bytes, filtered
  event streams.
* Chaos tests: misbehaving pool members (``distributed_child.py``)
  join the pool with its address and secret, as its workers do, and
  die, stall, send garbage or never connect; the campaign requeues and
  completes identically, or fails with a typed, bounded error.
* Local-pool lifetime: warm rejoin, authentication, exit with the
  driver, and members forked from the driver (what they shed) or
  spawned while another thread is alive.

Workers must be subprocesses, never threads: ``execute_chunk`` swaps
the *process-global* recorder while a chunk runs, so an in-process
worker would race the driver's recorder.  (The warm-cache and
``DistributedBackend`` tests are the exception: they drive a worker
session whose controller emits nothing while a chunk runs.)
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.context import ForkProcess, SpawnProcess
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.engine import (
    ChunkAggregator,
    ChunkPayload,
    DistributedBackend,
    InlineBackend,
    ProcessPoolBackend,
    plan_chunks,
    select_backend,
)
from repro.engine.chunks import EngineContext
import repro.engine.backends as backends
import repro.engine.core as core
import repro.engine.distributed as distributed
from repro.engine.distributed import (
    MAX_FRAME_BYTES,
    WARM_LIMIT,
    _FrameBuffer,
    _pickle_b64,
    _serve_session,
    dispatch,
    recv_frame,
    send_frame,
)
from repro.errors import DistributedProtocolError, WorkerCrashError
from repro.fi.campaign import Deployment, Outcome, run_campaign
from repro.fi.scenarios.base import fork_safe
from repro.obs.provenance import provenance_path
from repro.obs.report import worker_summary

from tests.unit import distributed_child as child

CHILD = str(Path(__file__).with_name("distributed_child.py"))
REPO_ROOT = Path(__file__).resolve().parents[2]


class DotApp:
    """Tiny distributed dot product — cheap, injectable, picklable.

    Mirrors test_parallel's ParityApp; defined here (module-level) so
    worker subprocesses can unpickle it — this module is importable
    from the child's script directory.
    """

    name = "dist-dot"

    def __init__(self, n: int = 64, tol: float = 1e-9):
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

    def cache_key(self) -> str:
        return f"dist-dot(n={self.n},tol={self.tol})"


# ----------------------------------------------------------------- pools


def shut_down_local_pool() -> None:
    pool = backends._POOL
    if pool is not None:
        for proc in pool.procs:
            proc.terminate()
        for proc in pool.procs:
            proc.join(timeout=10)
        pool.server.close()
        backends._POOL = None


@pytest.fixture
def fresh_local_pool():
    """A local pool that starts empty and is torn down afterwards."""
    shut_down_local_pool()
    yield
    shut_down_local_pool()


@pytest.fixture
def local_pool(fresh_local_pool):
    """An empty local pool, started before its first campaign, so a test
    can add its own members (``spawn``) with the pool's address and
    secret."""
    backends._POOL = backends._LocalPool()
    return backends._POOL


def on_pool(fn):
    """Run ``fn`` with every campaign on the local pool, at ``jobs``
    workers — even at ``jobs=1`` or one chunk, where ``select_backend``
    would run inline."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "select_backend",
                   lambda jobs, n_chunks, capture: ProcessPoolBackend(jobs))
        return fn()


def traced(trace_path: Path, fn):
    """Run ``fn`` with a globally installed trace recorder, then restore."""
    previous = obs.get_recorder()
    recorder = obs.configure(trace_path=str(trace_path))
    try:
        return fn()
    finally:
        obs.set_recorder(previous)
        recorder.close()


# Worker-lifecycle / storage events are operational — documented as
# outside the byte-identity contract (docs/distributed.md) — and
# wall-clock fields are inherently machine-dependent.  Everything else
# must match the inline backend exactly, in order.
_OPERATIONAL_TYPES = {
    "worker_joined", "worker_lost", "chunk_requeued",
    "checkpoint_written", "campaign_resumed",
    "cache_hit", "cache_miss", "cache_write", "cache_corrupt",
}
_VOLATILE_KEYS = {"ts", "duration_s", "profile_time", "injection_time"}


def stripped_events(trace_path: Path) -> list[dict]:
    events = []
    for line in trace_path.read_text().splitlines():
        blob = json.loads(line)
        if blob.get("type") in _OPERATIONAL_TYPES:
            continue
        events.append(
            {k: v for k, v in blob.items() if k not in _VOLATILE_KEYS}
        )
    return events


def assert_campaigns_identical(dist, inline) -> None:
    assert dist.joint == inline.joint
    assert list(dist.joint) == list(inline.joint)          # fold order
    assert dist.records == inline.records
    assert dist.parallel_unique_fraction == inline.parallel_unique_fraction
    assert dist.total_instructions == inline.total_instructions


# ---------------------------------------------------------------- framing


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"op": "hello", "pid": 7, "digests": []})
            assert recv_frame(b) == {"op": "hello", "pid": 7, "digests": []}

    def test_multiple_frames_in_order(self):
        a, b = socket.socketpair()
        with a, b:
            for i in range(5):
                send_frame(a, {"op": "chunk", "start": i})
            got = [recv_frame(b)["start"] for _ in range(5)]
            assert got == [0, 1, 2, 3, 4]

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        with b:
            assert recv_frame(b) is None

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", 64) + b"only-a-few-bytes")
        a.close()
        with b:
            with pytest.raises(DistributedProtocolError, match="mid-frame"):
                recv_frame(b)

    def test_oversize_length_prefix_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(DistributedProtocolError, match="frame"):
                recv_frame(b)

    def test_non_object_body_raises(self):
        a, b = socket.socketpair()
        with a, b:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(DistributedProtocolError):
                recv_frame(b)

    def test_undecodable_body_raises(self):
        a, b = socket.socketpair()
        with a, b:
            body = b"\xff\xfe not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(DistributedProtocolError):
                recv_frame(b)

    def test_frame_buffer_byte_at_a_time(self):
        body = json.dumps({"op": "ready", "warm": True}).encode()
        stream = struct.pack(">I", len(body)) + body
        buf = _FrameBuffer()
        frames = []
        for i in range(len(stream)):
            frames.extend(buf.feed(stream[i : i + 1]))
        assert frames == [{"op": "ready", "warm": True}]

    def test_frame_buffer_two_frames_one_feed(self):
        body = json.dumps({"op": "x"}).encode()
        frame = struct.pack(">I", len(body)) + body
        assert _FrameBuffer().feed(frame * 2) == [{"op": "x"}, {"op": "x"}]

    def test_frame_buffer_garbage_length(self):
        with pytest.raises(DistributedProtocolError):
            _FrameBuffer().feed(b"\xff\xff\xff\xff garbage")


# ------------------------------------------------------- backend selection


class TestBackendSpec:
    def test_select_backend_types(self):
        assert isinstance(select_backend(1, 4, False), InlineBackend)
        assert isinstance(select_backend(2, 8, False), ProcessPoolBackend)
        # one chunk has nothing to balance
        assert isinstance(select_backend(4, 1, False), InlineBackend)


# -------------------------------------------------- aggregator duplicates


def _payload(start: int, stop: int) -> ChunkPayload:
    joint = {(Outcome.SUCCESS, 0, False): stop - start}
    return ChunkPayload(start=start, stop=stop, joint=joint, records=[])


class TestAggregatorDuplicateGuard:
    def test_duplicate_of_folded_chunk_is_ignored(self):
        agg = ChunkAggregator([(0, 2), (2, 4)])
        agg.add(_payload(0, 2))
        agg.add(_payload(0, 2))                 # replayed result
        agg.add(_payload(2, 4))
        joint, _ = agg.finish()
        assert joint[(Outcome.SUCCESS, 0, False)] == 4
        assert agg.duplicate_chunks == 1

    def test_duplicate_of_buffered_chunk_is_ignored(self):
        agg = ChunkAggregator([(0, 2), (2, 4)])
        agg.add(_payload(2, 4))                 # buffered out of order
        agg.add(_payload(2, 4))                 # duplicate while pending
        assert agg.duplicate_chunks == 1
        agg.add(_payload(0, 2))
        joint, _ = agg.finish()
        assert joint[(Outcome.SUCCESS, 0, False)] == 4

    def test_unplanned_chunk_still_rejected(self):
        agg = ChunkAggregator([(0, 2)])
        with pytest.raises(ValueError):
            agg.add(_payload(5, 7))

    def test_duplicates_are_metered(self):
        recorder = obs.Recorder([obs.MemorySink()])
        agg = ChunkAggregator([(0, 2)], recorder)
        agg.add(_payload(0, 2))
        agg.add(_payload(0, 2))
        assert recorder.counters["engine.duplicate_chunks"] == 1


# ------------------------------------------------------------ obs report


class TestWorkerReport:
    def test_worker_summary_table(self):
        events = [
            obs.WorkerJoined(worker=1, pid=100, addr="127.0.0.1:5000",
                             warm=False, init_s=0.25),
            obs.WorkerJoined(worker=2, pid=101, addr="127.0.0.1:5001",
                             warm=True, init_s=0.0),
            obs.ChunkRequeued(chunk_start=4, chunk_stop=8, worker=1,
                              reason="disconnect"),
            obs.WorkerLost(worker=1, reason="disconnect", chunks_done=3),
            obs.WorkerLost(worker=2, reason="released", chunks_done=9),
        ]
        table = worker_summary(events)
        assert "Workers (2 joined)" in table
        assert "cold (250 ms)" in table
        assert "warm" in table
        assert "DISCONNECT" in table
        assert "released" in table

    def test_no_workers_means_no_table(self):
        assert worker_summary([obs.TrialFinished(
            trial=0, outcome="success", n_contaminated=0, activated=False,
            duration_s=0.0)]) is None


# ------------------------------------------------------------ differential


class TestDistributedParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_joint_and_records_match_inline(self, fresh_local_pool, workers):
        deployment = Deployment(nprocs=2, trials=30, seed=5)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        pooled = on_pool(lambda: run_campaign(
            DotApp(), deployment, keep_records=True, jobs=workers))
        assert len(backends._POOL.procs) == workers
        assert_campaigns_identical(pooled, inline)

    def test_lane_vectorized_workers_match_scalar_inline(self):
        deployment = Deployment(nprocs=2, trials=24, seed=9)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, jobs=1, lanes=1
        )
        pooled = run_campaign(
            DotApp(), deployment, keep_records=True, jobs=2, lanes=8
        )
        assert_campaigns_identical(pooled, inline)

    @pytest.mark.parametrize(
        "app_name,workers,lanes",
        [("cg", 1, 1), ("cg", 2, 1), ("cg", 4, 8), ("mg", 2, 1), ("mg", 2, 8)],
    )
    def test_trace_and_provenance_bytes_match_inline(
        self, fresh_local_pool, tmp_path, app_name, workers, lanes
    ):
        from repro.apps import get_app

        app = get_app(app_name)
        deployment = Deployment(nprocs=2, trials=12, seed=3)
        inline_trace = tmp_path / "inline.jsonl"
        pooled_trace = tmp_path / "pooled.jsonl"
        traced(inline_trace, lambda: run_campaign(app, deployment, jobs=1))
        on_pool(lambda: traced(pooled_trace, lambda: run_campaign(
            app, deployment, jobs=workers, lanes=lanes)))
        assert (
            provenance_path(pooled_trace).read_bytes()
            == provenance_path(inline_trace).read_bytes()
        )
        assert stripped_events(pooled_trace) == stripped_events(inline_trace)

    def test_warm_pool_reuse_across_campaigns(self, fresh_local_pool,
                                              monkeypatch):
        # the pool emits no join events; surface them for this test only
        real = backends.dispatch
        monkeypatch.setattr(
            backends, "dispatch",
            lambda *args, **kw: real(*args, **{**kw, "lifecycle": True}),
        )
        deployment = Deployment(nprocs=1, trials=12, seed=7)
        first_mem, second_mem = obs.MemorySink(), obs.MemorySink()
        with obs.recording(obs.Recorder([first_mem])):
            first = on_pool(lambda: run_campaign(DotApp(), deployment, jobs=1))
        with obs.recording(obs.Recorder([second_mem])):
            second = on_pool(lambda: run_campaign(DotApp(), deployment, jobs=1))
        assert second.joint == first.joint
        first_joins = first_mem.of(obs.WorkerJoined)
        second_joins = second_mem.of(obs.WorkerJoined)
        assert first_joins and not any(e.warm for e in first_joins)
        assert second_joins and all(e.warm for e in second_joins)


# ------------------------------------------------------------------ chaos


class OpenOnLoss:
    """A sink that touches ``marker`` once the controller drops a worker.

    The chaos tests start a healthy worker (``worker_after``) gated on
    the marker, so the campaign cannot finish before the controller has
    seen the misbehaving member's damage.
    """

    def __init__(self, marker: Path):
        self.marker = marker

    def write(self, event) -> None:
        if isinstance(event, obs.WorkerLost):
            self.marker.touch()

    def close(self) -> None:
        return None


def chaos_campaign(pool, tmp_path, deployment, mode, *args):
    """``deployment`` on a pool of ``mode(*args)`` and a healthy worker
    that joins once the controller has dropped a worker."""
    marker = tmp_path / "worker-lost"
    pool.spawn(mode, *args)
    pool.spawn(child.mode_worker_after, str(marker))
    mem = obs.MemorySink()
    with obs.recording(obs.Recorder([mem, OpenOnLoss(marker)])):
        pooled = run_campaign(DotApp(), deployment, keep_records=True, jobs=2)
    return pooled, mem


def lost(mem: obs.MemorySink, reason: str) -> list:
    return [e for e in mem.of(obs.WorkerLost) if e.reason == reason]


class TestDistributedChaos:
    def test_worker_death_mid_campaign_completes_identically(
        self, local_pool, tmp_path
    ):
        # four chunks at jobs=2: two results cannot finish the campaign,
        # so the controller must read the quitter's EOF before the
        # healthy worker joins
        deployment = Deployment(nprocs=1, trials=120, seed=2)
        assert len(plan_chunks(deployment.trials, 2)) >= 3
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        pooled, mem = chaos_campaign(
            local_pool, tmp_path, deployment, child.mode_quit_after, 2
        )
        assert_campaigns_identical(pooled, inline)
        assert lost(mem, "disconnect")

    def test_sigkilled_worker_chunk_requeued_via_disconnect(
        self, local_pool, tmp_path
    ):
        deployment = Deployment(nprocs=1, trials=30, seed=4)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        # SIGKILLed holding a chunk: its EOF requeues the chunk, no
        # deadline involved
        pooled, mem = chaos_campaign(
            local_pool, tmp_path, deployment, child.mode_stall, "kill"
        )
        assert_campaigns_identical(pooled, inline)
        assert mem.of(obs.ChunkRequeued)
        assert lost(mem, "disconnect")

    def test_stalled_worker_times_out_and_chunk_requeues(
        self, local_pool, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DIST_CHUNK_TIMEOUT", "2.0")
        deployment = Deployment(nprocs=1, trials=30, seed=8)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        pooled, mem = chaos_campaign(
            local_pool, tmp_path, deployment, child.mode_stall
        )
        assert_campaigns_identical(pooled, inline)
        assert mem.of(obs.ChunkRequeued)
        assert lost(mem, "timeout")

    def test_garbage_frame_drops_worker_and_completes(
        self, local_pool, tmp_path
    ):
        deployment = Deployment(nprocs=1, trials=20, seed=6)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        pooled, mem = chaos_campaign(
            local_pool, tmp_path, deployment, child.mode_garbage
        )
        assert_campaigns_identical(pooled, inline)
        assert lost(mem, "protocol")

    def test_no_workers_is_a_typed_error_not_a_hang(self, local_pool,
                                                    monkeypatch):
        # pool processes alive but never connecting: the worker timeout
        monkeypatch.setenv("REPRO_DIST_WORKER_TIMEOUT", "0.5")
        local_pool.spawn(child.mode_idle)
        local_pool.spawn(child.mode_idle)
        started = time.monotonic()
        with pytest.raises(WorkerCrashError, match="no worker connected"):
            run_campaign(DotApp(), Deployment(nprocs=1, trials=6, seed=1),
                         jobs=2)
        assert time.monotonic() - started < 30.0
        assert all(proc.is_alive() for proc in local_pool.procs)

    def test_dead_pool_is_a_typed_error_at_once(self, local_pool,
                                                monkeypatch):
        # every pool process dead: failed on liveness, long before the
        # worker timeout
        monkeypatch.setenv("REPRO_DIST_WORKER_TIMEOUT", "600")
        local_pool.spawn(child.mode_quit_after, 0)
        local_pool.spawn(child.mode_quit_after, 0)
        started = time.monotonic()
        with pytest.raises(WorkerCrashError, match="every worker process died"):
            run_campaign(DotApp(), Deployment(nprocs=1, trials=6, seed=1),
                         jobs=2)
        assert time.monotonic() - started < 60.0

    def test_interrupt_then_resume_is_byte_identical(self, local_pool,
                                                     tmp_path):
        deployment = Deployment(nprocs=2, trials=20, seed=6)
        clean_trace = tmp_path / "clean.jsonl"
        resumed_trace = tmp_path / "resumed.jsonl"
        traced(clean_trace,
               lambda: run_campaign(DotApp(), deployment, jobs=1))

        # Interrupted attempt: both pool members die after one chunk
        # each, and the campaign fails at once with those chunks durable.
        local_pool.spawn(child.mode_quit_after, 1)
        local_pool.spawn(child.mode_quit_after, 1)
        with pytest.raises(WorkerCrashError):
            run_campaign(DotApp(), deployment, jobs=2, checkpoint_every=5)

        # Resume: the pool replaces its dead members with healthy
        # workers; recovered chunks replay their events, fresh chunks
        # fill in the rest, bytes match the clean uninterrupted run.
        traced(
            resumed_trace,
            lambda: run_campaign(
                DotApp(), deployment, jobs=2, checkpoint_every=5, resume=True,
            ),
        )
        assert (
            provenance_path(resumed_trace).read_bytes()
            == provenance_path(clean_trace).read_bytes()
        )
        assert stripped_events(resumed_trace) == stripped_events(clean_trace)


# ------------------------------------------------------------- warm cache


def engine_ctx(seed: int) -> EngineContext:
    from repro.fi.scenarios.base import fault_free_run

    app = DotApp()
    deployment = Deployment(nprocs=1, trials=4, seed=seed)
    return EngineContext(
        app=app, deployment=deployment,
        golden=fault_free_run(app, deployment.nprocs),
        keep_records=True, obs_enabled=False,
    )


def serve_in_thread(ctx: EngineContext) -> tuple[bool, ChunkPayload]:
    """One campaign against an in-process worker session.

    Returns whether the worker joined warm, and its one payload.  Safe
    on a thread: the controller emits only while the worker is idle.
    """
    mem = obs.MemorySink()
    with socket.create_server(("127.0.0.1", 0)) as server:
        def work():
            with socket.create_connection(server.getsockname()[:2]) as sock:
                _serve_session(sock)

        worker = threading.Thread(target=work)
        worker.start()
        with obs.recording(obs.Recorder([mem])):
            (payload,) = dispatch(server, ctx, [(0, 4)], itertools.count(1))
        worker.join(timeout=30)
    assert not worker.is_alive()
    (joined,) = mem.of(obs.WorkerJoined)
    return joined.warm, payload


class TestWarmCache:
    def test_worker_keeps_only_the_most_recent_contexts(self, monkeypatch):
        monkeypatch.setattr(distributed, "_WARM", distributed.OrderedDict())
        ctxs = [engine_ctx(seed) for seed in range(WARM_LIMIT + 1)]
        warm, first = serve_in_thread(ctxs[0])
        assert not warm
        assert serve_in_thread(ctxs[0])[0]          # held: warm rejoin
        for ctx in ctxs[1:]:
            serve_in_thread(ctx)
        assert len(distributed._WARM) == WARM_LIMIT
        # ctxs[0] was least recently used: evicted, so a cold init that
        # computes the same payload
        warm, again = serve_in_thread(ctxs[0])
        assert not warm
        assert (again.joint, again.records) == (first.joint, first.records)
        assert serve_in_thread(ctxs[-1])[0]          # still held


class TestDistributedBackend:
    def test_python_worker_session_matches_inline(self):
        ctx = engine_ctx(3)
        (want,) = InlineBackend(capture=True).run(ctx, [(0, 4)])
        backend = DistributedBackend()

        def work():
            while backend.address is None:    # bound on first next()
                time.sleep(0.01)
            with socket.create_connection(backend.address) as sock:
                _serve_session(sock)

        worker = threading.Thread(target=work)
        worker.start()
        with obs.recording(obs.Recorder([obs.MemorySink()])):
            (got,) = backend.run(ctx, [(0, 4)])
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert (got.joint, got.records) == (want.joint, want.records)


# ------------------------------------------------------------- local pool


class BarrierApp(DotApp):
    """Holds every worker-side trial until ``parties`` workers arrive.

    Each worker process touches a file named after its pid in
    ``barrier_dir``; trials proceed once ``parties`` files exist.  The
    driver process (profiling pass, inline runs) never waits.
    """

    name = "dist-barrier"

    def __init__(self, barrier_dir: Path, parties: int):
        super().__init__()
        self.barrier_dir = str(barrier_dir)
        self.parties = parties
        self.parent_pid = os.getpid()

    def program(self, rank, size, comm, fp):
        if os.getpid() != self.parent_pid:
            Path(self.barrier_dir, str(os.getpid())).touch()
            deadline = time.monotonic() + 60.0
            while (len(os.listdir(self.barrier_dir)) < self.parties
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        return super().program(rank, size, comm, fp)


def trace_events(trace_path: Path, kind: str) -> list[dict]:
    return [
        blob for blob in map(json.loads, trace_path.read_text().splitlines())
        if blob.get("type") == kind
    ]


def alive_pid(pid: int) -> bool:
    """Running (not a zombie) per /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestLocalPool:
    def test_pool_outlives_campaigns_and_rejoins_warm(
        self, fresh_local_pool, tmp_path, monkeypatch
    ):
        # the pool emits no join events; surface them for this test only
        real = backends.dispatch
        monkeypatch.setattr(
            backends, "dispatch",
            lambda *args, **kw: real(*args, **{**kw, "lifecycle": True}),
        )
        barrier = tmp_path / "barrier"
        barrier.mkdir()
        first = (BarrierApp(barrier, parties=2),
                 Deployment(nprocs=2, trials=24, seed=11))
        second = (DotApp(), Deployment(nprocs=2, trials=24, seed=12))
        joins, pids = [], []
        for k, (app, deployment) in enumerate([first, second, first]):
            pooled_trace = tmp_path / f"pooled-{k}.jsonl"
            inline_trace = tmp_path / f"inline-{k}.jsonl"
            pooled = traced(pooled_trace, lambda: run_campaign(
                app, deployment, keep_records=True, jobs=2))
            inline = traced(inline_trace, lambda: run_campaign(
                app, deployment, keep_records=True, jobs=1))
            assert_campaigns_identical(pooled, inline)
            assert (provenance_path(pooled_trace).read_bytes()
                    == provenance_path(inline_trace).read_bytes())
            assert (stripped_events(pooled_trace)
                    == stripped_events(inline_trace))
            joined = trace_events(pooled_trace, "worker_joined")
            joins.append([(e["pid"], e["warm"]) for e in joined])
            pids.append([proc.pid for proc in backends._POOL.procs])
        # one pool of two workers served all three campaigns
        assert len(pids[0]) == 2 and pids[0] == pids[1] == pids[2]
        # the barrier made both workers serve the first campaign
        assert {pid for pid, _ in joins[0]} == set(pids[0])
        assert not any(warm for _, warm in joins[0])
        assert {pid for pid, _ in joins[1]} <= set(pids[0])
        # repeating the first deployment: every worker already holds it
        assert joins[2] and all(warm for _, warm in joins[2])

    def test_nominal_campaign_emits_no_worker_telemetry(self):
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as rec:
            run_campaign(DotApp(), Deployment(nprocs=1, trials=12, seed=3),
                         jobs=2)
        assert not any(
            isinstance(e, (obs.WorkerJoined, obs.WorkerLost,
                           obs.ChunkRequeued))
            for e in mem.events
        )
        assert not [k for k in rec.counters if k.startswith("distributed.")]
        assert "distributed.init_s" not in rec.histograms

    def test_unauthenticated_connection_is_dropped_unread(self, tmp_path):
        deployment = Deployment(nprocs=1, trials=20, seed=6)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        run_campaign(DotApp(), deployment, jobs=2)       # start the pool
        # a well-formed hello without the secret, then a result frame
        # whose payload would touch ``tripwire`` if it were unpickled
        tripwire = tmp_path / "unpickled"
        intruder = socket.create_connection(
            backends._POOL.server.getsockname()[:2]
        )
        with intruder:
            send_frame(intruder, {"op": "hello", "pid": 1, "digests": []})
            send_frame(intruder, {
                "op": "result", "start": 0, "stop": 3,
                "payload": _pickle_b64(Tripwire(str(tripwire))),
            })
            mem = obs.MemorySink()
            with obs.recording(obs.Recorder([mem])):
                pooled = run_campaign(
                    DotApp(), deployment, keep_records=True, jobs=2
                )
            intruder.settimeout(30)
            assert intruder.recv(1 << 16) == b""        # dropped, no init
        assert_campaigns_identical(pooled, inline)
        assert [e.reason for e in mem.of(obs.WorkerLost)] == ["protocol"]
        assert not tripwire.exists()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="needs /proc")
    # the fork cases keep the ids they had before members were forked
    @pytest.mark.parametrize("how, method", [
        ("exit", "fork"), ("kill", "fork"), ("exit", "spawn"), ("kill", "spawn"),
    ], ids=["exit", "kill", "exit-spawn", "kill-spawn"])
    def test_workers_exit_with_their_driver(self, how, method):
        env = dict(os.environ, REPRO_CACHE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        driver = subprocess.Popen(
            [sys.executable, CHILD, "pool-driver", method],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            workers = json.loads(driver.stdout.readline())
            pids = [pid for pid, _ in workers]
            assert {kind for _, kind in workers} == {PROCESS_CLASS[method]}
            assert len(pids) == 2 and all(map(alive_pid, pids))
            if how == "kill":
                driver.kill()
            driver.stdin.close()                # "exit": the driver returns
            driver.wait(timeout=60)
        finally:
            driver.kill()
            driver.stdout.close()
        deadline = time.monotonic() + 30.0
        while any(map(alive_pid, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive_pid, pids))

    def test_members_fork_unless_a_thread_is_alive(self, fresh_local_pool):
        deployment = Deployment(nprocs=1, trials=8, seed=2)
        assert fork_safe()
        run_campaign(DotApp(), deployment, jobs=2)
        assert all(isinstance(proc, ForkProcess)
                   for proc in backends._POOL.procs)
        shut_down_local_pool()
        with live_thread():
            assert not fork_safe()
            run_campaign(DotApp(), deployment, jobs=2)
        assert len(backends._POOL.procs) == 2
        assert all(isinstance(proc, SpawnProcess)
                   for proc in backends._POOL.procs)

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                        reason="needs /proc")
    def test_forked_member_holds_no_listener(self, fresh_local_pool, tmp_path):
        # the barrier makes both members serve, so both have shed
        run_campaign(BarrierApp(tmp_path, parties=2),
                     Deployment(nprocs=2, trials=24, seed=4), jobs=2)
        pool = backends._POOL
        listener = f"socket:[{os.fstat(pool.server.fileno()).st_ino}]"
        for proc in pool.procs:
            assert isinstance(proc, ForkProcess)
            fds = Path(f"/proc/{proc.pid}/fd")
            assert listener not in {os.readlink(fd) for fd in fds.iterdir()}

    def test_pool_start_after_buffered_events_writes_each_line_once(
        self, fresh_local_pool, tmp_path
    ):
        first = Deployment(nprocs=2, trials=10, seed=8)
        second = Deployment(nprocs=2, trials=12, seed=9)
        streams = {}
        for jobs in (1, 2):
            trace = tmp_path / f"jobs{jobs}.jsonl"
            # the first campaign's lines sit in the sink's buffer when
            # the second campaign forks the pool
            previous = obs.set_recorder(obs.Recorder([obs.JsonlSink(trace)]))
            try:
                run_campaign(DotApp(), first, jobs=1)
                run_campaign(DotApp(), second, jobs=jobs)
                shut_down_local_pool()           # members exit
            finally:
                obs.set_recorder(previous).close()
            streams[jobs] = stripped_events(trace)
        assert streams[2] == streams[1]

    def test_forked_member_never_flushes_the_drivers_sinks(
        self, local_pool, tmp_path
    ):
        trace = tmp_path / "driver.jsonl"
        # the global slot holds the only reference to the recorder, whose
        # sink buffers the line while the members fork (in a campaign the
        # driver's frames hold it too)
        previous = obs.set_recorder(obs.Recorder([obs.JsonlSink(trace)]))
        try:
            obs.get_recorder().emit(obs.CacheMiss(path="entry"))
            local_pool.ensure(2)
            local_pool.server.settimeout(30)
            for _ in range(2):          # a member connects once it has shed
                local_pool.server.accept()[0].close()
            shut_down_local_pool()
        finally:
            obs.set_recorder(previous).close()
        assert len(trace.read_text().splitlines()) == 1

    def test_spawned_members_match_inline(self, fresh_local_pool, tmp_path):
        deployment = Deployment(nprocs=2, trials=24, seed=10)
        inline_trace = tmp_path / "inline.jsonl"
        pooled_trace = tmp_path / "pooled.jsonl"
        with live_thread():
            inline = traced(inline_trace, lambda: run_campaign(
                DotApp(), deployment, keep_records=True, jobs=1))
            pooled = traced(pooled_trace, lambda: run_campaign(
                DotApp(), deployment, keep_records=True, jobs=2))
        assert all(isinstance(proc, SpawnProcess)
                   for proc in backends._POOL.procs)
        assert_campaigns_identical(pooled, inline)
        assert (provenance_path(pooled_trace).read_bytes()
                == provenance_path(inline_trace).read_bytes())
        assert stripped_events(pooled_trace) == stripped_events(inline_trace)


PROCESS_CLASS = {"fork": "ForkProcess", "spawn": "SpawnProcess"}


@contextlib.contextmanager
def live_thread():
    """A second Python thread, alive for the block (``fork_safe()`` false)."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


class Tripwire:
    """Touches ``path`` when unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))
