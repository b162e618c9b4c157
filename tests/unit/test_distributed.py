"""Differential + chaos tests for the distributed campaign backend.

Three layers:

* Wire-level unit tests for the length-prefixed JSON framing
  (``socketpair`` — no subprocesses).
* Backend-selection tests: ``canonical_backend`` spec parsing and the
  aggregator's duplicate-chunk guard (the ``backend`` knob's precedence
  and CLI relay are checked with every other knob in test_knobs.py).
* Differential/chaos tests that spawn *real* worker subprocesses
  (``distributed_child.py``) and assert the distributed backend's
  results — joints, records, provenance bytes, filtered event streams —
  are identical to ``InlineBackend``'s, under healthy pools and under
  worker death, stalls, garbage frames, and interrupt/resume.

* Local-pool tests: ``--jobs`` campaigns run on the same controller
  loop against loopback workers that live as long as the process —
  pool lifetime, authentication, and exit with the driver.

Workers must be subprocesses, never threads: ``execute_chunk`` swaps
the *process-global* recorder while a chunk runs, so an in-process
worker would race the driver's recorder.  (The warm-cache test is the
one exception: it drives a worker session whose controller emits
nothing while a chunk runs.)
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
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
    canonical_backend,
    planning_jobs,
    select_backend,
)
from repro.engine.chunks import EngineContext
import repro.engine.backends as backends
import repro.engine.distributed as distributed
from repro.engine.distributed import (
    MAX_FRAME_BYTES,
    WARM_LIMIT,
    _controller_address,
    _FrameBuffer,
    _pickle_b64,
    _serve_session,
    dispatch,
    recv_frame,
    send_frame,
    worker_main,
)
from repro.errors import (
    ConfigurationError,
    DistributedProtocolError,
    WorkerCrashError,
)
from repro.fi.campaign import Deployment, Outcome, run_campaign
from repro.knobs import env_value
from repro.obs.provenance import provenance_path
from repro.obs.report import worker_summary

CHILD = str(Path(__file__).with_name("distributed_child.py"))
REPO_ROOT = Path(__file__).resolve().parents[2]
DIST = "distributed:127.0.0.1:0"


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


class WorkerPool:
    """Spawns distributed_child.py subprocesses sharing one port file."""

    def __init__(self, tmp_path: Path):
        self.port_file = tmp_path / "controller.port"
        self.tmp = tmp_path
        self.procs: list[subprocess.Popen] = []

    def spawn(self, *args: str) -> subprocess.Popen:
        log = open(self.tmp / f"child-{len(self.procs)}.log", "w")
        # Children must import both the package (src/) and this module
        # itself — pytest pickles DotApp as tests.unit.test_distributed,
        # so the repo root has to be importable in the worker too.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([
            str(REPO_ROOT / "src"), str(REPO_ROOT),
            *filter(None, [env.get("PYTHONPATH")]),
        ])
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args],
            stdout=subprocess.DEVNULL,
            stderr=log,
            env=env,
        )
        proc._log = log  # type: ignore[attr-defined]
        self.procs.append(proc)
        return proc

    def workers(self, n: int, timeout: float = 60.0) -> None:
        for _ in range(n):
            self.spawn(
                "worker", "--port-file", str(self.port_file),
                "--timeout", str(timeout),
            )

    def logs(self) -> str:
        chunks = []
        for i in range(len(self.procs)):
            path = self.tmp / f"child-{i}.log"
            if path.exists():
                chunks.append(f"--- child {i} ---\n{path.read_text()}")
        return "\n".join(chunks)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait(timeout=10)
            proc._log.close()  # type: ignore[attr-defined]


@pytest.fixture
def pool(tmp_path, monkeypatch):
    p = WorkerPool(tmp_path)
    monkeypatch.setenv("REPRO_DIST_PORT_FILE", str(p.port_file))
    yield p
    p.close()


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
    def test_canonical_forms(self):
        assert canonical_backend("inline") == "inline"
        assert canonical_backend("process") == "process"
        assert canonical_backend("pool") == "process"
        assert canonical_backend(" Inline ") == "inline"
        assert canonical_backend(None) is None

    def test_distributed_spec(self):
        assert (
            canonical_backend("distributed:127.0.0.1:9000")
            == "distributed:127.0.0.1:9000"
        )

    @pytest.mark.parametrize(
        "spec",
        ["bogus", "distributed", "distributed:", "distributed:host:nope",
         "distributed:host:-1", ""],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            canonical_backend(spec)

    def test_planning_jobs_floors_distributed(self):
        assert planning_jobs("distributed:127.0.0.1:0", 1) == 4
        assert planning_jobs("distributed:127.0.0.1:0", 8) == 8
        assert planning_jobs("inline", 1) == 1
        assert planning_jobs(None, 3) == 3

    def test_select_backend_types(self):
        assert isinstance(
            select_backend(1, 4, False, "inline"), InlineBackend
        )
        assert isinstance(
            select_backend(2, 8, False, "process"), ProcessPoolBackend
        )
        backend = select_backend(1, 4, False, "distributed:127.0.0.1:7001")
        assert isinstance(backend, DistributedBackend)
        assert (backend.host, backend.port) == ("127.0.0.1", 7001)
        # explicit spec overrides the pool heuristic
        assert isinstance(select_backend(4, 8, False, "inline"), InlineBackend)

    def test_deployment_field_is_canonicalized(self):
        dep = Deployment(nprocs=2, trials=4, backend="pool")
        assert dep.backend == "process"
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=2, trials=4, backend="warp-drive")

    def test_env_default_and_malformed_warning(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert env_value("backend") is None
        monkeypatch.setenv("REPRO_BACKEND", "pool")
        assert env_value("backend") == "process"
        monkeypatch.setenv("REPRO_BACKEND", "warp-drive")
        assert env_value("backend") is None
        assert "REPRO_BACKEND" in capsys.readouterr().err


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


# ------------------------------------------------------------- worker CLI


class TestWorkerCLI:
    def test_requires_an_address_or_port_file(self):
        with pytest.raises(SystemExit):
            worker_main([])

    def test_times_out_without_a_controller(self, tmp_path):
        started = time.monotonic()
        rc = worker_main(
            ["--port-file", str(tmp_path / "never-written"), "--timeout", "0.3"]
        )
        assert rc == 0
        assert time.monotonic() - started < 10.0

    def test_resolve_address_forms(self, tmp_path):
        ns = argparse.Namespace(address="10.0.0.1:7002", port_file=None)
        assert _controller_address(ns) == ("10.0.0.1", 7002)
        port_file = tmp_path / "port"
        port_file.write_text("127.0.0.1:7003\n")
        ns = argparse.Namespace(address=None, port_file=str(port_file))
        assert _controller_address(ns) == ("127.0.0.1", 7003)
        ns = argparse.Namespace(address=None, port_file=str(tmp_path / "no"))
        assert _controller_address(ns) is None
        ns = argparse.Namespace(address="not-an-address", port_file=None)
        assert _controller_address(ns) is None

    def test_controller_publishes_port_file(self, tmp_path, monkeypatch):
        port_file = tmp_path / "port"
        monkeypatch.setenv("REPRO_DIST_PORT_FILE", str(port_file))
        backend = DistributedBackend()
        ctx = EngineContext(
            app=DotApp(), deployment=None, profile=None, reference={},
            keep_records=False, obs_enabled=False,
        )
        assert list(backend.run(ctx, [])) == []
        host, _, port = port_file.read_text().strip().rpartition(":")
        assert host == "127.0.0.1"
        assert int(port) == backend.address[1]


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
    def test_joint_and_records_match_inline(self, pool, workers):
        deployment = Deployment(nprocs=2, trials=30, seed=5)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        pool.workers(workers)
        dist = run_campaign(
            DotApp(), deployment, keep_records=True, backend=DIST
        )
        assert_campaigns_identical(dist, inline)

    def test_three_backends_agree(self, pool):
        """Inline, ProcessPool and Distributed: one deployment, one answer."""
        deployment = Deployment(nprocs=2, trials=30, seed=5)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        pooled = run_campaign(
            DotApp(), deployment, keep_records=True, backend="process", jobs=2
        )
        pool.workers(2)
        dist = run_campaign(
            DotApp(), deployment, keep_records=True, backend=DIST
        )
        assert_campaigns_identical(pooled, inline)
        assert_campaigns_identical(dist, inline)

    def test_lane_vectorized_workers_match_scalar_inline(self, pool):
        deployment = Deployment(nprocs=2, trials=24, seed=9)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        pool.workers(2)
        dist = run_campaign(
            DotApp(), deployment, keep_records=True, backend=DIST, lanes=8
        )
        assert_campaigns_identical(dist, inline)

    @pytest.mark.parametrize(
        "app_name,workers,lanes",
        [("cg", 1, 1), ("cg", 2, 1), ("cg", 4, 8), ("mg", 2, 1), ("mg", 2, 8)],
    )
    def test_trace_and_provenance_bytes_match_inline(
        self, pool, tmp_path, app_name, workers, lanes
    ):
        from repro.apps import get_app

        app = get_app(app_name)
        deployment = Deployment(nprocs=2, trials=12, seed=3)
        inline_trace = tmp_path / "inline.jsonl"
        dist_trace = tmp_path / "dist.jsonl"
        traced(inline_trace,
               lambda: run_campaign(app, deployment, backend="inline"))
        pool.workers(workers)
        traced(dist_trace,
               lambda: run_campaign(app, deployment, backend=DIST,
                                    lanes=lanes))
        assert (
            provenance_path(dist_trace).read_bytes()
            == provenance_path(inline_trace).read_bytes()
        ), pool.logs()
        assert stripped_events(dist_trace) == stripped_events(inline_trace)

    def test_warm_pool_reuse_across_campaigns(self, pool):
        deployment = Deployment(nprocs=1, trials=12, seed=7)
        pool.workers(1)
        first_mem, second_mem = obs.MemorySink(), obs.MemorySink()
        with obs.recording(obs.Recorder([first_mem])):
            first = run_campaign(DotApp(), deployment, backend=DIST)
        with obs.recording(obs.Recorder([second_mem])):
            second = run_campaign(DotApp(), deployment, backend=DIST)
        assert second.joint == first.joint
        first_joins = first_mem.of(obs.WorkerJoined)
        second_joins = second_mem.of(obs.WorkerJoined)
        assert first_joins and not any(e.warm for e in first_joins)
        assert second_joins and all(e.warm for e in second_joins), pool.logs()


# ------------------------------------------------------------------ chaos


def after(event, action) -> threading.Thread:
    """Run ``action`` on a thread once ``event()`` returns.

    The chaos tests order their children through process exits and
    marker files, not sleeps: the healthy worker starts only after the
    misbehaving child has done its damage, so the campaign cannot
    finish before the controller has seen it.
    """
    thread = threading.Thread(target=lambda: (event(), action()), daemon=True)
    thread.start()
    return thread


def wait_for_file(path: Path, budget: float = 60.0) -> None:
    deadline = time.monotonic() + budget
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestDistributedChaos:
    def test_worker_death_mid_campaign_completes_identically(self, pool):
        deployment = Deployment(nprocs=1, trials=40, seed=2)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        # The quitter is alone until it has died, so its two results
        # cannot finish the campaign: the controller must read its EOF.
        quitter = pool.spawn("quit-after", "2", str(pool.port_file))
        after(quitter.wait, lambda: pool.workers(1))
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            dist = run_campaign(
                DotApp(), deployment, keep_records=True, backend=DIST
            )
        assert_campaigns_identical(dist, inline)
        lost = [e for e in mem.of(obs.WorkerLost) if e.reason == "disconnect"]
        assert lost, pool.logs()

    def test_sigkilled_worker_chunk_requeued_via_disconnect(
        self, pool, tmp_path
    ):
        deployment = Deployment(nprocs=1, trials=30, seed=4)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        # The stall child takes a chunk and touches the marker; only
        # then is it SIGKILLed, and only after its death does a healthy
        # worker start.  Its EOF must requeue the chunk, no deadline
        # involved.
        marker = tmp_path / "stalled"
        stalled = pool.spawn("stall", str(pool.port_file), str(marker))

        def kill_then_replace():
            stalled.kill()
            stalled.wait()
            pool.workers(1)

        after(lambda: wait_for_file(marker), kill_then_replace)
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            dist = run_campaign(
                DotApp(), deployment, keep_records=True, backend=DIST
            )
        assert_campaigns_identical(dist, inline)
        assert mem.of(obs.ChunkRequeued), pool.logs()
        lost = [e for e in mem.of(obs.WorkerLost) if e.reason == "disconnect"]
        assert lost, pool.logs()

    def test_stalled_worker_times_out_and_chunk_requeues(
        self, pool, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DIST_CHUNK_TIMEOUT", "2.0")
        deployment = Deployment(nprocs=1, trials=30, seed=8)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        # the stall child exits once the controller drops it
        stalled = pool.spawn("stall", str(pool.port_file))
        after(stalled.wait, lambda: pool.workers(1))
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            dist = run_campaign(
                DotApp(), deployment, keep_records=True, backend=DIST
            )
        assert_campaigns_identical(dist, inline)
        assert mem.of(obs.ChunkRequeued), pool.logs()
        lost = [e for e in mem.of(obs.WorkerLost) if e.reason == "timeout"]
        assert lost, pool.logs()

    def test_garbage_frame_drops_worker_and_completes(self, pool):
        deployment = Deployment(nprocs=1, trials=20, seed=6)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
        # the garbage child exits once the controller drops it
        garbage = pool.spawn("garbage", str(pool.port_file))
        after(garbage.wait, lambda: pool.workers(1))
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            dist = run_campaign(
                DotApp(), deployment, keep_records=True, backend=DIST
            )
        assert_campaigns_identical(dist, inline)
        lost = [e for e in mem.of(obs.WorkerLost) if e.reason == "protocol"]
        assert lost, pool.logs()

    def test_no_workers_is_a_typed_error_not_a_hang(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_DIST_WORKER_TIMEOUT", "0.5")
        monkeypatch.setenv(
            "REPRO_DIST_PORT_FILE", str(tmp_path / "port")
        )
        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            run_campaign(
                DotApp(), Deployment(nprocs=1, trials=6, seed=1),
                backend=DIST,
            )
        assert time.monotonic() - started < 30.0

    def test_interrupt_then_resume_is_byte_identical(
        self, pool, tmp_path, monkeypatch
    ):
        deployment = Deployment(nprocs=2, trials=20, seed=6)
        clean_trace = tmp_path / "clean.jsonl"
        resumed_trace = tmp_path / "resumed.jsonl"
        traced(clean_trace,
               lambda: run_campaign(DotApp(), deployment, backend="inline"))

        # Interrupted attempt: the only worker dies after two chunks and
        # the controller gives up fast.  Two chunks are durable.
        monkeypatch.setenv("REPRO_DIST_WORKER_TIMEOUT", "0.75")
        pool.spawn("quit-after", "2", str(pool.port_file))
        with pytest.raises(WorkerCrashError):
            run_campaign(
                DotApp(), deployment, backend=DIST, checkpoint_every=5
            )

        # Resume with a healthy pool: recovered chunks replay their
        # events, fresh chunks fill in the rest, bytes match the clean
        # uninterrupted inline run.
        monkeypatch.setenv("REPRO_DIST_WORKER_TIMEOUT", "120")
        pool.workers(2)
        traced(
            resumed_trace,
            lambda: run_campaign(
                DotApp(), deployment, backend=DIST,
                checkpoint_every=5, resume=True,
            ),
        )
        assert (
            provenance_path(resumed_trace).read_bytes()
            == provenance_path(clean_trace).read_bytes()
        ), pool.logs()
        assert stripped_events(resumed_trace) == stripped_events(clean_trace)


# ------------------------------------------------------------- warm cache


def engine_ctx(seed: int) -> EngineContext:
    from repro.fi.tracer import Tracer, TracerMode
    from repro.mpisim.runner import execute_spmd

    app = DotApp()
    deployment = Deployment(nprocs=1, trials=4, seed=seed)
    tracer = Tracer(TracerMode.PROFILE)
    outputs = execute_spmd(app.program, deployment.nprocs, sink=tracer)
    return EngineContext(
        app=app, deployment=deployment, profile=tracer.profile,
        reference=outputs[0], keep_records=True, obs_enabled=False,
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


# ------------------------------------------------------------- local pool


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

    def test_pool_never_touches_the_distributed_port_file(
        self, tmp_path, monkeypatch
    ):
        port_file = tmp_path / "controller.port"
        port_file.write_text("127.0.0.1:1\n")   # nothing listens there
        monkeypatch.setenv("REPRO_DIST_PORT_FILE", str(port_file))
        deployment = Deployment(nprocs=1, trials=12, seed=3)
        pooled = run_campaign(DotApp(), deployment, keep_records=True, jobs=2)
        inline = run_campaign(DotApp(), deployment, keep_records=True, jobs=1)
        assert_campaigns_identical(pooled, inline)
        assert port_file.read_text() == "127.0.0.1:1\n"

    def test_unauthenticated_connection_is_dropped_unread(self, tmp_path):
        deployment = Deployment(nprocs=1, trials=20, seed=6)
        inline = run_campaign(
            DotApp(), deployment, keep_records=True, backend="inline"
        )
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
    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_workers_exit_with_their_driver(self, how):
        env = dict(os.environ, REPRO_CACHE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        driver = subprocess.Popen(
            [sys.executable, CHILD, "pool-driver"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            pids = json.loads(driver.stdout.readline())
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


class Tripwire:
    """Touches ``path`` when unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))
