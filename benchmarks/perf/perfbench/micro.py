"""Per-layer microbenchmarks with fixed inputs, reported in µs per call.

Each bench calls one public function of one layer on inputs built once
from fixed seeds and sized like CG at 4 ranks (64-row local blocks,
48 non-zeros per row).  After a warm-up the call count per batch is
calibrated to a target batch time, then at least seven batches are
timed; the result is the median and quartiles of µs per call.

``micro.taint.laneops.*.k1`` against ``micro.taint.ops.*`` measures what
one-lane batching costs over the scalar ops.
"""

from __future__ import annotations

import contextlib
import socket
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from perfbench.stats import summarize

__all__ = ["run_micro", "MICRO_WORKLOAD"]

#: the workload each microbenched layer dominates
MICRO_WORKLOAD = {
    "micro.taint.ops.": "cg-scalar",
    "micro.taint.laneops.": "cg-lanes32",
    "micro.mpisim.": "mg16-sysfault",
    "micro.fi.plan.": "cg-scalar",
    "micro.engine.": "sweep-jobs2",
}

VECTOR = 64
ROWS, COLS, NNZ_PER_ROW = 64, 256, 48
LANE_COUNTS = (1, 8, 32)
MPI_ROUNDS = 20


def _time(fn: Callable[[], object], batches: int, target_s: float, per_call: int) -> dict:
    """µs per operation over ``batches`` calibrated batches of ``fn``."""
    fn()
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= target_s / 4 or calls >= 1 << 20:
            break
        calls *= 2
    calls = max(1, round(calls * target_s / max(elapsed, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) * 1e6 / (calls * per_call))
    return summarize(samples)


def _taint_benches() -> dict[str, tuple[Callable, int]]:
    from repro.fi.lanes import BatchTracer
    from repro.fi.plan import InjectionPlan
    from repro.fi.tracer import Tracer, TracerMode
    from repro.taint.laneops import LaneFPOps
    from repro.taint.ops import FPOps
    from repro.taint.tarray import TArray

    rng = np.random.default_rng(7)
    g = rng.standard_normal(VECTOR)
    other = TArray(rng.standard_normal(VECTOR))
    # one diverged operand: the shadow work a contaminated rank does
    diverged = TArray(g, g * (1 + 1e-9))
    fp = FPOps(Tracer(TracerMode.INJECT, InjectionPlan(flips=())), rank=0)
    data = rng.standard_normal(ROWS * NNZ_PER_ROW)
    indices = np.sort(
        rng.integers(0, COLS, size=(ROWS, NNZ_PER_ROW)), axis=1
    ).reshape(-1)
    indptr = np.arange(0, ROWS * NNZ_PER_ROW + 1, NNZ_PER_ROW)
    xg = rng.standard_normal(COLS)
    x = TArray(xg, xg * (1 + 1e-9))
    benches = {
        "micro.taint.ops.add_us": (lambda: fp.add(diverged, other), 1),
        "micro.taint.ops.dot_us": (lambda: fp.dot(diverged, other), 1),
        "micro.taint.ops.csr_matvec_us": (
            lambda: fp.csr_matvec(data, indices, indptr, x), 1),
    }
    for k in LANE_COUNTS:
        batch = BatchTracer([InjectionPlan(flips=())] * k)
        lane_fp = LaneFPOps(batch, 0, batch)
        fstack = g[np.newaxis] * (1 + 1e-9 * np.arange(1, k + 1))[:, np.newaxis]
        lanes = TArray.batched(g, fstack, None, batch, candidates=np.arange(k))

        def add(lane_fp=lane_fp, lanes=lanes):
            return lane_fp.add(lanes, other)

        def dot(lane_fp=lane_fp, lanes=lanes):
            return lane_fp.dot(lanes, other)

        benches[f"micro.taint.laneops.add_us.k{k}"] = (add, 1)
        benches[f"micro.taint.laneops.dot_us.k{k}"] = (dot, 1)
    return benches


def _mpisim_benches() -> dict[str, tuple[Callable, int]]:
    from repro.mpisim.scheduler import Scheduler
    from repro.taint.tarray import TArray

    scalar = TArray(np.asarray(1.0))
    block = TArray(np.ones(16))

    def allreduce(rank, comm):
        for _ in range(MPI_ROUNDS):
            yield comm.allreduce(scalar)

    def ring(rank, comm):
        for _ in range(MPI_ROUNDS):
            yield comm.send((rank + 1) % comm.size, block)
            yield comm.recv((rank - 1) % comm.size)

    benches = {}
    for p in (4, 64):
        benches[f"micro.mpisim.allreduce_us.p{p}"] = (
            lambda p=p: Scheduler(p, allreduce).run(), MPI_ROUNDS)
        benches[f"micro.mpisim.p2p_us.p{p}"] = (
            lambda p=p: Scheduler(p, ring).run(), MPI_ROUNDS * p)
    return benches


def _fi_benches() -> dict[str, tuple[Callable, int]]:
    from repro.apps import get_app
    from repro.fi.plan import sample_plan
    from repro.fi.tracer import Tracer, TracerMode
    from repro.mpisim.runner import execute_spmd

    tracer = Tracer(TracerMode.PROFILE)
    execute_spmd(get_app("cg").program, 4, sink=tracer)
    profile = tracer.profile
    rng = np.random.default_rng(11)
    return {"micro.fi.plan.sample_us": (lambda: sample_plan(profile, rng), 1)}


def _engine_benches(work: Path, stack: contextlib.ExitStack) -> dict[str, tuple[Callable, int]]:
    from repro.engine.aggregate import ChunkAggregator
    from repro.engine.chunks import ChunkPayload
    from repro.engine.distributed import recv_frame, send_frame
    from repro.engine.store import LocalDirStore
    from repro.fi.outcomes import Outcome

    chunks = [(i, i + 1) for i in range(64)]
    payloads = [
        ChunkPayload(lo, hi, {(Outcome.SUCCESS, 1, True): 1}) for lo, hi in chunks
    ]

    def fold():
        aggregator = ChunkAggregator(chunks)
        for payload in payloads:
            aggregator.add(payload)

    left, right = socket.socketpair()
    stack.callback(left.close)
    stack.callback(right.close)
    message = {"type": "result", "chunk": [0, 50], "payload": "A" * 4096}

    def roundtrip():
        send_frame(left, message)
        return recv_frame(right)

    store = LocalDirStore(work / "micro-store")
    blob = b"{" + b"0" * 1022 + b"}"
    store.put("micro/entry.json", blob)
    return {
        "micro.engine.aggregate.add_us": (fold, len(chunks)),
        "micro.engine.frame.roundtrip_us": (roundtrip, 1),
        "micro.engine.store.put_us": (lambda: store.put("micro/entry.json", blob), 1),
        "micro.engine.store.get_us": (lambda: store.get("micro/entry.json"), 1),
    }


def run_micro(work: Path, quick: bool = False) -> dict[str, dict]:
    """Run every microbench; returns ``{name: summary of µs per call}``."""
    batches, target = (7, 0.005) if quick else (9, 0.03)
    results = {}
    with contextlib.ExitStack() as stack:
        benches = {
            **_taint_benches(), **_mpisim_benches(), **_fi_benches(),
            **_engine_benches(work, stack),
        }
        with np.errstate(all="ignore"):
            for name, (fn, per_call) in benches.items():
                results[name] = _time(fn, batches, target, per_call)
    return results
