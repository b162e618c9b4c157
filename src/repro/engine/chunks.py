"""Trial chunking and chunk execution — the engine's unit of work.

A campaign's trials are partitioned into contiguous ``[start, stop)``
*chunks*.  The chunk is the engine's everything-unit: the scheduling
granule a backend hands to a worker, the payload shipped back to the
driver, the record persisted by the checkpoint store, and the quantum
the aggregator folds.  Chunk boundaries influence scheduling and
checkpoint granularity only — every per-trial decision derives from
``(deployment.seed, trial_index)`` (see :func:`repro.utils.rng.trial_seed`),
so results are chunk-invariant.

:func:`execute_chunk` is the one piece of trial-fold code in the whole
package: the serial path, the worker pools and a resumed campaign all
run it (directly, in a worker process, or not at all because its
persisted payload was recovered from disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import MemorySink, ObsSnapshot, Recorder, get_recorder, recording
from repro.obs.sinks import Sink
from repro.obs.trace import TraceContext

if TYPE_CHECKING:  # circular at runtime: campaign dispatches into here
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.scenarios.base import FaultFreeRun

__all__ = [
    "LANE_EJECT_SHARE", "MAX_CHUNK_TRIALS", "ChunkPayload", "EngineContext",
    "chunk_bounds", "execute_chunk", "fold_record", "plan_chunks",
]

#: Upper bound on trials per chunk: small enough that progress events
#: flow and stragglers rebalance, large enough to amortize task overhead.
#: It bounds a forked block too, which reports its trials when it ends.
MAX_CHUNK_TRIALS = 50

#: The lane pay rule: a lane block that ejected more than this share of
#: its lanes paid for the batched pass and then re-ran those trials one
#: at a time, so the rest of its chunk runs one trial at a time.  A
#: block of ``k`` lanes with ``e`` ejected costs about ``P + e`` scalar
#: trials; on PENNANT, the one app that ejects, the pass ``P`` costs
#: 0.13k to 0.29k, so its blocks pay while fewer than 71-87% of their
#: lanes eject (see docs/performance.md, "The lane pay rule").
#: Ejection depends on a trial alone, so the switch is as deterministic
#: as the records, which do not depend on it.
LANE_EJECT_SHARE = 0.6


def chunk_bounds(
    trials: int, jobs: int, max_size: int | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks covering ``range(trials)``.

    Balanced: ``jobs × ceil(trials / (jobs × cap))`` chunks whose sizes
    differ by at most one, where ``cap`` is :data:`MAX_CHUNK_TRIALS` or,
    when smaller, ``max_size`` (the checkpoint interval: a chunk is the
    unit of durable progress, so ``--checkpoint-every`` bounds it).  A
    campaign of up to ``jobs × cap`` trials is one chunk per worker, so
    each worker runs full lane blocks and forks whole blocks off one
    fault-free execution; larger ones still rebalance through the queue.
    """
    if trials <= 0:
        return []
    cap = min(MAX_CHUNK_TRIALS, max_size or MAX_CHUNK_TRIALS)
    n = min(trials, jobs * math.ceil(trials / (jobs * cap)))
    size, extra = divmod(trials, n)
    edges = [i * size + min(i, extra) for i in range(n + 1)]
    return list(zip(edges, edges[1:]))


def plan_chunks(
    trials: int, jobs: int, checkpoint_every: int | None = None
) -> list[tuple[int, int]]:
    """The chunk layout for one campaign execution.

    Without workers or checkpointing there is nothing to partition for:
    one chunk keeps the classic in-process loop intact.  A serial
    checkpointed run chunks at exactly the checkpoint interval — the
    chunk *is* the unit of durable progress.  A parallel run splits per
    :func:`chunk_bounds`, with the interval as an upper bound so durable
    progress still lands at least every ``checkpoint_every`` trials.
    """
    if trials <= 0:
        return []
    if jobs <= 1:
        if checkpoint_every is None:
            return [(0, trials)]
        size = checkpoint_every
        return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    return chunk_bounds(trials, jobs, max_size=checkpoint_every)


@dataclass(frozen=True)
class EngineContext:
    """Everything a backend needs to execute trials of one campaign.

    Picklable as a unit: pooled backends ship one context per worker
    and campaign (none at all to a worker that holds it warm), never
    per chunk.
    """

    app: "AppProtocol"
    deployment: "Deployment"
    #: the parent's fault-free execution: trials read its profile and
    #: reference output, and a pool worker serves it as its own
    golden: "FaultFreeRun"
    keep_records: bool
    obs_enabled: bool
    #: hot-path profiling (repro.obs.profiler) — carried to workers so a
    #: chunk's recorder attributes op time exactly like the parent's.
    profiling: bool = False
    #: trials batched per lane-vectorized pass (repro.fi.lanes), already
    #: 1 wherever run_campaign decided the scalar path (scenarios without
    #: lane support, profiling runs).  Chunk planning ignores this — lane
    #: blocks subdivide chunks at execution time, so chunk layout (and
    #: thus checkpoint identity) is lanes-invariant.
    lanes: int = 1
    #: causal tracing (repro.obs.trace) — carried to workers so a
    #: chunk's recorder collects spans exactly like the parent's.
    tracing: bool = False
    #: the parent span for this context's chunks (the campaign span in a
    #: fixed-N run, the current wave's in an adaptive one); ids are
    #: deterministic strings, so the context pickles unchanged.
    trace_ctx: TraceContext | None = None


@dataclass
class ChunkPayload:
    """One chunk's compact result, identical from every backend.

    ``joint`` preserves first-occurrence insertion order within the
    chunk, so folding payloads in chunk order rebuilds the exact dict
    the serial loop would have produced.  ``obs`` carries the chunk's
    counters/histograms/span totals and buffered events when capture was
    requested (worker transport or checkpoint persistence); it is None
    when the chunk ran directly against the live recorder.
    """

    start: int
    stop: int
    joint: dict[tuple[Outcome, int, bool], int]
    records: list[TrialRecord] = field(default_factory=list)
    obs: ObsSnapshot | None = None

    @property
    def bounds(self) -> tuple[int, int]:
        return (self.start, self.stop)

    @property
    def n_trials(self) -> int:
        return self.stop - self.start


def fold_record(joint: dict[tuple[Outcome, int, bool], int], record: TrialRecord) -> None:
    """Count one finished trial into its chunk's joint distribution.

    Every block kind's records pass through here one at a time, in
    trial order — the one seam where a campaign can be interrupted
    after N trials whichever execution path ran them.
    """
    key = (record.outcome, record.n_contaminated, record.activated)
    joint[key] = joint.get(key, 0) + 1


def execute_chunk(
    ctx: EngineContext,
    start: int,
    stop: int,
    capture: bool = True,
    live_sinks: Sequence[Sink] = (),
) -> ChunkPayload:
    """Run trials ``[start, stop)`` and fold them into one payload.

    Trials run in blocks of one of three kinds: up to
    :data:`MAX_CHUNK_TRIALS` trials forked off one fault-free execution
    (a family that supports it, an unprofiled run, a process that may
    fork, and a block large enough that forking pays), lane blocks of
    ``ctx.lanes`` trials, or one trial at a time.  After a lane block
    that ejected more than :data:`LANE_EJECT_SHARE` of its lanes, the
    rest of the chunk runs one trial at a time (``fi.lanes.unpaid``).

    ``capture=False`` records straight into the process-wide recorder —
    byte-for-byte the classic serial loop, used when the payload never
    leaves the process and never hits disk.  With ``capture=True`` the
    chunk records into a chunk-local recorder (span paths prefixed with
    ``campaign`` so they match a serial run) whose buffered state ships
    in ``ChunkPayload.obs``; ``live_sinks`` additionally tees every
    event to the given sinks as it happens, keeping ``--progress`` and
    JSONL traces live while an inline checkpointed campaign runs.
    """
    from repro.fi.campaign import run_one_trial  # circular at import time
    from repro.fi.scenarios import resolve_model
    from repro.fi.scenarios.base import fault_free_run, fork_pays, fork_safe

    dep = ctx.deployment
    # a pool worker serves its parent's run instead of executing its own
    fault_free_run(ctx.app, dep.nprocs, dep.max_steps, known=ctx.golden)
    model = resolve_model(dep.scenario)
    # profiling meters per-trial op counts and times, which a shared
    # fault-free prefix cannot attribute
    fork = model.supports_fork and not ctx.profiling and fork_safe()
    block_size = MAX_CHUNK_TRIALS if fork else max(1, ctx.lanes)
    mem: MemorySink | None = None
    if not capture:
        rec = get_recorder()
    elif ctx.obs_enabled:
        mem = MemorySink()
        rec = Recorder(
            [mem, *live_sinks],
            span_prefix=("campaign",),
            profiling=ctx.profiling,
            tracing=ctx.tracing,
            trace_ctx=ctx.trace_ctx,
        )
    else:
        rec = Recorder(enabled=False)
    joint: dict[tuple[Outcome, int, bool], int] = {}
    records: list[TrialRecord] = []
    # the chunk span (causal tree only) parents the chunk's trials to the
    # driver's campaign/wave span; it reads clocks and nothing else
    with recording(rec), rec.span(
        "chunk", start, stop, cat="chunk",
        args={"start": start, "stop": stop, "trials": stop - start},
    ):
        args = (ctx.app, dep, ctx.golden.profile(), ctx.golden.reference())
        trial = start
        while trial < stop:
            block_stop = min(stop, trial + block_size)
            if fork and not fork_pays(ctx.app, dep, block_stop - trial):
                block_stop = trial + 1
            if block_stop - trial == 1:
                block_records = [run_one_trial(*args, trial, rec)]
            elif fork:
                block_records = model.run_block(*args, trial, block_stop, rec)
            else:
                from repro.fi.lanes import run_lane_block  # lanes > 1 only

                block_records, ejected = run_lane_block(
                    *args, trial, block_stop, rec
                )
                unpaid = (block_stop < stop and
                          ejected > LANE_EJECT_SHARE * (block_stop - trial))
                rec.counter("fi.lanes.unpaid", int(unpaid))
                if unpaid:
                    block_size = 1
            for record in block_records:
                fold_record(joint, record)
                if ctx.keep_records:
                    records.append(record)
            trial = block_stop
    snapshot = rec.snapshot(events=mem.events) if mem is not None else None
    return ChunkPayload(
        start=start, stop=stop, joint=joint, records=records, obs=snapshot
    )
