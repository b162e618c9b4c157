"""The campaign execution driver: chunks → backend → checkpoint → fold.

:func:`run_trials` owns trial execution end-to-end for
:func:`repro.fi.campaign.run_campaign`:

1. plan the chunk layout (or recover the layout of an interrupted run
   from its checkpoint manifest — the layout is pinned at first write so
   resuming under a different ``jobs`` still re-runs exactly the missing
   trial ranges);
2. pick a backend — :class:`~repro.engine.backends.InlineBackend`, the
   process-lifetime :class:`~repro.engine.backends.ProcessPoolBackend`
   or :class:`~repro.engine.distributed.DistributedBackend` — and stream
   the missing chunks through it;
3. persist each completed chunk the moment it lands (when checkpointing
   is on), emitting :class:`~repro.obs.CheckpointWritten`;
4. fold everything — recovered and fresh — in deterministic chunk order
   through one :class:`~repro.engine.aggregate.ChunkAggregator`.

The determinism argument, the checkpoint format and the resume
semantics are documented in ``docs/engine.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.aggregate import ChunkAggregator
from repro.engine.backends import (
    Backend,
    InlineBackend,
    ProcessPoolBackend,
    canonical_backend,
    planning_jobs,
)
from repro.engine.checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointStore
from repro.engine.distributed import DistributedBackend
from repro.engine.chunks import ChunkPayload, EngineContext, plan_chunks
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import CampaignResumed, CheckpointWritten, get_recorder

if TYPE_CHECKING:
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["run_trials", "select_backend", "write_checkpoint"]


def write_checkpoint(store, payload: ChunkPayload, obs, trials_done: int) -> None:
    """Persist one completed chunk and emit the bookkeeping telemetry.

    Shared by the fixed-N driver below and the adaptive driver in
    :mod:`repro.engine.adaptive` so both produce identical checkpoint
    artifacts and ``CheckpointWritten`` streams.
    """
    with obs.span(
        "checkpoint", payload.start, payload.stop, cat="checkpoint",
        args={"start": payload.start, "stop": payload.stop},
    ) as span:
        path, size = store.write(payload)
        span.set(bytes=size)
    if obs.enabled:
        obs.counter("checkpoint.writes")
        obs.counter("checkpoint.write_bytes", size)
        obs.emit(CheckpointWritten(
            path=str(path),
            chunk_start=payload.start,
            chunk_stop=payload.stop,
            trials_done=trials_done,
            size_bytes=size,
        ))


def select_backend(
    jobs: int, n_chunks: int, capture: bool, backend: str | None = None
) -> Backend:
    """The backend for ``n_chunks`` remaining chunks at ``jobs`` workers.

    With no explicit ``backend`` spec the historical heuristic applies:
    a pool only pays off with workers to feed and more than one chunk
    to balance; everything else runs inline (``capture`` = buffer chunk
    state for the checkpoint store).  An explicit spec — ``"inline"``,
    ``"process"``, or ``"distributed:host:port"`` (see
    :func:`~repro.engine.backends.canonical_backend`) — overrides the
    heuristic.
    """
    spec = canonical_backend(backend)
    if spec == "inline":
        return InlineBackend(capture=capture)
    if spec == "process":
        return ProcessPoolBackend(max(1, jobs))
    if spec is not None:  # canonical: "distributed:host:port"
        host, _, port = spec.partition(":")[2].rpartition(":")
        return DistributedBackend(host, int(port))
    if jobs > 1 and n_chunks > 1:
        return ProcessPoolBackend(jobs)
    return InlineBackend(capture=capture)


def run_trials(
    app: "AppProtocol",
    deployment: "Deployment",
    profile: "InstructionProfile",
    reference: dict,
    *,
    keep_records: bool = False,
    jobs: int = 1,
    lanes: int = 1,
    checkpoint_every: int | None = None,
    resume: bool = False,
    backend: str | None = None,
) -> tuple[dict[tuple[Outcome, int, bool], int], list[TrialRecord]]:
    """Execute a deployment's trials; returns the merged ``(joint, records)``.

    Bit-identical to the classic serial loop for any ``jobs``, any
    ``lanes`` (trials batched per lane-vectorized execution pass —
    chunk layout stays lanes-invariant), any ``backend`` spec (inline /
    process / distributed), any ``checkpoint_every``, and
    any interruption-and-resume pattern in between.  ``checkpoint_every=N`` persists completed chunks of at
    most N trials as they finish; ``resume=True`` first recovers every
    chunk a previous (interrupted) process persisted and re-runs only
    the missing ones.  ``resume`` alone implies checkpointing at
    :data:`~repro.engine.checkpoint.DEFAULT_CHECKPOINT_EVERY`.
    """
    obs = get_recorder()
    backend = canonical_backend(backend)
    plan_jobs = planning_jobs(backend, jobs)
    trials = deployment.trials
    checkpointing = checkpoint_every is not None or resume
    interval = (
        checkpoint_every if checkpoint_every is not None
        else DEFAULT_CHECKPOINT_EVERY
    )

    store: CheckpointStore | None = None
    chunks: list[tuple[int, int]] | None = None
    recovered: list[ChunkPayload] = []
    if checkpointing:
        store = CheckpointStore(app, deployment, keep_records)
        if resume:
            loaded = store.load()
            if loaded is not None:
                chunks, recovered = loaded
        else:
            store.clear()  # a fresh run never trusts stale leftovers
    if chunks is None:
        chunks = plan_chunks(
            trials, plan_jobs, interval if checkpointing else None
        )
        if store is not None and trials > 0:
            store.begin(trials, chunks)

    done = {payload.bounds for payload in recovered}
    missing = [bounds for bounds in chunks if bounds not in done]
    trials_done = sum(hi - lo for lo, hi in done)

    # progress gauges: last-write-wins, so each campaign resets them and
    # the live /metrics endpoint (and its ETA) tracks the current one
    obs.gauge("campaign.trials_planned", trials)
    obs.gauge("campaign.trials_done", trials_done)

    aggregator = ChunkAggregator(chunks, obs)
    if recovered:
        if obs.enabled:
            obs.emit(CampaignResumed(
                app=app.name,
                trials_done=trials_done,
                trials_total=trials,
                chunks_done=len(recovered),
                chunks_total=len(chunks),
                path=str(store.dir),
            ))
        # fold in chunk order; buffered events replay so the resumed
        # run's trace and provenance cover every trial exactly once
        for payload in sorted(recovered, key=lambda p: p.start):
            aggregator.add(payload)

    if missing:
        ctx = EngineContext(
            app=app, deployment=deployment, profile=profile,
            reference=reference, keep_records=keep_records,
            # checkpointed chunks always capture their events: a run
            # interrupted with obs off can then be resumed with obs ON
            # and still replay every recovered trial into the trace
            obs_enabled=obs.enabled or checkpointing,
            profiling=obs.enabled and obs.profiling,
            lanes=lanes,
            tracing=obs.enabled and obs.tracing,
            trace_ctx=obs.trace_ctx,
        )
        executor = select_backend(
            jobs, len(missing), capture=checkpointing, backend=backend
        )
        for payload in executor.run(ctx, missing):
            if store is not None:
                trials_done += payload.n_trials
                write_checkpoint(store, payload, obs, trials_done)
            aggregator.add(payload, events_emitted=executor.live_events)
            obs.gauge("campaign.trials_done", aggregator.trials_folded)

    joint, records = aggregator.finish()
    if store is not None:
        store.clear()  # complete: the result cache takes over from here
    return joint, records
