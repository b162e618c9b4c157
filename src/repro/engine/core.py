"""The campaign execution driver: waves of chunks → backend → checkpoint → fold.

:func:`run_trials` owns trial execution end-to-end for
:func:`repro.fi.campaign.run_campaign`.  A campaign runs in *waves*: a
fixed-N campaign is one wave of ``deployment.trials`` trials; with
``deployment.ci_halfwidth`` set, :class:`~repro.engine.adaptive.AdaptiveStopper`
picks each wave's boundary and stops at the first boundary where every
outcome rate meets the precision target (``trials`` is then the cap).
Each wave:

1. extends the chunk layout up to the wave boundary (or reuses the
   layout an interrupted run pinned in its checkpoint manifest — so
   resuming under a different ``jobs`` still re-runs exactly the
   missing trial ranges);
2. picks a backend — :class:`~repro.engine.backends.InlineBackend` or
   the process-lifetime :class:`~repro.engine.backends.ProcessPoolBackend`
   — and streams the wave's missing chunks through it;
3. persists each completed chunk the moment it lands (when checkpointing
   is on), emitting :class:`~repro.obs.CheckpointWritten`;
4. folds everything — recovered and fresh — in deterministic chunk order
   through one :class:`~repro.engine.aggregate.ChunkAggregator`.

The determinism argument, the checkpoint format and the resume
semantics are documented in ``docs/engine.md``; the stopping rule in
``docs/adaptive.md``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.engine.adaptive import AdaptiveStopper
from repro.engine.aggregate import ChunkAggregator
from repro.engine.backends import Backend, InlineBackend, ProcessPoolBackend
from repro.engine.checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointStore
from repro.engine.chunks import ChunkPayload, EngineContext, plan_chunks
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import (
    CampaignConverged,
    CampaignPlanRevised,
    CampaignResumed,
    CheckpointWritten,
    get_recorder,
)

if TYPE_CHECKING:
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["run_trials", "select_backend"]


def _write_checkpoint(store, payload: ChunkPayload, obs, trials_done: int) -> None:
    """Persist one completed chunk and emit the bookkeeping telemetry."""
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


def select_backend(jobs: int, n_chunks: int, capture: bool) -> Backend:
    """The backend for ``n_chunks`` remaining chunks at ``jobs`` workers.

    A pool only pays off with workers to feed and more than one chunk
    to balance; everything else runs inline (``capture`` = buffer chunk
    state for the checkpoint store).
    """
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
) -> tuple[dict[tuple[Outcome, int, bool], int], list[TrialRecord]]:
    """Execute a deployment's trials; returns the merged ``(joint, records)``.

    Bit-identical to the classic serial loop for any ``jobs``, any
    ``lanes`` (trials batched per lane-vectorized execution pass —
    chunk layout and wave boundaries stay lanes-invariant), any
    ``checkpoint_every``, and any interruption-and-resume pattern in
    between.  ``checkpoint_every=N`` persists completed chunks of at
    most N trials as they finish; ``resume=True`` first recovers every
    chunk a previous (interrupted) process persisted and re-runs only
    the missing ones.  ``resume`` alone implies checkpointing at
    :data:`~repro.engine.checkpoint.DEFAULT_CHECKPOINT_EVERY`.

    With ``deployment.ci_halfwidth`` set, ``deployment.trials`` is a
    cap: execution stops at the first wave boundary where every
    outcome's Wilson half-width is at or below the target, the manifest's
    ``planned`` count tracks how far the layout reaches, and the run
    emits a ``wave`` span and :class:`~repro.obs.CampaignPlanRevised`
    per wave plus one :class:`~repro.obs.CampaignConverged`.
    """
    obs = get_recorder()
    trials = deployment.trials
    target = deployment.ci_halfwidth
    stopper = None if target is None else AdaptiveStopper(target, trials)
    checkpointing = checkpoint_every is not None or resume
    interval = (
        checkpoint_every if checkpoint_every is not None
        else DEFAULT_CHECKPOINT_EVERY
    )

    store: CheckpointStore | None = None
    chunks: list[tuple[int, int]] = []
    recovered: dict[tuple[int, int], ChunkPayload] = {}
    if checkpointing:
        store = CheckpointStore(app, deployment, keep_records)
        if resume:
            loaded = store.load()
            if loaded is not None:
                chunks, payloads = loaded
                recovered = {p.bounds: p for p in payloads}
        else:
            store.clear()  # a fresh run never trusts stale leftovers
    planned = max((hi for _, hi in chunks), default=0)
    trials_durable = sum(hi - lo for lo, hi in recovered)

    if stopper is None:
        # progress gauges: last-write-wins, so each campaign resets them
        # and the live /metrics endpoint (and its ETA) tracks the current
        # one; adaptive waves re-pin them at every boundary instead
        obs.gauge("campaign.trials_planned", trials)
        obs.gauge("campaign.trials_done", trials_durable)
    if recovered and obs.enabled:
        obs.emit(CampaignResumed(
            app=app.name,
            trials_done=trials_durable,
            trials_total=trials,
            chunks_done=len(recovered),
            chunks_total=len(chunks),
            path=str(store.dir),
        ))

    aggregator = ChunkAggregator([], obs)
    n_done = waves = 0
    converged = False
    while not converged and n_done < trials:
        # an adaptive wave span (causal tree only) parents the wave's
        # chunk and checkpoint spans; a fixed-N run has none, so its
        # chunks hang off the campaign span
        wave_span = nullcontext() if stopper is None else obs.span(
            "wave", waves, cat="wave", args={"wave": waves},
        )
        with wave_span:
            if stopper is None:
                boundary = trials
            else:
                boundary = stopper.next_boundary(aggregator.joint, n_done)
                # the boundary IS the current projection of the final
                # campaign size — publish it so progress lines and the
                # live /metrics ETA tighten wave by wave
                obs.gauge("campaign.trials_planned", boundary)
                obs.gauge("campaign.trials_done", n_done)
                obs.emit(CampaignPlanRevised(
                    app=app.name, planned=boundary, done=n_done,
                ))
            if boundary > planned:
                # extend the pinned layout: fresh trials chunked per
                # worker, durable progress at least every `interval`
                fresh = plan_chunks(
                    boundary - planned, jobs,
                    interval if checkpointing else None,
                )
                chunks.extend((lo + planned, hi + planned) for lo, hi in fresh)
                planned = boundary
                if store is not None:
                    store.begin(trials, chunks, planned=planned)
            wave = [bounds for bounds in chunks if n_done <= bounds[0] < boundary]
            aggregator.extend(wave)
            missing: list[tuple[int, int]] = []
            for bounds in wave:
                payload = recovered.pop(bounds, None)
                if payload is None:
                    missing.append(bounds)
                else:
                    # recovered chunks replay their buffered events
                    # through the aggregator, exactly once and in order
                    aggregator.add(payload)
            if missing:
                ctx = EngineContext(
                    app=app, deployment=deployment, profile=profile,
                    reference=reference, keep_records=keep_records,
                    # checkpointed chunks always capture their events: a
                    # run interrupted with obs off can then be resumed
                    # with obs ON and still replay every recovered trial
                    obs_enabled=obs.enabled or checkpointing,
                    profiling=obs.enabled and obs.profiling,
                    lanes=lanes,
                    tracing=obs.enabled and obs.tracing,
                    trace_ctx=obs.trace_ctx,
                )
                executor = select_backend(jobs, len(missing), capture=checkpointing)
                for payload in executor.run(ctx, missing):
                    if store is not None:
                        trials_durable += payload.n_trials
                        _write_checkpoint(store, payload, obs, trials_durable)
                    aggregator.add(payload, events_emitted=executor.live_events)
                    obs.gauge("campaign.trials_done", aggregator.trials_folded)
            n_done = boundary
            waves += 1
            obs.gauge("campaign.trials_done", n_done)
            if stopper is not None:
                converged = stopper.converged(aggregator.joint)
                wave_span.set(boundary=boundary, done=n_done)

    joint, records = aggregator.finish()
    if stopper is not None:
        obs.emit(CampaignConverged(
            app=app.name,
            nprocs=deployment.nprocs,
            n_errors=deployment.n_errors,
            target=target,
            trials_used=n_done,
            trials_cap=trials,
            waves=waves,
            converged=converged,
            halfwidths={
                oc.value: hw for oc, hw in stopper.halfwidths(joint).items()
            },
        ))
    if store is not None:
        store.clear()  # complete: the result cache takes over from here
    return joint, records
