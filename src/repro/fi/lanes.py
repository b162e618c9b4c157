"""Lane batching: N fault-injection trials in one pass through the app.

:func:`run_lane_block` executes trials ``[start, stop)`` of a
deployment as *lanes* of a single batched execution: one golden pass
through the mini-app and the :mod:`repro.mpisim` scheduler, with each
traced array carrying a stack of per-lane faulty shadows
(:class:`repro.taint.laneops.LaneFPOps`).  The :class:`BatchTracer`
merges every lane's injection plan into shared candidate-stream cursors
— instruction accounting runs **once** for the whole block — and
collects contamination marks, flip activations and provenance
observations per lane.

Semantics contract (docs/performance.md, "Lane vectorization"): records,
observability events and provenance are byte-identical to running each
trial alone.  Lanes whose faulty values would steer control flow off
the golden path (a ``TArray.value``/``to_numpy`` read or an
``fp.greater``/``fp.less`` comparison that disagrees) are *ejected* and
re-executed on the classic scalar path; everything still in the batch
shares the golden control flow, so one pass is exact for all of them.
A batch that fails outright (any exception) falls back to scalar
execution of the whole block — lanes are a pure fast path.

Each block counts its ejected lanes (``fi.lanes.ejected``, and by reason
``fi.lanes.ejected.<reason>``) and whole-block fallbacks
(``fi.lanes.fallback``), zero included, and returns its ejection count
to the chunk loop, whose pay rule
(:data:`repro.engine.chunks.LANE_EJECT_SHARE`) may then run the rest of
the chunk one trial at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.fi.outcomes import TrialRecord, classify_outcome
from repro.fi.plan import InjectionPlan, PlannedFlip, sample_plan
from repro.fi.scenarios import resolve_model
from repro.fi.scenarios.base import TrialRun, TrialScope
from repro.mpisim.runner import execute_spmd
from repro.obs import ObsSnapshot, Recorder, recording
from repro.obs.provenance import FlipObservation
from repro.taint.laneops import LaneFPOps
from repro.taint.tarray import TArray
from repro.taint.tracer_api import LaneInjection, OpKind, Operand
from repro.utils.rng import trial_seed

import numpy as np

__all__ = ["BatchTracer", "run_lane_block"]


class _BatchCursor:
    """One (rank, region) candidate stream walked for *all* lanes at once.

    ``pending`` holds ``(index, lane, flip)`` entries sorted by
    ``(index, lane)`` — the union of every lane's plan for this stream.
    Because every lane in the batch executes the same (golden)
    instruction stream, one shared position serves them all; each lane
    sees exactly the windows its scalar cursor would have seen.
    """

    __slots__ = ("position", "pending", "next_index")

    def __init__(self, entries: list[tuple[int, int, PlannedFlip]]):
        self.position = 0
        self.pending = entries
        self.next_index = entries[0][0] if entries else None

    def advance(self, count: int) -> list[tuple[int, PlannedFlip]]:
        start = self.position
        self.position += count
        fired: list[tuple[int, PlannedFlip]] = []
        while self.pending and self.pending[0][0] < self.position:
            index, lane, flip = self.pending.pop(0)
            assert index >= start, "plan indices must be strictly increasing"
            fired.append((lane, flip))
        self.next_index = self.pending[0][0] if self.pending else None
        return fired

    def drop_lanes(self, lanes: set[int]) -> None:
        if not self.pending:
            return
        self.pending = [e for e in self.pending if e[1] not in lanes]
        self.next_index = self.pending[0][0] if self.pending else None


class BatchTracer:
    """TraceSink coordinating ``k`` lanes of one batched execution.

    Mirrors :class:`repro.fi.tracer.Tracer` per lane: activated flips,
    flip observations, contaminated-rank sets and contamination
    timelines are collected in per-lane lists, which each lane's
    :class:`_LaneRun` reads where a trial run alone reads its tracer.
    The batch's own golden/faulty pair never diverges, so the plain
    :meth:`mark_contaminated` channel is a no-op; per-lane marks arrive
    via :meth:`mark_lanes_from_op` (taint layer, metered) and
    :meth:`mark_lanes_contaminated` (scheduler delivery, unmetered —
    the scalar scheduler also bypasses the observability meter).
    """

    def __init__(self, plans: Sequence[InjectionPlan]):
        self.plans = list(plans)
        self.k = len(self.plans)
        self.activated: list[list[PlannedFlip]] = [[] for _ in range(self.k)]
        self.observations: list[list[FlipObservation]] = [[] for _ in range(self.k)]
        #: rank -> (k,) bool: which lanes have seen rank contaminated
        self._cont: dict[int, np.ndarray] = {}
        #: rank -> contaminated-lane count (saturation short-circuit)
        self._cont_count: dict[int, int] = {}
        self.timelines: list[list[tuple[int, int]]] = [[] for _ in range(self.k)]
        #: rank -> (k,) mark-call tallies (the scalar path's
        #: ``taint.contaminated_reports.rank*`` counters, replayed later)
        self._reports: dict[int, np.ndarray] = {}
        self.ejected: set[int] = set()
        self._ejected_mask = np.zeros(self.k, dtype=bool)
        self.eject_reasons: dict[int, str] = {}
        self._step_provider: Callable[[], int] | None = None
        self._cursors: dict[tuple, _BatchCursor] = {}
        merged: dict[tuple, list[tuple[int, int, PlannedFlip]]] = {}
        for lane, plan in enumerate(self.plans):
            for rank, region in {(f.rank, f.region) for f in plan.flips}:
                merged.setdefault((rank, region), []).extend(
                    (f.index, lane, f)
                    for f in plan.for_rank_region(rank, region)
                )
        for key, entries in merged.items():
            entries.sort(key=lambda e: (e[0], e[1]))
            self._cursors[key] = _BatchCursor(entries)

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------
    def account(self, rank, region, kind: OpKind, count: int):
        if not kind.is_candidate or count == 0:
            return ()
        cursor = self._cursors.get((rank, region))
        if cursor is None:
            return ()
        if cursor.next_index is not None and cursor.next_index < cursor.position + count:
            start = cursor.position
            fired = cursor.advance(count)
            out: list[LaneInjection] = []
            for lane, flip in fired:
                if lane in self.ejected:
                    continue  # scalar replay owns this lane's flips now
                self.activated[lane].append(flip)
                out.append(LaneInjection(
                    offset=flip.index - start, operand=flip.operand,
                    bit=flip.bit, index=flip.index, lane=lane,
                ))
            return out
        cursor.position += count
        return ()

    def mark_contaminated(self, rank: int) -> None:
        """No-op: the batch's golden/faulty pair never diverges."""
        return None

    def bind_step_provider(self, provider: Callable[[], int]) -> None:
        self._step_provider = provider

    # ------------------------------------------------------------------
    # per-lane channels
    # ------------------------------------------------------------------
    def mark_lanes_from_op(self, rank: int, lanes: Sequence[int]) -> None:
        """Taint-layer mark: counted, like the scalar metered sink."""
        lanes = self._live_lanes(lanes)
        if lanes is None:
            return
        reports = self._reports.get(rank)
        if reports is None:
            reports = self._reports[rank] = np.zeros(self.k, dtype=np.int64)
        reports[lanes] += 1
        self._mark(lanes, rank)

    def mark_lanes_contaminated(self, rank: int, lanes: Sequence[int]) -> None:
        """Scheduler delivery mark: uncounted (scalar bypasses the meter)."""
        lanes = self._live_lanes(lanes)
        if lanes is not None:
            self._mark(lanes, rank)

    def _live_lanes(self, lanes: Sequence[int]) -> np.ndarray | None:
        lanes = np.asarray(lanes, dtype=np.intp)
        if lanes.size == 0:
            return None
        if self.ejected:
            lanes = lanes[~self._ejected_mask[lanes]]
            if lanes.size == 0:
                return None
        return lanes

    def _mark(self, lanes: np.ndarray, rank: int) -> None:
        if self._cont_count.get(rank, 0) == self.k:
            return  # every lane already marked: nothing fresh possible
        cont = self._cont.get(rank)
        if cont is None:
            cont = self._cont[rank] = np.zeros(self.k, dtype=bool)
        fresh = lanes[~cont[lanes]]
        if fresh.size:
            cont[fresh] = True
            self._cont_count[rank] = (
                self._cont_count.get(rank, 0) + int(fresh.size)
            )
            step = (
                self._step_provider() if self._step_provider is not None else -1
            )
            for lane in fresh:
                self.timelines[int(lane)].append((step, rank))

    def lane_flip_reporter(self, lane: int, rank: int, region, kind: OpKind):
        """Bound per-lane ``on_flip`` callback (provenance observations)."""
        observations = self.observations[lane]
        region_value = region.value
        op = kind.value

        def on_flip(index, operand: Operand, bits, pre, post):
            observations.append(FlipObservation(
                rank=rank, region=region_value, op=op, index=index,
                operand=operand.name, bits=tuple(bits),
                pre=float(pre), post=float(post),
            ))

        return on_flip

    def eject(self, lanes: Sequence[int], reason: str) -> None:
        """Hand lanes back to the scalar path (control-flow divergence).

        Their pending flips are dropped from every cursor — the scalar
        replay runs its own tracer — and later batch results simply stop
        tracking them (their stale rows are never read back out).
        """
        fresh = [lane for lane in lanes if lane not in self.ejected]
        if not fresh:
            return
        self.ejected.update(fresh)
        self._ejected_mask[list(fresh)] = True
        for lane in fresh:
            self.eject_reasons.setdefault(lane, reason)
        fresh_set = set(fresh)
        for cursor in self._cursors.values():
            cursor.drop_lanes(fresh_set)

    # ------------------------------------------------------------------
    # post-run queries
    # ------------------------------------------------------------------
    def contaminated_ranks(self, lane: int) -> set[int]:
        """Ranks marked contaminated for ``lane`` during the pass."""
        return {rank for rank, cont in self._cont.items() if cont[lane]}

    def report_items(self, lane: int) -> list[tuple[int, int]]:
        """``(rank, count)`` mark tallies for ``lane`` (sorted by rank)."""
        return sorted(
            (rank, int(reports[lane]))
            for rank, reports in self._reports.items()
            if reports[lane]
        )


# ----------------------------------------------------------------------
# block execution
# ----------------------------------------------------------------------
class _LaneRun(TrialRun):
    """One lane of a batched pass, as the bit-flip trial it replays.

    It reads the lane's slice of the batch where a
    :class:`~repro.fi.scenarios.bitflip.FlipRun` reads its tracer.  The
    pass metered once for the whole block, so its captured counters and
    histograms are exactly one trial's worth (``fp.*`` per rank,
    scheduler steps and runs, ...); :meth:`replay` records them with the
    lane's own ``taint.contaminated_reports.rank*`` tallies.
    """

    def __init__(self, batch: BatchTracer, lane: int, raw, snap: ObsSnapshot):
        self._batch, self._lane, self._raw, self._snap = batch, lane, raw, snap

    def execute(self, app, deployment) -> list:
        """Rank 0's output in this lane, from the batched pass's."""
        if not isinstance(self._raw, dict):
            return [self._raw]
        out = {}
        for key, val in self._raw.items():
            if isinstance(val, TArray):
                ls = val.lanes
                row = ls.fstack[self._lane] if ls is not None else val.faulty
                out[key] = (
                    float(np.asarray(row).reshape(())) if row.size == 1
                    else np.asarray(row)
                )
            else:
                out[key] = val
        return [out]

    def flips(self) -> list[PlannedFlip]:
        return self._batch.activated[self._lane]

    def activated(self) -> bool:
        return len(self.flips()) == self._batch.plans[self._lane].n_errors

    def n_contaminated(self) -> int:
        contaminated = self._batch.contaminated_ranks(self._lane)
        contaminated.update(f.rank for f in self.flips())
        return len(contaminated)

    def observations(self) -> list[FlipObservation]:
        return self._batch.observations[self._lane]

    def timeline(self) -> list[tuple[int, int]]:
        return self._batch.timelines[self._lane]

    def replay(self, obs) -> None:
        obs.absorb(self._snap, emit_events=False)
        for rank, n in self._batch.report_items(self._lane):
            obs.counter(f"taint.contaminated_reports.rank{rank}", n)


def _replay_lane(
    app, deployment, reference, trial: int, lane: int,
    batch: BatchTracer, raw, snap, obs,
) -> TrialRecord:
    """Classify one lane's output; record and report it as its trial.

    The trial's spans open only now, with ``plan`` and ``inject`` empty
    (the batched pass did both for every lane), so the span tree and
    event order match a trial run alone; durations are wall-clock and
    outside the parity contract.
    """
    run = _LaneRun(batch, lane, raw, snap)
    with TrialScope(obs) as scope:
        scope.open(trial)
        scope.end_inject()
        output = run.execute(app, deployment)[0]
        with obs.span("classify"):
            outcome = classify_outcome(output, reference, app.verify)
        return resolve_model(deployment.scenario).finish(
            trial, batch.plans[lane], run, scope, outcome, "", obs,
        )


def run_lane_block(
    app, deployment, profile, reference, start: int, stop: int, obs,
) -> tuple[list[TrialRecord], int]:
    """Execute trials ``[start, stop)`` as lanes of one batched pass.

    Samples each trial's plan exactly as :func:`repro.fi.campaign.
    run_one_trial` would (``trial_seed(deployment.seed, trial)``), runs
    the app once with :class:`LaneFPOps` carrying one lane per trial,
    then replays per-lane records/events in trial order.  Ejected lanes
    — and the whole block, if the batched pass raises — re-execute on
    the scalar path, so any trial's result is identical to lanes=1.
    Returns the records in trial order and how many lanes re-executed.
    """
    from repro.fi.campaign import run_one_trial  # circular at import time

    # the block span (causal tree only) parents its trials — replayed
    # lanes, ejected lanes re-run scalar, and a failed block's scalar
    # fallback alike; it reads clocks and nothing else
    with obs.span(
        "lanes", start, stop, cat="lanes",
        args={"start": start, "stop": stop, "lanes": stop - start},
    ) as block:
        plans = [
            sample_plan(
                profile,
                trial_seed(deployment.seed, trial),
                n_errors=deployment.n_errors,
                target_rank=deployment.effective_target_rank,
                region=deployment.region,
                bits_per_error=deployment.bits_per_error,
            )
            for trial in range(start, stop)
        ]
        batch = BatchTracer(plans)
        # private recorder: captures the pass's counters/histograms for
        # per-lane replay without leaking anything into the live stream
        private = Recorder(enabled=obs.enabled)
        try:
            with recording(private):
                outputs = execute_spmd(
                    app.program, deployment.nprocs, sink=batch,
                    max_steps=deployment.max_steps,
                    ops_factory=lambda sink, rank: LaneFPOps(
                        sink, rank, batch
                    ),
                    raw_outputs=True,
                )
        except Exception:
            # golden-path execution should never fail (the profiling pass
            # succeeded); if it somehow does, the scalar path is always
            # right
            block.set(ejected=stop - start)
            obs.counter("fi.lanes.ejected", stop - start)
            obs.counter("fi.lanes.fallback")
            return [
                run_one_trial(app, deployment, profile, reference, trial, obs)
                for trial in range(start, stop)
            ], stop - start
        raw = outputs[0]
        snap = ObsSnapshot(counters=private.counters,
                           histograms=private.histograms)
        records: list[TrialRecord] = []
        for lane, trial in enumerate(range(start, stop)):
            if lane in batch.ejected:
                records.append(
                    run_one_trial(
                        app, deployment, profile, reference, trial, obs
                    )
                )
            else:
                records.append(_replay_lane(
                    app, deployment, reference, trial, lane, batch, raw,
                    snap, obs,
                ))
        block.set(ejected=len(batch.ejected))
        obs.counter("fi.lanes.ejected", len(batch.ejected))
        obs.counter("fi.lanes.fallback", 0)
        for reason in batch.eject_reasons.values():
            obs.counter(f"fi.lanes.ejected.{reason}")
    return records, len(batch.ejected)
