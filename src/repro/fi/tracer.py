"""The tracer: instruction accounting plus plan-driven flip firing.

One :class:`Tracer` instance lives for one application execution.  In
``PROFILE`` mode it only accumulates an :class:`InstructionProfile`.
In ``INJECT`` mode it additionally walks each rank/region's candidate
stream against the sorted flips of an :class:`InjectionPlan` and hands
the flips that land inside the current vectorized operation back to the
taint layer (as :class:`LaneInjection` records, with the plan's global
stream index translated into an offset local to the operation).

The tracer is also the collection point for *process contamination*:
the taint layer and the MPI simulator call :meth:`mark_contaminated`
whenever a rank's data diverges from the fault-free shadow — the
quantity profiled in the paper's Figs. 1–2.

Fault provenance (:mod:`repro.obs.provenance`) is collected here too:
the scheduler binds a step provider (:meth:`bind_step_provider`) so the
contamination timeline records *when* each rank was first touched, and
the taint layer reports each applied flip's op kind and pre/post
operand values through :meth:`record_flip`.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from repro.fi.plan import InjectionPlan, PlannedFlip
from repro.fi.profile import InstructionProfile
from repro.obs.provenance import FlipObservation
from repro.taint.region import Region
from repro.taint.tracer_api import LaneInjection, Operand, OpKind

__all__ = ["Tracer", "TracerMode"]


class TracerMode(enum.Enum):
    PROFILE = "profile"
    INJECT = "inject"


class _StreamCursor:
    """Walks one (rank, region) candidate stream against its sorted flips."""

    __slots__ = ("position", "pending", "next_index")

    def __init__(self, flips: Sequence[PlannedFlip]):
        self.position = 0
        self.pending = list(flips)  # sorted by index ascending
        self.next_index = self.pending[0].index if self.pending else None

    def advance(self, count: int) -> list[PlannedFlip]:
        """Advance by ``count`` instructions; return flips inside the window."""
        start = self.position
        self.position += count
        fired: list[PlannedFlip] = []
        while self.pending and self.pending[0].index < self.position:
            flip = self.pending.pop(0)
            assert flip.index >= start, "plan indices must be strictly increasing"
            fired.append(flip)
        self.next_index = self.pending[0].index if self.pending else None
        return fired


_ADD, _MUL = OpKind.ADD, OpKind.MUL


class Tracer:
    """Implements :class:`repro.taint.tracer_api.TraceSink` for one run."""

    def __init__(self, mode: TracerMode = TracerMode.PROFILE, plan: InjectionPlan | None = None):
        self.mode = mode
        self._profiling = mode is TracerMode.PROFILE
        self.plan = plan
        self.profile = InstructionProfile()
        self.contaminated: set[int] = set()
        self.activated_flips: list[PlannedFlip] = []
        #: (scheduler step, rank) appended when a rank is first contaminated.
        self.contamination_timeline: list[tuple[int, int]] = []
        #: applied-flip observations (op kind + pre/post operand values).
        self.flip_observations: list[FlipObservation] = []
        self._step_provider: Callable[[], int] | None = None
        #: rank -> ((region, cursor), ...): looked up by rank, then by
        #: region identity, so no enum is hashed per traced op.
        self._cursors: dict[int, tuple[tuple[Region, _StreamCursor], ...]] = {}
        if mode is TracerMode.INJECT:
            if plan is None:
                raise ValueError("INJECT mode requires an injection plan")
            for rank, region in {(f.rank, f.region) for f in plan.flips}:
                cursor = _StreamCursor(plan.for_rank_region(rank, region))
                self._cursors[rank] = self._cursors.get(rank, ()) + ((region, cursor),)
        elif plan is not None:
            raise ValueError("PROFILE mode must not carry an injection plan")

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------
    def account(
        self, rank: int, region: Region, kind: OpKind, count: int
    ) -> Sequence[LaneInjection]:
        if self._profiling:
            self.profile.record(rank, region, kind, count)
        if (kind is not _ADD and kind is not _MUL) or count == 0:
            return ()
        for reg, cursor in self._cursors.get(rank, ()):
            if reg is region:
                break
        else:
            return ()
        if cursor.next_index is not None and cursor.next_index < cursor.position + count:
            start = cursor.position
            fired = cursor.advance(count)
            self.activated_flips.extend(fired)
            return [
                LaneInjection(
                    offset=f.index - start, operand=f.operand, bit=f.bit,
                    index=f.index,
                )
                for f in fired
            ]
        cursor.position += count
        return ()

    def mark_contaminated(self, rank: int) -> None:
        if rank not in self.contaminated:
            self.contaminated.add(rank)
            step = self._step_provider() if self._step_provider is not None else -1
            self.contamination_timeline.append((step, rank))

    def record_flip(
        self,
        rank: int,
        region: Region,
        kind: OpKind,
        index: int,
        operand: Operand,
        bits: Sequence[int],
        pre: float,
        post: float,
    ) -> None:
        """Store the observed values of one applied fault (provenance)."""
        self.flip_observations.append(FlipObservation(
            rank=rank, region=region.value, op=kind.value, index=index,
            operand=operand.name, bits=tuple(bits),
            pre=float(pre), post=float(post),
        ))

    def bind_step_provider(self, provider: Callable[[], int]) -> None:
        """Let the scheduler date contamination marks with its step count."""
        self._step_provider = provider

    # ------------------------------------------------------------------
    # post-run queries
    # ------------------------------------------------------------------
    @property
    def all_flips_activated(self) -> bool:
        """True when every planned flip actually fired during execution.

        A flip can miss when fault-perturbed control flow shortens the
        instruction stream relative to the profiling pass.
        """
        if self.plan is None:
            return True
        return len(self.activated_flips) == self.plan.n_errors

    def contaminated_count(self) -> int:
        """Number of contaminated ranks, counting injected ranks.

        The injected process counts as contaminated whenever a flip fired
        in it (the paper's propagation histograms start at one process),
        even if rounding absorbed the corruption immediately.
        """
        contaminated = set(self.contaminated)
        contaminated.update(f.rank for f in self.activated_flips)
        return len(contaminated)
