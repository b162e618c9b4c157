"""Fault provenance: which fault hit where, how it spread, what it did.

Aggregate campaign counters answer *how often* an injected flip causes
SDC; they cannot answer *which* instruction/bit/rank a flip hit or how
contamination spread before the outcome materialized — the per-fault
feature data that makes injection experiments interpretable (cf. PARIS,
Guo et al., and the Cielo field study, Formicola et al.).  This module
turns the enriched signals collected by :class:`repro.fi.tracer.Tracer`
into one :class:`FaultProvenance` record per trial:

* the **planned** fault sites sampled by :mod:`repro.fi.plan`;
* the **fired** flips, each with the dynamic op kind and the operand
  value immediately before and after corruption (reported by
  :mod:`repro.taint.ops` through :meth:`TraceSink.record_flip`);
* the **contamination timeline** — the scheduler step at which each
  rank first diverged from the fault-free shadow, in spread order;
* the trial's final outcome.

Records travel as :class:`~repro.obs.events.TrialProvenance` events, so
they survive worker aggregation (:mod:`repro.engine` re-emits them
in trial order) and land in a ``*.provenance.jsonl`` file next to the
``--trace-out`` trace.  Every field is a deterministic function of
``(deployment, trial)`` — no timestamps, no durations — so provenance
files are **bit-identical** for any ``jobs`` count.

System-level scenario families (:mod:`repro.fi.scenarios`) reuse the
same event with scenario payloads — dicts carrying a ``"scenario"``
key — in ``planned``/``fired``; their runs report, and loaders rebuild,
those as :class:`ScenarioObservation` instead of :class:`FlipObservation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.events import TrialProvenance

if TYPE_CHECKING:  # avoid a runtime obs -> fi import cycle
    from repro.fi.outcomes import TrialRecord
    from repro.fi.scenarios.base import ScenarioPlan, TrialRun

__all__ = [
    "FlipObservation",
    "ScenarioObservation",
    "FaultProvenance",
    "build_trial_provenance",
    "provenance_path",
    "load_provenance",
]


@dataclass(frozen=True)
class FlipObservation:
    """One applied fault: a (dynamic instruction, operand) corruption.

    A multi-bit fault pattern targeting one operand of one dynamic
    instruction is a single observation with several ``bits``.  ``pre``
    is the value the corrupted instruction would have read, ``post`` the
    value it actually read (may be ``nan``/``inf`` — that is the point).
    """

    rank: int
    region: str          # Region.value
    op: str              # OpKind.value ("add" | "mul")
    index: int           # global candidate-stream index in (rank, region)
    operand: str         # Operand.name ("A" | "B" | "OUT")
    bits: tuple[int, ...]
    pre: float
    post: float

    def to_payload(self) -> dict[str, Any]:
        return {
            "rank": self.rank, "region": self.region, "op": self.op,
            "index": self.index, "operand": self.operand,
            "bits": list(self.bits), "pre": self.pre, "post": self.post,
        }

    @classmethod
    def from_payload(cls, blob: dict[str, Any]) -> "FlipObservation":
        return cls(
            rank=blob["rank"], region=blob["region"], op=blob["op"],
            index=blob["index"], operand=blob["operand"],
            bits=tuple(blob["bits"]), pre=blob["pre"], post=blob["post"],
        )


@dataclass(frozen=True)
class ScenarioObservation:
    """One fired system-level fault (rank kill, message corruption, ...).

    Scenario payloads are open dictionaries — each family records its
    own fields (see :mod:`repro.fi.scenarios`) — distinguished from
    bit-flip observations by their ``"scenario"`` key.  ``bits`` is
    empty so bit-position analyses (dashboard heatmaps) skip these
    records transparently.
    """

    payload: dict[str, Any]

    @property
    def scenario(self) -> str:
        """The family that produced this observation."""
        return str(self.payload.get("scenario", ""))

    @property
    def bits(self) -> tuple[int, ...]:
        return ()

    def to_payload(self) -> dict[str, Any]:
        return dict(self.payload)


@dataclass(frozen=True)
class FaultProvenance:
    """Everything known about one fault-injection trial, linked end to end."""

    trial: int
    outcome: str
    n_contaminated: int
    activated: bool
    detail: str
    planned: tuple[dict, ...]            # sampled sites (plan payload)
    #: applied corruptions — FlipObservation for bit flips,
    #: ScenarioObservation for system-level scenario faults
    fired: tuple[FlipObservation | ScenarioObservation, ...]
    timeline: tuple[tuple[int, int], ...]  # (scheduler step, rank)

    # ------------------------------------------------------------------
    @property
    def bits(self) -> tuple[int, ...]:
        """All corrupted bit positions of this trial, in plan order."""
        return tuple(b for obs in self.fired for b in obs.bits)

    @property
    def spread_ranks(self) -> tuple[int, ...]:
        """Ranks in contamination order (injected rank first)."""
        return tuple(rank for _, rank in self.timeline)

    def to_event(self) -> TrialProvenance:
        return TrialProvenance(
            trial=self.trial,
            outcome=self.outcome,
            n_contaminated=self.n_contaminated,
            activated=self.activated,
            detail=self.detail,
            planned=[dict(p) for p in self.planned],
            fired=[obs.to_payload() for obs in self.fired],
            timeline=[[step, rank] for step, rank in self.timeline],
        )

    @classmethod
    def from_event(cls, event: TrialProvenance) -> "FaultProvenance":
        return cls(
            trial=event.trial,
            outcome=event.outcome,
            n_contaminated=event.n_contaminated,
            activated=event.activated,
            detail=event.detail,
            planned=tuple(event.planned),
            fired=tuple(
                ScenarioObservation(dict(b)) if "scenario" in b
                else FlipObservation.from_payload(b)
                for b in event.fired
            ),
            timeline=tuple((step, rank) for step, rank in event.timeline),
        )


def build_trial_provenance(
    trial: int,
    plan: "ScenarioPlan",
    run: "TrialRun",
    record: "TrialRecord",
) -> TrialProvenance:
    """Assemble the provenance event for one finished trial.

    Called by :meth:`repro.fi.scenarios.base.FaultModel.finish` for every
    trial of every family, after outcome classification, while the
    trial's run still holds the applied faults and the contamination
    timeline.
    """
    return FaultProvenance(
        trial=trial,
        outcome=record.outcome.value,
        n_contaminated=record.n_contaminated,
        activated=record.activated,
        detail=record.detail,
        planned=tuple(plan.to_payload()),
        fired=tuple(run.observations()),
        timeline=tuple(run.timeline()),
    ).to_event()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def provenance_path(trace_path: str | Path) -> Path:
    """The provenance file written alongside a ``--trace-out`` trace.

    ``run.jsonl`` → ``run.provenance.jsonl`` (any other extension is
    replaced the same way; an extensionless path gains the suffix).
    """
    path = Path(trace_path)
    return path.with_name(path.stem + ".provenance.jsonl")


def load_provenance(
    path: str | Path, on_skip: Callable[[str], None] | None = None
) -> list[FaultProvenance]:
    """Replay a ``provenance.jsonl`` file into typed records.

    Partial trailing lines are skipped (reported through ``on_skip``,
    like :func:`repro.obs.sinks.load_trace`); unknown event types are
    ignored for forward compatibility.
    """
    from repro.obs.sinks import load_trace  # deferred: sinks import events only

    return [
        FaultProvenance.from_event(event)
        for event in load_trace(path, on_skip=on_skip)
        if isinstance(event, TrialProvenance)
    ]
