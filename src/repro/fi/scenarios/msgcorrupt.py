"""Message-corruption scenario family: flip bits in payloads in transit.

:class:`MessageCorruptionModel` models a faulty interconnect rather
than a faulty FPU: each trial samples one delivery uniformly from the
fault-free execution's corruptible delivery stream (point-to-point
envelopes and per-rank collective results, counted in the scheduler's
deterministic delivery order), one bit position, and one element, then
flips that bit in the payload's *faulty* copy as the scheduler hands it
over.  The golden copy is untouched, so the existing divergence
machinery — contamination marks on delivery, outcome classification
against the reference — observes the corruption with no scenario code
in the scheduler beyond the generic transit hook.

Like a bit flip absorbed by rounding, a corruption can be masked (the
flipped value round-trips to the same result) and the trial then counts
as success with contamination recorded honestly by the taint layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    FaultActivatedError,
)
from repro.fi.outcomes import Outcome, TrialRecord, classify_outcome
from repro.fi.scenarios.base import (
    FaultModel,
    count_corruptible,
    emit_scenario_provenance,
    execution_dynamics,
)
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.numerics.bits import bit_width, flip_bit_scalar
from repro.obs import MessageCorrupted, TrialFinished
from repro.taint.tarray import TArray
from repro.utils.rng import trial_seed

if TYPE_CHECKING:
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["MessageCorruptionModel", "MessageCorruptionPlan"]


@dataclass(frozen=True)
class MessageCorruptionPlan:
    """One in-transit corruption: flip ``bit`` in delivery ``delivery``.

    ``element_u`` is a uniform draw in ``[0, 1)`` scaled to the target
    payload's element count at corruption time, so the plan stays valid
    without knowing payload shapes up front.
    """

    delivery: int
    bit: int
    element_u: float

    def to_payload(self) -> list[dict]:
        return [{
            "scenario": "msgcorrupt", "delivery": self.delivery,
            "bit": self.bit, "element_u": self.element_u,
        }]


class _TransitCorruptor:
    """Transit hook that corrupts the plan's target delivery, then idles.

    Deliveries are counted in the scheduler's deterministic order, so a
    fixed ``(seed, trial)`` corrupts the same payload in every run.
    ``fired`` holds the observed corruption (or None when the execution
    ended before the target delivery).
    """

    __slots__ = ("_plan", "_seen", "fired")

    def __init__(self, plan: MessageCorruptionPlan):
        self._plan = plan
        self._seen = 0
        self.fired: dict | None = None

    # -- TransitHook -----------------------------------------------------
    def on_p2p(self, src: int, dst: int, payload: Any) -> Any:
        return self._intercept(payload, kind="p2p", src=src, dest=dst)

    def on_collective(self, kind: str, rank: int, payload: Any) -> Any:
        return self._intercept(payload, kind=kind, src=-1, dest=rank)

    # --------------------------------------------------------------------
    def _intercept(self, payload: Any, kind: str, src: int, dest: int) -> Any:
        if self.fired is not None:
            return payload
        leaves = count_corruptible(payload)
        if self._seen + leaves <= self._plan.delivery:
            # cheap skip: the target delivery is not in this payload
            self._seen += leaves
            return payload
        corrupted = self._visit(payload)
        if self.fired is not None:
            self.fired.update(kind=kind, src=src, dest=dest)
        return corrupted

    def _visit(self, payload: Any) -> Any:
        """Rebuild ``payload`` with the target leaf corrupted."""
        if self.fired is not None:
            return payload
        if isinstance(payload, TArray):
            if self._seen == self._plan.delivery:
                self._seen += 1
                return self._corrupt_leaf(payload)
            self._seen += 1
            return payload
        if isinstance(payload, dict):
            return {key: self._visit(val) for key, val in payload.items()}
        if isinstance(payload, (list, tuple)):
            return type(payload)(self._visit(val) for val in payload)
        return payload

    def _corrupt_leaf(self, arr: TArray) -> TArray:
        faulty = np.array(arr.faulty)  # the frozen faulty copy, writable
        flat = faulty.reshape(-1)
        element = min(int(self._plan.element_u * flat.size), flat.size - 1)
        bit = self._plan.bit % bit_width(faulty.dtype)
        pre = float(flat[element])
        post = flip_bit_scalar(pre, bit, faulty.dtype)
        flat[element] = post
        self.fired = {
            "scenario": "msgcorrupt", "delivery": self._plan.delivery,
            "element": element, "bit": bit, "pre": pre, "post": post,
        }
        # golden stays shared: payload_diverged() sees the corruption and
        # the scheduler marks the receiver contaminated as usual
        return TArray(arr.golden, faulty)


class MessageCorruptionModel(FaultModel):
    """Flip one sampled bit of one sampled payload delivery in transit."""

    name = "msgcorrupt"
    PARAMS = ("bit",)

    def sample(
        self,
        profile: "InstructionProfile",
        rng: "np.random.Generator",
        *,
        app: "AppProtocol",
        deployment: "Deployment",
    ) -> MessageCorruptionPlan:
        dynamics = execution_dynamics(app, deployment)
        if dynamics.deliveries < 1:
            raise ConfigurationError(
                f"app {app.name!r} exchanges no corruptible payloads at "
                f"nprocs={deployment.nprocs}; msgcorrupt needs message traffic"
            )
        delivery = int(rng.integers(0, dynamics.deliveries))
        bit = self.int_param("bit")
        if bit is None:
            bit = int(rng.integers(0, 64))
        element_u = float(rng.random())
        return MessageCorruptionPlan(delivery, bit, element_u)

    def run_trial(
        self,
        app: "AppProtocol",
        deployment: "Deployment",
        profile: "InstructionProfile",
        reference: dict,
        trial: int,
        obs,
    ) -> TrialRecord:
        with obs.span(
            "trial", trial, cat="trial", args={"trial": trial},
        ) as span:
            rng = trial_seed(deployment.seed, trial)
            with obs.span("plan"):
                plan = self.sample(profile, rng, app=app, deployment=deployment)
            # a plan-less tracer: contamination marks and their timeline
            # only — no instruction-level injection
            tracer = Tracer(TracerMode.PROFILE)
            corruptor = _TransitCorruptor(plan)
            detail = ""
            try:
                with obs.span("inject"):
                    outs = execute_spmd(
                        app.program, deployment.nprocs, sink=tracer,
                        max_steps=deployment.max_steps, transit=corruptor,
                    )
            except FaultActivatedError as exc:
                outcome, detail = Outcome.FAILURE, f"crash: {exc}"
            except (DeadlockError, CommunicatorError) as exc:
                outcome, detail = Outcome.FAILURE, f"hang: {exc}"
            else:
                with obs.span("classify"):
                    outcome = classify_outcome(outs[0], reference, app.verify)
            span.set(outcome=outcome.value)
        record = TrialRecord(
            outcome=outcome,
            n_contaminated=tracer.contaminated_count(),
            activated=corruptor.fired is not None,
            detail=detail,
        )
        if obs.enabled:
            obs.counter(f"campaign.trials.{outcome.value}")
            obs.observe("taint.contamination_spread", record.n_contaminated)
            fired: list[dict] = []
            if corruptor.fired is not None:
                blob = corruptor.fired
                obs.emit(MessageCorrupted(
                    trial=trial, kind=blob["kind"], src=blob["src"],
                    dest=blob["dest"], element=blob["element"],
                    bit=blob["bit"],
                ))
                fired = [blob]
            obs.emit(TrialFinished(
                trial=trial, outcome=outcome.value,
                n_contaminated=record.n_contaminated,
                activated=record.activated,
                duration_s=span.duration,
            ))
            emit_scenario_provenance(
                obs, trial, record, plan.to_payload(), fired,
                timeline=tuple(tracer.contamination_timeline),
            )
        return record
