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

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    FaultActivatedError,
)
from repro.fi.outcomes import Outcome, classify_outcome
from repro.fi.scenarios.base import (
    SiteFaultModel,
    SiteRun,
    count_corruptible,
    execution_dynamics,
)
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.numerics.bits import bit_width, flip_bit_scalar
from repro.obs import MessageCorrupted
from repro.taint.tarray import TArray

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


class _CorruptSites(SiteRun):
    """Transit hook of a site-driven run: each plan's delivery site.

    Deliveries are counted in the scheduler's deterministic order, so a
    fixed ``(seed, trial)`` corrupts the same payload in every run.  The
    armed trial's ``fired`` holds the observed corruption; a plan-less
    tracer collects contamination marks and their timeline only — no
    instruction-level injection.
    """

    def __init__(
        self,
        plans: dict[int, MessageCorruptionPlan],
        reach: Callable[[int], bool],
    ):
        self._plans = plans
        self._reach = reach
        #: pending ``(delivery, trial)`` sites, ascending
        self._sites = deque(sorted(
            (plan.delivery, trial) for trial, plan in plans.items()
        ))
        self._seen = 0  # corruptible leaves delivered so far
        self._target: MessageCorruptionPlan | None = None
        self.tracer = Tracer(TracerMode.PROFILE)

    def execute(self, app, deployment) -> list:
        return execute_spmd(
            app.program, deployment.nprocs, sink=self.tracer,
            max_steps=deployment.max_steps, transit=self,
        )

    def n_contaminated(self) -> int:
        return self.tracer.contaminated_count()

    def timeline(self):
        return self.tracer.contamination_timeline

    # -- TransitHook -----------------------------------------------------
    def on_p2p(self, src: int, dst: int, payload: Any) -> Any:
        return self._intercept(payload, kind="p2p", src=src, dest=dst)

    def on_collective(self, kind: str, rank: int, payload: Any) -> Any:
        return self._intercept(payload, kind=kind, src=-1, dest=rank)

    # --------------------------------------------------------------------
    def _intercept(self, payload: Any, kind: str, src: int, dest: int) -> Any:
        sites = self._sites
        if not sites:
            return payload  # fired, or every site visited
        end = self._seen + count_corruptible(payload)
        while sites and sites[0][0] < end:
            _, trial = sites.popleft()
            if self._reach(trial):
                sites.clear()  # the armed trial corrupts its own site only
                self._target = self._plans[trial]
                corrupted = self._visit(payload)
                self.fired.update(kind=kind, src=src, dest=dest)
                return corrupted
        self._seen = end
        return payload

    def _visit(self, payload: Any) -> Any:
        """Rebuild ``payload`` with the target leaf corrupted."""
        if self.fired is not None:
            return payload
        if isinstance(payload, TArray):
            if self._seen == self._target.delivery:
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
        element = min(int(self._target.element_u * flat.size), flat.size - 1)
        bit = self._target.bit % bit_width(faulty.dtype)
        pre = float(flat[element])
        post = flip_bit_scalar(pre, bit, faulty.dtype)
        flat[element] = post
        self.fired = {
            "scenario": "msgcorrupt", "delivery": self._target.delivery,
            "element": element, "bit": bit, "pre": pre, "post": post,
        }
        # golden stays shared: payload_diverged() sees the corruption and
        # the scheduler marks the receiver contaminated as usual
        return TArray(arr.golden, faulty)


class MessageCorruptionModel(SiteFaultModel):
    """Flip one sampled bit of one sampled payload delivery in transit."""

    name = "msgcorrupt"
    PARAMS = ("bit",)
    FAILURES = (
        (FaultActivatedError, "crash"),
        (DeadlockError, "hang"),
        (CommunicatorError, "hang"),
    )

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

    def attach(
        self,
        plans: dict[int, MessageCorruptionPlan],
        reach: Callable[[int], bool],
    ) -> _CorruptSites:
        return _CorruptSites(plans, reach)

    def complete(self, outputs, reference, app, obs) -> tuple[Outcome, str]:
        with obs.span("classify"):
            return classify_outcome(outputs[0], reference, app.verify), ""

    def fired_events(self, trial: int, run: _CorruptSites):
        fired = run.fired
        if fired is not None:
            yield MessageCorrupted(
                trial=trial, kind=fired["kind"], src=fired["src"],
                dest=fired["dest"], element=fired["element"], bit=fired["bit"],
            )
