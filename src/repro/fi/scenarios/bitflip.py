"""The classic transient bit-flip family — the default scenario.

:class:`BitFlipModel` is the paper's fault model behind the
:class:`~repro.fi.scenarios.base.FaultModel` contract: sample
dynamic-instruction sites from the profiling pass, arm the
instruction-level tracer (:class:`FlipRun`), classify the perturbed
output.  The base class runs, records and reports each trial; records,
events, and ``*.provenance.jsonl`` sidecars are byte-identical to the
pre-scenario pipeline for any jobs × lanes × resume combination
(``tests/unit/test_scenarios.py`` pins this against captured goldens).

It is the only family with ``supports_lanes=True``: lane batching
replays exactly this trial semantics N-at-a-time (see
``docs/performance.md``), which is not established for the
system-level families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CommunicatorError, DeadlockError, FaultActivatedError
from repro.fi.outcomes import Outcome, classify_outcome
from repro.fi.plan import InjectionPlan, PlannedFlip, sample_plan
from repro.fi.scenarios.base import FaultModel, TrialRun
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import FaultInjected

if TYPE_CHECKING:
    import numpy as np

    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["BitFlipModel", "FlipRun"]


class FlipRun(TrialRun):
    """A bit-flip trial's run: the tracer that injects its plan and
    collects the flips that fired and the ranks they contaminated."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def execute(self, app, deployment) -> list:
        return execute_spmd(
            app.program, deployment.nprocs, sink=self.tracer,
            max_steps=deployment.max_steps,
        )

    def flips(self) -> list[PlannedFlip]:
        """The planned flips that fired."""
        return self.tracer.activated_flips

    def activated(self) -> bool:
        return self.tracer.all_flips_activated

    def n_contaminated(self) -> int:
        return self.tracer.contaminated_count()

    def observations(self):
        return self.tracer.flip_observations

    def timeline(self):
        return self.tracer.contamination_timeline


class BitFlipModel(FaultModel):
    """Flip sampled bits of sampled dynamic floating-point instructions."""

    name = "bitflip"
    PARAMS = ()
    supports_lanes = True
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
    ) -> InjectionPlan:
        return sample_plan(
            profile,
            rng,
            n_errors=deployment.n_errors,
            target_rank=deployment.effective_target_rank,
            region=deployment.region,
            bits_per_error=deployment.bits_per_error,
        )

    def arm(self, trial: int, plan: InjectionPlan) -> FlipRun:
        return FlipRun(Tracer(TracerMode.INJECT, plan))

    def complete(self, outputs, reference, app, obs) -> tuple[Outcome, str]:
        with obs.span("classify"):
            return classify_outcome(outputs[0], reference, app.verify), ""

    def fired_events(self, trial: int, run: FlipRun) -> list[FaultInjected]:
        return [
            FaultInjected(
                trial=trial, rank=flip.rank, region=flip.region.value,
                index=flip.index, bit=flip.bit,
            )
            for flip in run.flips()
        ]
