"""The classic transient bit-flip family — the default scenario.

:class:`BitFlipModel` is the paper's fault model re-expressed behind
the :class:`~repro.fi.scenarios.base.FaultModel` contract: sample
dynamic-instruction sites from the profiling pass, arm the
instruction-level tracer, classify the perturbed output.  Its
``run_trial`` is the pre-refactor ``run_one_trial`` body verbatim —
records, events, and ``*.provenance.jsonl`` sidecars are byte-identical
to the pre-scenario pipeline for any jobs × lanes × resume combination
(``tests/unit/test_scenarios.py`` pins this against captured goldens).

It is the only family with ``supports_lanes=True``: lane batching
replays exactly this trial semantics N-at-a-time (see
``docs/performance.md``), which is not established for the
system-level families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CommunicatorError, DeadlockError, FaultActivatedError
from repro.fi.outcomes import Outcome, TrialRecord, classify_outcome
from repro.fi.plan import InjectionPlan, sample_plan
from repro.fi.scenarios.base import FaultModel
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import FaultInjected, TrialFinished
from repro.obs.provenance import build_trial_provenance
from repro.utils.rng import trial_seed

if TYPE_CHECKING:
    import numpy as np

    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["BitFlipModel"]


class BitFlipModel(FaultModel):
    """Flip sampled bits of sampled dynamic floating-point instructions."""

    name = "bitflip"
    PARAMS = ()
    supports_lanes = True

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
            tracer = Tracer(TracerMode.INJECT, plan)
            detail = ""
            try:
                with obs.span("inject"):
                    outs = execute_spmd(
                        app.program, deployment.nprocs, sink=tracer,
                        max_steps=deployment.max_steps,
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
            activated=tracer.all_flips_activated,
            detail=detail,
        )
        if obs.enabled:
            obs.counter(f"campaign.trials.{outcome.value}")
            obs.observe("taint.contamination_spread", record.n_contaminated)
            for flip in tracer.activated_flips:
                obs.emit(FaultInjected(
                    trial=trial, rank=flip.rank, region=flip.region.value,
                    index=flip.index, bit=flip.bit,
                ))
            obs.emit(TrialFinished(
                trial=trial, outcome=outcome.value,
                n_contaminated=record.n_contaminated,
                activated=record.activated,
                duration_s=span.duration,
            ))
            obs.emit(build_trial_provenance(trial, plan, tracer, record))
        return record
