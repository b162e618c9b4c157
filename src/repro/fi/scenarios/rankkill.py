"""Fail-stop scenario family: kill one rank mid-execution.

:class:`RankKillModel` studies process failure rather than data
corruption — the other axis of the paper's resilience space.  Each
trial samples a victim rank (uniform, or pinned with
``rankkill:rank=R``) and a scheduler step uniform over the fault-free
execution's step count, arms the scheduler's
:class:`~repro.mpisim.faults.RankFailure` controller, and classifies
what the survivors do:

* ``abort`` — communication with the dead rank tore the job down
  (:class:`~repro.errors.CollectiveAbortError`): a send targeting it,
  or a collective it can never join;
* ``deadlock`` — survivors wedged on point-to-point messages the dead
  rank will never send (:class:`~repro.errors.InjectedDeadlockError`);
* completion — ranks that never needed the victim again finish; the
  trial is then classified against the reference output (rank 0's
  death loses the output and counts as failure).

A victim that finishes before its sampled step leaves the fault unfired
— the ``activated=False`` analogue of a bit flip missed by shortened
control flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    CollectiveAbortError,
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    FaultActivatedError,
)
from repro.fi.outcomes import Outcome, TrialRecord, classify_outcome
from repro.fi.scenarios.base import (
    FaultModel,
    emit_scenario_provenance,
    execution_dynamics,
)
from repro.mpisim.faults import RankFailure
from repro.mpisim.runner import execute_spmd
from repro.obs import RankKilled, TrialFinished
from repro.utils.rng import trial_seed

if TYPE_CHECKING:
    import numpy as np

    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = ["RankKillModel", "RankKillPlan"]


@dataclass(frozen=True)
class RankKillPlan:
    """One armed fail-stop: kill ``rank`` at scheduler step ``step``."""

    rank: int
    step: int

    def to_payload(self) -> list[dict]:
        return [{"scenario": "rankkill", "rank": self.rank, "step": self.step}]


class RankKillModel(FaultModel):
    """Fail-stop a uniformly sampled rank at a uniformly sampled step."""

    name = "rankkill"
    PARAMS = ("rank",)

    def sample(
        self,
        profile: "InstructionProfile",
        rng: "np.random.Generator",
        *,
        app: "AppProtocol",
        deployment: "Deployment",
    ) -> RankKillPlan:
        dynamics = execution_dynamics(app, deployment)
        victim = self.int_param("rank")
        if victim is None:
            victim = int(rng.integers(0, deployment.nprocs))
        elif victim >= deployment.nprocs:
            raise ConfigurationError(
                f"scenario parameter rank={victim} outside "
                f"communicator of size {deployment.nprocs}"
            )
        step = int(rng.integers(1, max(2, dynamics.steps + 1)))
        return RankKillPlan(victim, step)

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
            failure = RankFailure(rank=plan.rank, step=plan.step)
            detail = ""
            try:
                with obs.span("inject"):
                    outs = execute_spmd(
                        app.program, deployment.nprocs,
                        max_steps=deployment.max_steps, fail_stop=failure,
                    )
            except CollectiveAbortError as exc:
                outcome, detail = Outcome.FAILURE, f"abort: {exc}"
            except DeadlockError as exc:
                outcome, detail = Outcome.FAILURE, f"deadlock: {exc}"
            except FaultActivatedError as exc:
                outcome, detail = Outcome.FAILURE, f"crash: {exc}"
            except CommunicatorError as exc:
                outcome, detail = Outcome.FAILURE, f"hang: {exc}"
            else:
                if outs[0] is None:
                    outcome = Outcome.FAILURE
                    detail = "lost: rank 0 fail-stopped; no output to verify"
                else:
                    with obs.span("classify"):
                        outcome = classify_outcome(outs[0], reference, app.verify)
            span.set(outcome=outcome.value)
        record = TrialRecord(
            outcome=outcome,
            n_contaminated=0,
            activated=failure.fired,
            detail=detail,
        )
        if obs.enabled:
            obs.counter(f"campaign.trials.{outcome.value}")
            obs.observe("taint.contamination_spread", record.n_contaminated)
            fired: list[dict] = []
            if failure.fired:
                obs.emit(RankKilled(
                    trial=trial, rank=failure.rank, step=failure.fired_step,
                ))
                fired = [{
                    "scenario": "rankkill",
                    "rank": failure.rank, "step": failure.fired_step,
                }]
            obs.emit(TrialFinished(
                trial=trial, outcome=outcome.value,
                n_contaminated=record.n_contaminated,
                activated=record.activated,
                duration_s=span.duration,
            ))
            emit_scenario_provenance(
                obs, trial, record, plan.to_payload(), fired,
            )
        return record
