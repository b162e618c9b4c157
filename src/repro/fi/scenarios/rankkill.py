"""Fail-stop scenario family: kill one rank mid-execution.

:class:`RankKillModel` studies process failure rather than data
corruption — the other axis of the paper's resilience space.  Each
trial samples a victim rank (uniform, or pinned with
``rankkill:rank=R``) and a scheduler step uniform over the fault-free
execution's step count; the scheduler's fail-stop seam kills the victim
at the first kill check past that step (its *kill site*), and the trial
classifies what the survivors do:

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
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    CollectiveAbortError,
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    FaultActivatedError,
)
from repro.fi.outcomes import Outcome, classify_outcome
from repro.fi.scenarios.base import SiteFaultModel, SiteRun, execution_dynamics
from repro.mpisim.runner import execute_spmd
from repro.obs import RankKilled

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


class RankKillModel(SiteFaultModel):
    """Fail-stop a uniformly sampled rank at a uniformly sampled step."""

    name = "rankkill"
    PARAMS = ("rank",)
    FAILURES = (
        (CollectiveAbortError, "abort"),
        (DeadlockError, "deadlock"),
        (FaultActivatedError, "crash"),
        (CommunicatorError, "hang"),
    )

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

    def attach(
        self, plans: dict[int, RankKillPlan], reach: Callable[[int], bool]
    ) -> "_KillSites":
        return _KillSites(plans, reach)

    def complete(self, outputs, reference, app, obs) -> tuple[Outcome, str]:
        if outputs[0] is None:
            return Outcome.FAILURE, "lost: rank 0 fail-stopped; no output to verify"
        with obs.span("classify"):
            return classify_outcome(outputs[0], reference, app.verify), ""

    def fired_events(self, trial: int, run: "_KillSites"):
        fired = run.fired
        if fired is not None:
            yield RankKilled(trial=trial, rank=fired["rank"], step=fired["step"])


class _KillSites(SiteRun):
    """The fail-stop seam of a site-driven run (:class:`~repro.mpisim.
    faults.FailStop`): each plan's ``(step, victim)`` kill site."""

    def __init__(
        self, plans: dict[int, RankKillPlan], reach: Callable[[int], bool]
    ):
        self._reach = reach
        #: victim -> pending ``(step, trial)`` sites, ascending
        self._sites: dict[int, list[tuple[int, int]]] = {}
        for trial, plan in plans.items():
            self._sites.setdefault(plan.rank, []).append((plan.step, trial))
        for sites in self._sites.values():
            sites.sort()

    def execute(self, app, deployment) -> list:
        return execute_spmd(
            app.program, deployment.nprocs,
            max_steps=deployment.max_steps, fail_stop=self,
        )

    def due(self, rank: int) -> int | None:
        sites = self._sites.get(rank)
        return sites[0][0] if sites else None

    def strike(self, rank: int, step: int) -> bool:
        _, trial = self._sites[rank].pop(0)
        if not self._reach(trial):
            return False
        self._sites.clear()  # the armed trial kills its own victim only
        self.fired = {"scenario": "rankkill", "rank": rank, "step": step}
        return True
