"""Sensitivity analysis: outcome rates by bit position and operand.

The paper's fault injector heritage (F-SEFI / P-FSEFI, and the authors'
observation in §2 that results are "sensitive to what type of
instruction is randomly selected") motivates a finer breakdown than the
aggregate campaign rates: *where* in the IEEE-754 word the flip lands
(mantissa / exponent / sign), which operand it corrupts, and which
instruction kind it hits.  This module runs single-error deployments and
aggregates outcomes along those axes — useful for explaining why an
application's success rate is what it is (low-mantissa flips are almost
always absorbed; exponent flips dominate SDC and crashes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    FaultActivatedError,
)
from repro.fi.campaign import AppProtocol, Deployment
from repro.fi.outcomes import Outcome, classify_outcome
from repro.fi.plan import sample_plan
from repro.fi.scenarios.base import fault_free_run
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.numerics.bits import classify_bit, BitField
from repro.taint.tracer_api import Operand
from repro.utils.rng import trial_seed

__all__ = ["SensitivityReport", "run_sensitivity"]


@dataclass
class SensitivityReport:
    """Outcome counts broken down by flip location."""

    app_name: str
    deployment: Deployment
    by_bit_field: dict[tuple[BitField, Outcome], int] = field(default_factory=dict)
    by_operand: dict[tuple[Operand, Outcome], int] = field(default_factory=dict)
    by_bit: dict[int, dict[Outcome, int]] = field(default_factory=dict)

    def _bump(self, table: dict, key, outcome: Outcome) -> None:
        table[(key, outcome)] = table.get((key, outcome), 0) + 1

    def record(self, bit: int, operand: Operand, outcome: Outcome) -> None:
        """Attribute one test's outcome to its flip site."""
        self._bump(self.by_bit_field, classify_bit(bit), outcome)
        self._bump(self.by_operand, operand, outcome)
        per_bit = self.by_bit.setdefault(bit, {})
        per_bit[outcome] = per_bit.get(outcome, 0) + 1

    # ------------------------------------------------------------------
    def success_rate_by_bit_field(self) -> dict[BitField, float]:
        """Success rate per IEEE-754 field (mantissa/exponent/sign)."""
        out = {}
        for bf in BitField:
            total = sum(
                c for (k, _), c in self.by_bit_field.items() if k == bf
            )
            if total:
                succ = self.by_bit_field.get((bf, Outcome.SUCCESS), 0)
                out[bf] = succ / total
        return out

    def success_rate_by_operand(self) -> dict[Operand, float]:
        """Success rate per corrupted operand (A / B / OUT)."""
        out = {}
        for op in Operand:
            total = sum(c for (k, _), c in self.by_operand.items() if k == op)
            if total:
                succ = self.by_operand.get((op, Outcome.SUCCESS), 0)
                out[op] = succ / total
        return out

    def failure_rate_by_bit_field(self) -> dict[BitField, float]:
        """Crash/hang rate per IEEE-754 field."""
        out = {}
        for bf in BitField:
            total = sum(c for (k, _), c in self.by_bit_field.items() if k == bf)
            if total:
                fails = self.by_bit_field.get((bf, Outcome.FAILURE), 0)
                out[bf] = fails / total
        return out


def run_sensitivity(app: AppProtocol, deployment: Deployment) -> SensitivityReport:
    """Run a single-error deployment, attributing outcomes to flip sites."""
    if deployment.n_errors != 1:
        raise ConfigurationError("sensitivity analysis requires single-error tests")
    golden = fault_free_run(app, deployment.nprocs)
    profile, reference = golden.profile(), golden.reference()

    report = SensitivityReport(app_name=app.name, deployment=deployment)
    for trial in range(deployment.trials):
        rng = trial_seed(deployment.seed, trial)
        plan = sample_plan(
            profile,
            rng,
            target_rank=deployment.effective_target_rank,
            region=deployment.region,
        )
        tracer = Tracer(TracerMode.INJECT, plan)
        try:
            outs = execute_spmd(app.program, deployment.nprocs, sink=tracer)
        except FaultActivatedError:
            outcome = Outcome.FAILURE
        except (DeadlockError, CommunicatorError):
            outcome = Outcome.FAILURE
        else:
            outcome = classify_outcome(outs[0], reference, app.verify)
        (flip,) = plan.flips
        report.record(flip.bit, flip.operand, outcome)
    return report
