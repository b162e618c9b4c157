"""Section 1 motivation: why injecting at scale is expensive.

The paper measures, for CG with four MPI processes vs serial, 74.5 %
more dynamic instructions under instrumentation and 58 % more F-SEFI
fault-injection time.  On our substrate the *application* FP work is
conserved across scales by construction (the reduce-scatter combination
adds exactly replace serial row-sum adds), so the instruction-growth
analogue is the number of runtime events the injector must process
(compute bursts between communication).  Events and traced instructions
are deterministic; the fault-injection wall-time growth is measured too,
but it depends on the host's load, so it is reported for information.
"""

from __future__ import annotations

from repro.apps import get_app
from repro.experiments.common import default_trials
from repro.fi.cache import cached_campaign
from repro.fi.campaign import Deployment
from repro.fi.scenarios.base import fault_free_run
from repro.utils.tables import format_table

__all__ = ["run"]


def _execution_events(app, nprocs: int) -> int:
    """Scheduler events of one fault-free run (instrumentation load)."""
    return fault_free_run(app, nprocs).steps


def run(trials: int | None = None, seed: int = 0, quiet: bool = False) -> dict:
    """Regenerate the CG serial-vs-4-process overhead comparison."""
    trials = default_trials(trials)
    app = get_app("cg")
    serial = cached_campaign(app, Deployment(nprocs=1, trials=trials, seed=seed + 10_001))
    par4 = cached_campaign(app, Deployment(nprocs=4, trials=trials, seed=seed + 20_004))
    ev1, ev4 = _execution_events(app, 1), _execution_events(app, 4)

    def growth(new, old):
        return new / old - 1.0 if old else float("nan")

    out = {
        "serial_instructions": serial.total_instructions,
        "par4_instructions": par4.total_instructions,
        "instruction_growth": growth(par4.total_instructions, serial.total_instructions),
        "serial_events": ev1,
        "par4_events": ev4,
        "event_growth": growth(ev4, ev1),
        "serial_injection_time": serial.injection_time,
        "par4_injection_time": par4.injection_time,
        "injection_time_growth": growth(par4.injection_time, serial.injection_time),
    }
    if not quiet:
        rows = [
            ("dynamic FP instructions", serial.total_instructions,
             par4.total_instructions,
             f"+{100 * out['instruction_growth']:.1f}%"),
            ("runtime events to instrument", ev1, ev4,
             f"+{100 * out['event_growth']:.1f}%"),
            ("fault-injection time (s, information)",
             round(serial.injection_time, 2), round(par4.injection_time, 2),
             f"{100 * out['injection_time_growth']:+.1f}%"),
        ]
        print(
            format_table(
                ["metric", "serial", "4 processes", "growth"],
                rows,
                title="Motivation (paper §1) — CG instrumentation overhead",
            )
        )
        print(
            "note: application FP instruction count is conserved across "
            "scales on this substrate; the paper's 74.5% instruction growth "
            "includes MPI-library/system instructions (see EXPERIMENTS.md)."
        )
    return out
