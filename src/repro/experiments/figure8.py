"""Figure 8: modeling accuracy vs fault-injection cost across scales.

Sweeps the small-scale size S in {4, 8, 16, 32}; for each S, predicts
all six benchmarks at 64 ranks and reports (a) the RMSE of the success-
rate predictions (Eq. 9) and (b) the fault-injection cost of the S-rank
campaign, normalized to serial: the runtime events (scheduler steps) of
one fault-free run, which is deterministic, and the injection wall
time, which depends on the host's load and is reported for information.
The paper finds accuracy improves and cost grows with S, balancing
around S = 16.
"""

from __future__ import annotations

from repro.apps import get_app, paper_apps
from repro.experiments.common import (
    build_predictor,
    default_trials,
    measured_campaign,
    small_campaign,
)
from repro.experiments.motivation import _execution_events
from repro.fi.cache import cached_campaign
from repro.fi.campaign import Deployment
from repro.model.metrics import rmse
from repro.model.result import FaultInjectionResult
from repro.utils.tables import format_table

__all__ = ["run"]

TARGET = 64
SCALES = (4, 8, 16, 32)


def run(
    trials: int | None = None,
    seed: int = 0,
    quiet: bool = False,
    scales: tuple[int, ...] = SCALES,
    target: int = TARGET,
    apps: list[str] | None = None,
) -> dict:
    """Regenerate Fig. 8 (RMSE and normalized injection cost per S)."""
    trials = default_trials(trials)
    apps = apps or paper_apps()

    # serial baselines per app: events of one fault-free run, and the
    # injection time of a single-error deployment
    serial_events: dict[str, int] = {}
    serial_times: dict[str, float] = {}
    for name in apps:
        serial_events[name] = _execution_events(get_app(name), 1)
        dep = Deployment(nprocs=1, trials=trials, seed=seed + 10_001)
        serial_times[name] = cached_campaign(get_app(name), dep).injection_time

    rows = []
    out: dict[int, dict] = {}
    for s in scales:
        pairs = []
        event_ratios = []
        time_ratios = []
        for name in apps:
            predictor = build_predictor(
                name, small_nprocs=s, target_nprocs=target, trials=trials, seed=seed
            )
            predicted = predictor.predict(target)
            measured = FaultInjectionResult.from_campaign(
                measured_campaign(get_app(name), target, trials, seed)
            )
            pairs.append((predicted, measured))
            event_ratios.append(_execution_events(get_app(name), s) / serial_events[name])
            small = small_campaign(get_app(name), s, trials, seed)
            time_ratios.append(small.injection_time / max(serial_times[name], 1e-9))
        value = rmse(pairs)
        mean_events = sum(event_ratios) / len(event_ratios)
        mean_time = sum(time_ratios) / len(time_ratios)
        out[s] = {"rmse": value, "normalized_events": mean_events,
                  "normalized_time": mean_time}
        rows.append((s, value, mean_events, mean_time))
    if not quiet:
        print(
            format_table(
                ["small scale S", "RMSE (success rate)", "FI events / serial",
                 "FI time / serial (information)"],
                rows,
                title="Figure 8 — accuracy vs fault-injection cost",
            )
        )
    return out
