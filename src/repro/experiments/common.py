"""Shared orchestration for the experiment harnesses.

Centralizes trial counts, seeds per campaign role, cached campaign
construction, and assembly of :class:`PredictionInputs` for an app.
"""

from __future__ import annotations

from repro.apps import get_app
from repro.apps.base import AppSpec
from repro.fi.cache import cached_campaign, cached_unique_fraction_stats
from repro.fi.campaign import CampaignResult, Deployment
from repro.knobs import env_value
from repro.model.predictor import PredictionInputs, ResiliencePredictor
from repro.model.result import FaultInjectionResult
from repro.model.sampling import SerialSamplePlan
from repro.taint.region import Region

__all__ = [
    "default_trials",
    "serial_sample_results",
    "small_campaign",
    "measured_campaign",
    "unique_campaign",
    "unique_fraction",
    "unique_fraction_stats",
    "build_predictor",
]

#: Seed offsets per campaign role keep random streams independent.
_SEED_SERIAL = 10_000
_SEED_SMALL = 20_000
_SEED_UNIQUE = 30_000
_SEED_MEASURED = 40_000


def default_trials(trials: int | None = None) -> int:
    """Trials per deployment: arg > $REPRO_TRIALS > 300.

    The paper runs 4000 tests per deployment; 300 keeps the full harness
    tractable on one machine while the binomial CI (about +/- 5 pp at
    300 trials) stays small against the effects being measured.  Export
    ``REPRO_TRIALS=4000`` for a paper-strength run.
    """
    return env_value("trials") if trials is None else trials


# ----------------------------------------------------------------------
# campaign builders (all cached).  ``knobs`` are Deployment knob fields
# (``jobs=``, ``ci_halfwidth=``, ...; see repro.knobs) applied to every
# campaign a builder runs.
# ----------------------------------------------------------------------
def serial_sample_results(
    app: AppSpec, target_nprocs: int, n_samples: int, trials: int, seed: int = 0,
    **knobs,
) -> dict[int, FaultInjectionResult]:
    """FI_ser_x at the sample plan's cases (multi-error serial runs)."""
    plan = SerialSamplePlan(large_nprocs=target_nprocs, n_samples=n_samples)
    out: dict[int, FaultInjectionResult] = {}
    for x in plan.sample_cases:
        dep = Deployment(
            nprocs=1, trials=trials, n_errors=x, region=Region.COMMON,
            seed=seed + _SEED_SERIAL + x, **knobs,
        )
        out[x] = FaultInjectionResult.from_campaign(cached_campaign(app, dep))
    return out


def small_campaign(
    app: AppSpec, nprocs: int, trials: int, seed: int = 0, **knobs,
) -> CampaignResult:
    """Single-error campaign at a small scale (propagation + alpha input)."""
    dep = Deployment(
        nprocs=nprocs, trials=trials, seed=seed + _SEED_SMALL + nprocs, **knobs,
    )
    return cached_campaign(app, dep)


def measured_campaign(
    app: AppSpec, nprocs: int, trials: int, seed: int = 0, **knobs,
) -> CampaignResult:
    """Ground-truth campaign at the target scale (for accuracy figures)."""
    dep = Deployment(
        nprocs=nprocs, trials=trials, seed=seed + _SEED_MEASURED + nprocs,
        **knobs,
    )
    return cached_campaign(app, dep)


def unique_campaign(
    app: AppSpec, nprocs: int, trials: int, seed: int = 0, **knobs,
) -> CampaignResult:
    """Campaign with every error forced into the parallel-unique region."""
    dep = Deployment(
        nprocs=nprocs, trials=trials, region=Region.PARALLEL_UNIQUE,
        seed=seed + _SEED_UNIQUE + nprocs, **knobs,
    )
    return cached_campaign(app, dep)


_fraction_cache: dict[tuple[str, int], tuple[float, int]] = {}


def unique_fraction_stats(app: AppSpec, nprocs: int) -> tuple[float, int]:
    """``(parallel-unique share, candidate instructions)`` at ``nprocs``.

    One fault-free profiling run — no injection, so obtaining it even at
    the target scale is cheap (the paper's hardware constraint concerns
    the thousands of injection runs, not one profile; it estimates the
    equivalent execution-time weights with a performance model).  The
    candidate count is the share's denominator, used for confidence
    intervals on the measured proportion.

    Results are memoized in-process and persisted to the disk cache, so
    target-scale profiling (p=64/128) happens once per cache lifetime,
    not once per fresh process.
    """
    key = (app.cache_key(), nprocs)
    if key not in _fraction_cache:
        _fraction_cache[key] = cached_unique_fraction_stats(app, nprocs)
    return _fraction_cache[key]


def unique_fraction(app: AppSpec, nprocs: int) -> float:
    """Parallel-unique candidate-instruction share at ``nprocs``."""
    return unique_fraction_stats(app, nprocs)[0]


# ----------------------------------------------------------------------
def build_predictor(
    app_name: str,
    small_nprocs: int,
    target_nprocs: int,
    trials: int | None = None,
    seed: int = 0,
    n_samples: int | None = None,
    prob2_mode: str = "profile",
    unique_threshold: float = 0.02,
    **knobs,
) -> ResiliencePredictor:
    """Assemble every model input for ``app_name`` and return a predictor.

    ``prob2_mode``:
      * ``"profile"`` (default) — measure the parallel-unique share with
        one fault-free profiling run at the target scale;
      * ``"extrapolate"`` — fit the shares measured at small scales
        against log2(p) (no run at the target scale at all).

    ``knobs`` are Deployment knob fields applied to every campaign of
    the sweep.  ``ci_halfwidth`` plans the whole sampling sweep — every serial
    multi-error case x = 1 … p plus the small-scale campaigns — as one
    precision budget: each deployment keeps ``trials`` as its cap but
    stops as soon as its outcome rates hit the target half-width, so the
    sweep's trials concentrate on whichever x values are still noisy
    (see ``docs/adaptive.md``).
    """
    app = get_app(app_name)
    trials = default_trials(trials)
    n_samples = n_samples or small_nprocs

    serial = serial_sample_results(
        app, target_nprocs, n_samples, trials, seed, **knobs
    )
    small = small_campaign(app, small_nprocs, trials, seed, **knobs)
    probe_dep = Deployment(
        nprocs=1, trials=trials, n_errors=small_nprocs, region=Region.COMMON,
        seed=seed + _SEED_SERIAL + small_nprocs, **knobs,
    )
    probe = FaultInjectionResult.from_campaign(cached_campaign(app, probe_dep))

    # the small campaign's own profiling pass already measured its share
    fractions = {small_nprocs: small.parallel_unique_fraction}
    if prob2_mode == "profile":
        fractions[target_nprocs] = unique_fraction(app, target_nprocs)
    elif prob2_mode == "extrapolate":
        # a second small point anchors the log2(p) fit
        other = max(2, small_nprocs // 2)
        fractions[other] = unique_fraction(app, other)
    else:
        raise ValueError(f"unknown prob2_mode {prob2_mode!r}")

    unique_result = None
    if fractions[small_nprocs] > 0.0 and max(fractions.values()) >= unique_threshold:
        unique_result = FaultInjectionResult.from_campaign(
            unique_campaign(app, small_nprocs, trials, seed, **knobs)
        )

    inputs = PredictionInputs(
        serial_samples=serial,
        small_campaign=small,
        unique_result=unique_result,
        unique_fractions=fractions,
        serial_probe=probe,
    )
    return ResiliencePredictor(inputs, unique_ignore_below=unique_threshold)
