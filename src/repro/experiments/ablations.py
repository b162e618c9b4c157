"""Ablations of the design choices in DESIGN.md §5, at 8 -> 64 ranks.

* ``alpha`` — the fine-tuning trigger threshold (the paper fixes 20 %);
* ``prob2`` — the Eq. 1 weight from a target-scale profile run vs a
  log2(p) extrapolation from small scales;
* ``mapping`` — Eq. 5 group mapping vs linear interpolation of r'.  Both
  spread the small-scale mass over whole groups, so neither rebuilds the
  64-rank histogram's peak at exactly p ranks and both cosines are
  moderate; that is why the predictor uses the group weights (Eq. 8),
  which agree well (Table 2);
* ``trials`` — how LU's 8-rank success rate settles as the number of
  tests grows (the paper's §5.1 claim), at fixed counts whatever
  ``trials`` is.  The other three reuse the campaigns of Figs. 5-6.
"""

from __future__ import annotations

from repro.apps import get_app, paper_apps
from repro.experiments.common import (
    build_predictor,
    default_trials,
    measured_campaign,
    small_campaign,
)
from repro.fi.cache import cached_campaign
from repro.fi.campaign import Deployment
from repro.model.propagation import PropagationProfile, map_small_to_large
from repro.model.result import FaultInjectionResult
from repro.model.similarity import cosine_similarity
from repro.utils.tables import format_table

__all__ = ["run", "tables", "THRESHOLDS", "TRIAL_COUNTS"]

SMALL, TARGET = 8, 64
THRESHOLDS = (0.05, 0.20, 0.50, float("inf"))
TRIAL_COUNTS = (50, 100, 200, 400)


def run(trials: int | None = None, seed: int = 0, quiet: bool = False) -> dict:
    """Run the four ablations; returns ``{alpha, mapping, prob2, trials}``.

    ``alpha[threshold][app]`` and ``prob2[app][source]`` are absolute
    success-rate errors, ``mapping[app][mode]`` cosines against the
    measured 64-rank profile, ``trials[n]`` LU's ``(success rate, 95% CI
    width)`` at ``n`` tests.
    """
    trials = default_trials(trials)
    out: dict = {"alpha": {thr: {} for thr in THRESHOLDS}, "mapping": {},
                 "prob2": {}, "trials": {}}
    for name in paper_apps():
        app = get_app(name)
        large = measured_campaign(app, TARGET, trials, seed)
        measured = FaultInjectionResult.from_campaign(large).success

        def error(predictor) -> float:
            return abs(predictor.predict(TARGET).success - measured)

        predictor = build_predictor(name, SMALL, TARGET, trials=trials, seed=seed)
        for thr in THRESHOLDS:
            predictor.fine_tune_threshold = thr
            out["alpha"][thr][name] = error(predictor)
        # the default predictor measures prob2 with a target-scale profile run
        out["prob2"][name] = {"profile": out["alpha"][0.20][name], "extrapolate": error(
            build_predictor(name, SMALL, TARGET, trials=trials, seed=seed,
                            prob2_mode="extrapolate"))}
        small = PropagationProfile.from_campaign(small_campaign(app, SMALL, trials, seed))
        profile = PropagationProfile.from_campaign(large).as_array()
        out["mapping"][name] = {
            mode: cosine_similarity(
                map_small_to_large(small, TARGET, mode=mode).as_array(), profile)
            for mode in ("group", "interpolate")
        }
    for t in TRIAL_COUNTS:
        dep = Deployment(nprocs=SMALL, trials=t, seed=seed + 70_000)
        fi = FaultInjectionResult.from_campaign(cached_campaign(get_app("lu"), dep))
        lo, hi = fi.success_interval()
        out["trials"][t] = (fi.success, hi - lo)
    if not quiet:
        for headers, rows, title in tables(out):
            print(format_table(headers, rows, title=title) + "\n")
    return out


def tables(out: dict) -> list[tuple[list[str], list[list[str]], str]]:
    """``(headers, rows, title)`` of each ablation table, cells as text."""
    def pp(x: float) -> str:
        return f"{100 * x:.1f}"

    alpha_rows = [
        ["off (never tune)" if thr == float("inf") else f"{100 * thr:.0f}%",
         pp(sum(errs.values()) / len(errs)), pp(max(errs.values()))]
        for thr, errs in out["alpha"].items()
    ]
    return [
        (["trigger threshold", "avg error (pp)", "max error (pp)"], alpha_rows,
         f"Ablation — alpha fine-tuning threshold (S={SMALL}, p={TARGET})"),
        (["benchmark", "Eq. 5 group mapping", "linear interpolation"],
         [[n.upper(), f"{s['group']:.3f}", f"{s['interpolate']:.3f}"]
          for n, s in out["mapping"].items()],
         "Ablation — propagation projection mode (cosine vs measured)"),
        (["benchmark", "profile-run prob2 (pp)", "extrapolated prob2 (pp)"],
         [[n.upper(), pp(e["profile"]), pp(e["extrapolate"])]
          for n, e in out["prob2"].items()],
         "Ablation — source of the Eq. 1 parallel-unique weight"),
        (["tests", "success rate", "95% CI width"],
         [[str(t), f"{rate:.3f}", f"{width:.3f}"]
          for t, (rate, width) in out["trials"].items()],
         f"Ablation — statistical stability of one deployment (LU, {SMALL} ranks)"),
    ]
