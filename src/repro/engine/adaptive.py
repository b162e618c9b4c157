"""Adaptive precision-targeted campaigns: spend trials only where needed.

A fixed-N campaign budgets for the worst case: guaranteeing a Wilson
half-width ``h`` on every outcome rate takes ``~(z/2h)^2`` trials when a
rate could sit at 1/2 — but most measured deployments are far more
skewed than that, and the cost of fault-injection sampling dominates
resilience studies (PARIS, Guo et al.; Wu et al. 2018).  This module
holds the pure sizing functions and the sequential stopping rule
(:class:`AdaptiveStopper`) that close the loop the obs layer opened
when it started computing Wilson score intervals per outcome.  The
campaign driver, :func:`repro.engine.core.run_trials`, runs every
campaign in *waves*: a fixed-N campaign is a single wave, and with
``Deployment.ci_halfwidth`` set the stopper picks each wave boundary,
the per-outcome half-widths are recomputed after each wave, and the
campaign stops as soon as every tracked outcome's half-width falls
below the target — or the deployment's trial cap is hit.

Reproducibility contract (the driver's, extended to the stopping
rule): for a fixed ``(seed, target, cap)`` the set of executed trials
is **identical** for any ``jobs`` or ``lanes`` value and across any
interrupt-and-resume pattern.  Wave boundaries are a deterministic
function of the trial results folded so far — and trial results are
themselves deterministic functions of ``(seed, trial_index)`` — so the
decision sequence cannot depend on worker count or scheduling.  Chunk
layout *within* a wave is scheduler-aware (split per worker via
:func:`~repro.engine.chunks.plan_chunks`), which affects checkpoint
granularity and load balancing only, never the folded result.

See ``docs/adaptive.md`` for the stopping rule, knob precedence and the
full determinism argument.
"""

from __future__ import annotations

import math

from repro.fi.outcomes import Outcome
from repro.obs.confidence import Z_95, wilson_interval

__all__ = [
    "MIN_WAVE_TRIALS",
    "AdaptiveStopper",
    "achieved_halfwidths",
    "min_trials_for",
    "projected_trials",
    "wilson_halfwidth",
    "worst_case_trials",
]

#: Floor on wave size: waves below this re-check convergence faster than
#: the estimate can move, and each wave pays fixed overhead (chunk
#: planning, one dispatch round to the backend, a manifest write when
#: checkpointing).  It also keeps every wave large enough to fill whole
#: lane batches.
MIN_WAVE_TRIALS = 20


def wilson_halfwidth(successes: int, n: int, z: float = Z_95) -> float:
    """Half the width of the Wilson score interval for ``successes``/``n``."""
    return wilson_interval(successes, n, z).width / 2.0


def achieved_halfwidths(
    joint: dict[tuple[Outcome, int, bool], int], z: float = Z_95
) -> dict[Outcome, float]:
    """Per-outcome Wilson half-widths of a campaign's joint distribution."""
    n = sum(joint.values())
    out: dict[Outcome, float] = {}
    for oc in Outcome:
        k = sum(c for (o, _, _), c in joint.items() if o == oc)
        out[oc] = wilson_halfwidth(k, n, z)
    return out


def min_trials_for(target: float, z: float = Z_95) -> int:
    """Smallest ``n`` at which *any* rate could meet ``target``.

    The best case is a zero-count outcome, whose Wilson half-width is
    ``z^2 / 2(n + z^2)``; below this ``n`` not even a 0% rate converges,
    so the first wave never needs to be smaller.
    """
    return max(1, math.ceil(z * z * (1.0 / (2.0 * target) - 1.0)))


def worst_case_trials(target: float, z: float = Z_95) -> int:
    """Smallest ``n`` whose worst-case (p = 1/2) half-width meets ``target``.

    This is what a fixed-N campaign must budget when nothing is known
    about the rates up front — the baseline adaptive campaigns are
    measured against in ``tests/unit/test_adaptive.py``.
    """
    hi = 2
    while wilson_halfwidth(hi // 2, hi, z) > target:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_halfwidth(mid // 2, mid, z) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def projected_trials(
    k: int, n: int, target: float, z: float = Z_95, cap: int = 10**9
) -> int:
    """Projected total trials for ``target`` if the rate stays at ``k/n``.

    Binary-searches the smallest ``m >= n`` whose Wilson half-width at
    the scaled count ``round(k/n * m)`` meets the target, capped at
    ``cap``.  A planning heuristic only: convergence is re-checked on
    the *measured* counts at every wave boundary, so projection error
    merely costs one more (small) wave.
    """
    if n <= 0:
        return min(cap, min_trials_for(target, z))
    if wilson_halfwidth(k, n, z) <= target:
        return n
    p = k / n
    if cap <= n:
        return cap
    if wilson_halfwidth(round(p * cap), cap, z) > target:
        return cap
    lo, hi = n + 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_halfwidth(round(p * mid), mid, z) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class AdaptiveStopper:
    """The sequential stopping rule: wave boundaries and convergence.

    Stateless over the joint distribution so the decision sequence can
    be replayed bit-for-bit on resume: both methods are pure functions
    of ``(target, cap, z)`` and the counts folded so far.
    """

    def __init__(self, target: float, cap: int, z: float = Z_95):
        if not 0.0 < target < 0.5:
            raise ValueError(f"target half-width must be in (0, 0.5), got {target}")
        if cap < 1:
            raise ValueError(f"trial cap must be >= 1, got {cap}")
        self.target = target
        self.cap = cap
        self.z = z

    # ------------------------------------------------------------------
    def _counts(
        self, joint: dict[tuple[Outcome, int, bool], int]
    ) -> dict[Outcome, int]:
        counts = {oc: 0 for oc in Outcome}
        for (oc, _, _), c in joint.items():
            counts[oc] += c
        return counts

    def halfwidths(
        self, joint: dict[tuple[Outcome, int, bool], int]
    ) -> dict[Outcome, float]:
        """Per-outcome achieved half-widths at the current counts."""
        return achieved_halfwidths(joint, self.z)

    def converged(self, joint: dict[tuple[Outcome, int, bool], int]) -> bool:
        """Has every tracked outcome's half-width met the target?"""
        if not joint:
            return False
        return max(self.halfwidths(joint).values()) <= self.target

    def next_boundary(
        self, joint: dict[tuple[Outcome, int, bool], int], n_done: int
    ) -> int:
        """The trial index to run through before the next convergence check.

        The first wave is sized at the smallest count that could
        possibly converge (:func:`min_trials_for`); later waves jump to
        the worst outcome's :func:`projected_trials`.  Both are clamped
        to ``[n_done + MIN_WAVE_TRIALS, cap]`` so every wave makes real
        progress and the cap is never exceeded.
        """
        if n_done == 0:
            boundary = max(MIN_WAVE_TRIALS, min_trials_for(self.target, self.z))
        else:
            counts = self._counts(joint)
            boundary = max(
                projected_trials(counts[oc], n_done, self.target, self.z, self.cap)
                for oc in Outcome
            )
            boundary = max(boundary, n_done + MIN_WAVE_TRIALS)
        return min(self.cap, boundary)
