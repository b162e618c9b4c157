"""Error-propagation histograms and the small-to-large mapping (Eq. 5).

A *propagation profile* is the distribution of how many MPI processes
end up contaminated after one error is injected into one process —
``r_x`` in the paper's notation (Eq. 3).  Profiles from a small-scale
execution predict the grouped profile at large scale (Observation 3):
the large-scale cases ``1..p`` are split into ``S`` equal groups and
group ``g`` inherits the small-scale probability ``r'_g`` (Eq. 5,
visualized in Figs. 1c/2c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.fi.campaign import CampaignResult

__all__ = ["PropagationProfile", "group_histogram", "map_small_to_large"]


@dataclass(frozen=True)
class PropagationProfile:
    """Probabilities ``r_x`` for x = 1..nprocs (x = contaminated count)."""

    nprocs: int
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probabilities) != self.nprocs:
            raise ConfigurationError(
                f"profile needs {self.nprocs} probabilities, got {len(self.probabilities)}"
            )
        total = sum(self.probabilities)
        if self.probabilities and not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ConfigurationError(f"propagation probabilities must sum to 1, got {total}")

    @classmethod
    def from_counts(cls, counts: dict[int, int], nprocs: int) -> "PropagationProfile":
        """Build from a contaminated-count histogram (1-based keys)."""
        bad = [n for n in counts if not 1 <= n <= nprocs]
        if bad:
            raise ConfigurationError(
                f"contaminated counts {bad} outside [1, {nprocs}]"
            )
        total = sum(counts.values())
        if total == 0:
            raise ConfigurationError("empty propagation histogram")
        probs = tuple(counts.get(x, 0) / total for x in range(1, nprocs + 1))
        return cls(nprocs=nprocs, probabilities=probs)

    @classmethod
    def from_campaign(cls, campaign: CampaignResult) -> "PropagationProfile":
        return cls.from_counts(
            campaign.propagation_counts(), campaign.deployment.nprocs
        )

    # ------------------------------------------------------------------
    def r(self, x: int) -> float:
        """``r_x``: probability that exactly x processes get contaminated."""
        if not 1 <= x <= self.nprocs:
            raise ConfigurationError(f"x={x} outside [1, {self.nprocs}]")
        return self.probabilities[x - 1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probabilities)


def group_histogram(profile: PropagationProfile, groups: int) -> np.ndarray:
    """Aggregate a large-scale profile into equal groups (Fig. 1c).

    Splits the ``p`` propagation cases into ``groups`` equal intervals
    and sums the probability mass inside each — the vector the paper
    compares against the small-scale profile with cosine similarity.
    """
    p = profile.nprocs
    if groups < 1 or p % groups:
        raise ConfigurationError(f"cannot split {p} cases into {groups} equal groups")
    width = p // groups
    arr = profile.as_array()
    return arr.reshape(groups, width).sum(axis=1)


def map_small_to_large(
    small: PropagationProfile, large_nprocs: int, mode: str = "group"
) -> PropagationProfile:
    """Project a small-scale ``r'`` profile onto the large scale.

    ``mode="group"`` is the paper's Eq. 5: ``r_x = r'_{ceil(x S / p)} /
    (p / S)`` — each small-scale case's probability mass spreads
    uniformly over its group of ``p/S`` large-scale cases, so the
    projected profile still sums to one.

    ``mode="interpolate"`` is an ablation alternative: the small-scale
    masses are placed at the group centres and linearly interpolated
    before renormalizing — smoother, but it smears the strongly bimodal
    profiles real applications produce (see
    ``repro.experiments.ablations``).
    """
    s = small.nprocs
    if large_nprocs % s:
        raise ConfigurationError(
            f"large scale {large_nprocs} must be a multiple of small scale {s}"
        )
    width = large_nprocs // s
    if mode == "group":
        probs = []
        for x in range(1, large_nprocs + 1):
            g = math.ceil(x * s / large_nprocs)
            probs.append(small.r(g) / width)
        return PropagationProfile(nprocs=large_nprocs, probabilities=tuple(probs))
    if mode == "interpolate":
        centres = np.array([(g - 0.5) * width + 0.5 for g in range(1, s + 1)])
        xs = np.arange(1, large_nprocs + 1, dtype=float)
        density = np.interp(xs, centres, small.as_array() / width)
        density /= density.sum()
        return PropagationProfile(nprocs=large_nprocs, probabilities=tuple(density))
    raise ConfigurationError(f"unknown projection mode {mode!r}")
