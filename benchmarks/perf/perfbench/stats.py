"""Summary statistics and the parent-versus-change verdict.

Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
"exclusive" method), so a spread printed here is the spread anyone
recomputing it from the raw values with the standard library gets.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "median", "quartiles", "iqr", "relative_iqr", "percentile",
    "tail_percentile", "summarize", "verdict",
]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr(values: Sequence[float]) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    mid = median(values)
    return iqr(values) / abs(mid) if mid else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(
    values: Sequence[float], beyond: int = 10
) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(p, value)``, or None when there are too few samples for
    any percentile above the median to have that many beyond it.
    """
    n = len(values)
    if n <= beyond:
        return None
    p = math.floor(100.0 * (n - beyond) / n)
    if p <= 50:
        return None
    return p, percentile(values, p)


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, IQR and sample count of one metric's values."""
    q1, mid, q3 = quartiles(values)
    return {
        "median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
        "n": len(values),
    }


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """Judge paired parent/change runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  A ``"gain"`` needs
    the change to win at least nine tenths of the pairs (ties count for
    neither) and the medians to differ by more than the parent's IQR.
    When the parent's own spread exceeds ``bound`` the metric is
    ``"unresolved"`` — unless every change run beats every parent run.
    Otherwise a change median worse than the parent's by more than
    ``bound`` (a share of the parent median) is a ``"regression"``, and
    anything else is ``"within bound"``.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, non-zero, number of runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    base = median(parent)
    improvement = sign * (median(change) - base)
    if wins >= math.ceil(0.9 * len(parent)) and improvement > iqr(parent):
        return "gain"
    every_run_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if relative_iqr(parent) > bound and not every_run_better:
        return "unresolved"
    if base and -improvement / abs(base) > bound:
        return "regression"
    return "within bound"
