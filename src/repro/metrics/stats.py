"""Summary statistics.

The paper's node-level metric is the coefficient of variation
``CV = SD / Mnl`` (standard deviation of the per-destination arrival
times over their mean), and its table metric is the *improvement
percentage* ``IMR% = (CV_baseline − CV_ours) / CV_ours · 100`` — the
factor by which the proposed algorithm tightens arrival times,
expressed in percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "coefficient_of_variation",
    "improvement_percent",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean / standard deviation / extremes of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (``inf`` for zero mean, nonzero std)."""
        if self.mean == 0:
            return 0.0 if self.std == 0 else math.inf
        return self.std / abs(self.mean)

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4g} std={self.std:.4g}"
            f" cv={self.cv:.4g} range=[{self.minimum:.4g}, {self.maximum:.4g}]"
        )


def rescale_exponent(arr: np.ndarray) -> int:
    """An even ``k`` that brings ``arr``'s largest magnitude near 1.

    Mean and standard deviation computed on ``ldexp(arr, -k)`` and
    scaled back by ``2**k`` are bit-identical to the direct ones
    whenever neither path under- or overflows, because scaling by a
    power of two is exact there.  They stay exact where the direct
    path squares deviations into subnormals (values near 1e-160) or
    past the float range (near 1e160), which is what keeps
    CV(a·X) == CV(X).
    """
    largest = float(np.max(np.abs(arr)))
    if largest == 0.0 or not math.isfinite(largest):
        return 0
    exponent = math.frexp(largest)[1]
    return exponent - exponent % 2


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` for a non-empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    k = rescale_exponent(arr)
    scaled = np.ldexp(arr, -k)
    return SummaryStats(
        count=int(arr.size),
        mean=math.ldexp(float(scaled.mean()), k),
        std=math.ldexp(float(scaled.std()), k),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def coefficient_of_variation(values: Sequence[float]) -> float:
    """``std/mean`` of a sample — the paper's CV metric."""
    return summarize(values).cv


def improvement_percent(baseline_cv: float, proposed_cv: float) -> float:
    """The paper's IMR%: how much lower the proposed algorithm's CV is.

    Defined as ``(baseline − proposed) / proposed × 100`` so that, e.g.,
    a baseline CV of 0.254 against a proposed CV of 0.1536 yields the
    paper's 65.4 % (Table 1, RD row, 64 nodes).
    """
    if proposed_cv <= 0:
        raise ValueError(f"proposed CV must be positive, got {proposed_cv}")
    if baseline_cv < 0:
        raise ValueError(f"baseline CV must be >= 0, got {baseline_cv}")
    return (baseline_cv - proposed_cv) / proposed_cv * 100.0
