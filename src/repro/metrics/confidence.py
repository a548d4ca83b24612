"""Student-t confidence intervals.

The paper collects statistics "with a 95% confidence interval when the
system reaches a steady state".  The t quantiles are computed with a
dependency-free implementation (continued-fraction incomplete beta +
bisection) so the core library needs nothing beyond numpy; values match
``scipy.stats.t.ppf`` to ~1e-9 (verified in the test suite when scipy
is available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.metrics.stats import rescale_exponent

__all__ = [
    "ConfidenceInterval",
    "interval_from_partial",
    "t_confidence_interval",
    "t_quantile",
]


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularised incomplete beta function."""
    MAXIT, EPS, FPMIN = 200, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution."""
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p = 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)
    return 1.0 - p if t > 0 else p


def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t (bisection on the CDF)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if p == 0.5:
        return 0.0
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    level: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (precision measure)."""
        if self.mean == 0:
            return math.inf if self.half_width else 0.0
        return self.half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.4g} ± {self.half_width:.4g}"
            f" ({self.level:.0%}, n={self.count})"
        )


def interval_from_partial(
    stat, level: float = 0.95, discard: int = 0
) -> ConfidenceInterval:
    """Student-t CI over a (possibly merged) partial's batch means.

    How every batch-means interval is computed (``BatchMeans.result``
    routes through here via ``result_from_partial``): ``stat`` is a
    :class:`~repro.metrics.partial.PartialStat` whose ``batch_means``
    carry the pooled batches; the first ``discard`` are dropped as
    warm-up.  Computes through :func:`t_confidence_interval` on the
    retained means, so a merged stream yields the same interval as the
    serial stream it was split from.
    """
    retained = stat.batch_means[discard:]
    return t_confidence_interval(retained, level)


def t_confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t CI for the mean of ``values`` (needs ≥ 2 observations)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two observations for a confidence interval")
    k = rescale_exponent(arr)
    scaled = np.ldexp(arr, -k)
    mean = math.ldexp(float(scaled.mean()), k)
    sem = math.ldexp(float(scaled.std(ddof=1)), k) / math.sqrt(arr.size)
    t = t_quantile(0.5 + level / 2.0, arr.size - 1)
    return ConfidenceInterval(
        mean=mean, half_width=t * sem, level=level, count=int(arr.size)
    )
