"""Descriptive statistics and one-way ANOVA for trial results.

Small by design: mean / sample SD per group, and the standard one-way
F test across techniques. Its p-value, the F distribution's upper tail,
is the regularized incomplete beta by Numerical Recipes (3rd ed., §6.4);
DiDonato & Morris, ACM TOMS 18 (1992), Algorithm 708, set its accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyInput


@dataclass(frozen=True)
class GroupStats:
    mean: float
    sd: float  # sample SD (ddof=1); nan when n < 2
    n: int


@dataclass(frozen=True)
class AnovaResult:
    f: float
    p: float
    df_between: int
    df_within: int


def describe(samples) -> GroupStats:
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("describe needs at least one sample")
    if values.ndim != 1:
        raise DegenerateInput(f"expected a 1-d sample, got shape {values.shape}")
    sd = float(values.std(ddof=1)) if values.size >= 2 else float("nan")
    return GroupStats(mean=float(values.mean()), sd=sd, n=int(values.size))


def f_tail(f: float, df_between: int, df_within: int) -> float:
    """P(F >= f) for the F distribution with the given degrees of freedom."""
    if f <= 0.0:
        return 1.0
    x = df_within / (df_within + df_between * f)
    return _betainc(df_within / 2.0, df_between / 2.0, x)


_LENTZ_EPS = 1e-15  # relative step at which the continued fraction has converged
_LENTZ_TINY = 1e-300  # stands in for a zero denominator
_LENTZ_MAX_STEPS = 10_000  # a, b near 1e7 need about 3,000


def _betainc(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0: a finite sum for integer b while x**a is normal, else NR §6.4."""
    if not 0.0 < x < 1.0:  # 0 and 1 are exact; NaN stays NaN
        return x
    if b == int(b) and (term := x**a) > 0.0:  # x**a * sum_{k<b} (a)_k / k! * (1-x)**k
        total = 0.0
        for k in range(int(b)):
            total += term
            term *= (a + k) / (k + 1) * (1.0 - x)
        return total
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):  # the side on which the fraction converges fast
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b). Past 64, lgamma(a + b) - lgamma(large) cancels to a few ulps of either, so
    the Stirling series w(z) = lgamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 gives it."""
    small, large = min(a, b), max(a, b)
    if large < 64.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    w_large, w_total = ((1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z for z in (large, a + b))
    tail = small * (1.0 - math.log(a + b)) - (large - 0.5) * math.log1p(small / large)
    return math.lgamma(small) + tail + w_large - w_total


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction for I_x(a, b) by the modified Lentz method."""
    c = 1.0
    d = h = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or _LENTZ_TINY)
    for m in range(1, _LENTZ_MAX_STEPS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coefficient in (even, odd):
            d = 1.0 / ((1.0 + coefficient * d) or _LENTZ_TINY)
            c = (1.0 + coefficient / c) or _LENTZ_TINY
            h *= d * c
        if abs(d * c - 1.0) < _LENTZ_EPS:
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def anova_oneway(groups) -> AnovaResult:
    """One-way fixed-effects ANOVA over two or more sample groups.

    Raises DegenerateInput for fewer than two groups, any group with
    fewer than two samples, or zero within-group variance combined
    with unequal group means (the F statistic would be infinite; the
    exception carries infinite_f=True). All-identical input has equal
    means and reports F = 0, p = 1.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise DegenerateInput(f"need at least 2 groups, got {len(arrays)}")
    for i, arr in enumerate(arrays):
        if arr.ndim != 1 or arr.size < 2:
            raise DegenerateInput(f"group {i} needs at least 2 samples, got shape {arr.shape}")

    total_n = sum(arr.size for arr in arrays)
    grand_mean = sum(float(arr.sum()) for arr in arrays) / total_n
    ss_between = sum(arr.size * (float(arr.mean()) - grand_mean) ** 2 for arr in arrays)
    ss_within = sum(float(((arr - arr.mean()) ** 2).sum()) for arr in arrays)
    df_between = len(arrays) - 1
    df_within = total_n - len(arrays)

    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(f=0.0, p=1.0, df_between=df_between, df_within=df_within)
        raise DegenerateInput(
            "zero within-group variance with unequal means", infinite_f=True
        )

    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(
        f=float(f),
        p=f_tail(f, df_between, df_within),
        df_between=df_between,
        df_within=df_within,
    )
