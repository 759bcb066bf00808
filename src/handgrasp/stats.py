"""Descriptive statistics and one-way ANOVA for trial results.

Small by design: mean / sample SD per group, and the standard one-way
F test across techniques. The p-value is the upper tail of the F
distribution, evaluated through the regularized incomplete beta
function.
"""

from __future__ import annotations

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
    # imported on first use: scipy.special takes ~0.3 s and ~25 MB to
    # import, and recognize, simulate and serve never get here
    from scipy.special import betainc

    x = df_within / (df_within + df_between * f)
    return float(betainc(df_within / 2.0, df_between / 2.0, x))


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
