"""Descriptive stats and the one-way F test, checked against hand oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from handgrasp import stats
from handgrasp.errors import DegenerateInput, EmptyInput
from handgrasp.stats import anova_oneway, describe, f_tail


def _anova_oracle(groups):
    """Plain-Python sums-of-squares route, no shared code with the unit."""
    ns = [len(g) for g in groups]
    total = sum(sum(g) for g in groups)
    total_n = sum(ns)
    grand = total / total_n
    means = [sum(g) / len(g) for g in groups]
    ss_between = sum(n * (m - grand) ** 2 for n, m in zip(ns, means))
    ss_within = sum(sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    df_between = len(groups) - 1
    df_within = total_n - len(groups)
    f = (ss_between / df_between) / (ss_within / df_within)
    return f, df_between, df_within


# ── describe ─────────────────────────────────────────────────────────────


def test_describe_constant_samples():
    stats = describe([2.0, 2.0, 2.0])
    assert stats.mean == 2.0
    assert stats.sd == 0.0
    assert stats.n == 3


def test_describe_unit_spread():
    stats = describe([1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.sd == 1.0
    assert stats.n == 3


def test_describe_single_sample_sd_is_nan():
    stats = describe([5.0])
    assert stats.mean == 5.0
    assert math.isnan(stats.sd)
    assert stats.n == 1


def test_describe_empty_raises():
    with pytest.raises(EmptyInput):
        describe([])


def test_describe_matches_numpy_ddof1():
    rng = np.random.default_rng(3)
    values = rng.normal(0.3, 1.7, 40)
    stats = describe(values)
    assert stats.mean == pytest.approx(values.mean(), abs=1e-15)
    assert stats.sd == pytest.approx(values.std(ddof=1), abs=1e-15)


# ── anova: frozen examples ───────────────────────────────────────────────


def test_anova_equal_means_give_zero_f():
    result = anova_oneway([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert result.f == 0.0
    assert result.p == 1.0
    assert (result.df_between, result.df_within) == (2, 3)


def test_anova_shifted_ladder_example():
    # independent oracle values, frozen: F = 3.0 and p = 1/8 exactly
    # (for df (2, 6) the tail is (1 + F/3) ** -3)
    groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]]
    oracle_f, oracle_dfb, oracle_dfw = _anova_oracle(groups)
    assert oracle_f == 3.0

    result = anova_oneway(groups)
    assert (result.df_between, result.df_within) == (oracle_dfb, oracle_dfw) == (2, 6)
    assert abs(result.f - oracle_f) < 1e-12
    assert result.f == 3.0
    assert result.p == pytest.approx((1.0 + result.f / 3.0) ** -3, abs=1e-15)
    assert result.p == 0.125


def test_anova_widely_separated_groups():
    groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [6.0, 7.0, 8.0]]
    oracle_f, _, _ = _anova_oracle(groups)
    assert oracle_f == 21.0
    result = anova_oneway(groups)
    assert abs(result.f - 21.0) < 1e-12
    assert result.p == pytest.approx((1.0 + 21.0 / 3.0) ** -3, abs=1e-15)  # 1/512


def test_anova_study_shaped_input_dof():
    rng = np.random.default_rng(11)
    groups = [list(rng.normal(m, 0.2, 18)) for m in (1.0, 1.1, 1.3)]
    result = anova_oneway(groups)
    assert (result.df_between, result.df_within) == (2, 51)

    groups = [list(rng.normal(m, 0.2, 24)) for m in (1.0, 1.1, 1.3)]
    result = anova_oneway(groups)
    assert (result.df_between, result.df_within) == (2, 69)


# ── anova: properties ────────────────────────────────────────────────────


def test_anova_agrees_with_oracle_on_random_groups():
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        groups = [list(rng.normal(rng.normal(), 1.0, int(rng.integers(2, 12))))
                  for _ in range(k)]
        oracle_f, dfb, dfw = _anova_oracle(groups)
        result = anova_oneway(groups)
        assert (result.df_between, result.df_within) == (dfb, dfw)
        assert abs(result.f - oracle_f) <= 1e-9 * max(1.0, abs(oracle_f))
        assert 0.0 <= result.p <= 1.0


def test_anova_p_matches_scipy_survival_function():
    rng = np.random.default_rng(5)
    for _ in range(50):
        groups = [list(rng.normal(rng.normal(), 1.0, 10)) for _ in range(3)]
        result = anova_oneway(groups)
        expected = scipy.stats.f.sf(result.f, result.df_between, result.df_within)
        assert result.p == pytest.approx(expected, rel=1e-10)


def test_anova_affine_invariance():
    rng = np.random.default_rng(21)
    groups = [list(rng.normal(m, 0.5, 9)) for m in (0.0, 0.4, 1.0)]
    base = anova_oneway(groups)
    scaled = anova_oneway([[3.5 * x - 11.0 for x in g] for g in groups])
    assert scaled.f == pytest.approx(base.f, rel=1e-12)
    assert scaled.p == pytest.approx(base.p, rel=1e-9)


def test_f_tail_bounds_and_monotonicity():
    prev = 1.0
    for f in (0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 100.0):
        p = f_tail(f, 2, 51)
        assert 0.0 <= p <= prev <= 1.0
        prev = p


def test_f_tail_matches_scipy_betainc_over_a_grid():
    # df_between 1-20 covers both paths: integer b (the finite sum) and
    # half-integer b (the continued fraction); df_within reaches 10,000
    df_within = [*range(1, 30), 40, 60, 100, 150, 200, 300, 500, 1000, 2000, 5000, 10_000]
    worst_rel = worst_abs = 0.0
    for dfb in range(1, 21):
        for dfw in df_within:
            for f in np.logspace(-6, 4, 40):
                p = f_tail(float(f), dfb, dfw)
                x = dfw / (dfw + dfb * float(f))
                expected = float(scipy.special.betainc(dfw / 2.0, dfb / 2.0, x))
                worst_abs = max(worst_abs, abs(p - expected))
                if expected >= 1e-100:
                    worst_rel = max(worst_rel, abs(p - expected) / expected)
    assert worst_rel <= 1e-10
    assert worst_abs <= 1e-11


def test_f_tail_edges_follow_betainc():
    for dfb, dfw in ((2, 6), (3, 92), (1, 1)):
        assert f_tail(0.0, dfb, dfw) == 1.0
        assert f_tail(-2.5, dfb, dfw) == 1.0
        assert f_tail(math.inf, dfb, dfw) == 0.0
        # NaN returns before either path: integer b (2, 6), half-integer b (3, 92)
        assert math.isnan(f_tail(math.nan, dfb, dfw))


def test_f_tail_raises_rather_than_return_an_unconverged_fraction(monkeypatch):
    assert f_tail(0.294102, 3, 92) == pytest.approx(0.829565, abs=1e-6)
    monkeypatch.setattr(stats, "_LENTZ_MAX_STEPS", 2)
    with pytest.raises(ArithmeticError, match="did not converge"):
        f_tail(0.294102, 3, 92)


# ── anova: degenerate inputs ─────────────────────────────────────────────


def test_anova_zero_within_variance_unequal_means():
    with pytest.raises(DegenerateInput) as err:
        anova_oneway([[1.0, 1.0], [2.0, 2.0]])
    assert err.value.infinite_f is True


def test_anova_single_group_rejected():
    with pytest.raises(DegenerateInput) as err:
        anova_oneway([[1.0, 2.0]])
    assert err.value.infinite_f is False
    assert "2 groups" in str(err.value)


def test_anova_undersized_group_rejected():
    with pytest.raises(DegenerateInput):
        anova_oneway([[1.0, 2.0], [3.0]])


def test_anova_no_groups_rejected():
    with pytest.raises(DegenerateInput):
        anova_oneway([])
