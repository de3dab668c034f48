"""Series arithmetic, Pade conversion and effective-range estimation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesim.errors import (
    DenominatorZero,
    NoValidRange,
    SingularPade,
    ZeroLeadingCoefficient,
)
from hesim.series import (
    PadeApproximant,
    TruncatedSeries,
    batch_pade,
    bracketed_root,
    chebyshev_probes,
    pade_from_series,
    pade_with_fallback,
    series_mul,
    series_reciprocal,
    shrink_refine_range,
)

RNG = np.random.default_rng(2024)


# --- series_mul -------------------------------------------------------------

def test_mul_binomial_square():
    a = TruncatedSeries([1.0, 1.0])
    out = series_mul(a, a, 2)
    assert np.allclose(out.coeffs, [1.0, 2.0, 1.0])


def test_mul_identity():
    a = TruncatedSeries([3.0, -2.0, 0.5, 7.0])
    one = TruncatedSeries([1.0, 0.0, 0.0, 0.0])
    out = series_mul(a, one, 3)
    assert np.allclose(out.coeffs, a.coeffs)


def test_mul_matches_polynomial_expansion():
    # brute-force oracle: numpy's own polynomial product
    for _ in range(50):
        a = RNG.uniform(-5, 5, 5)
        b = RNG.uniform(-5, 5, 5)
        expect = np.polynomial.polynomial.polymul(a, b)
        got = series_mul(TruncatedSeries(a), TruncatedSeries(b), 8).coeffs
        assert np.allclose(got, expect[:9])


def test_mul_truncation_contract():
    a = TruncatedSeries([1.0, 1.0])
    with pytest.raises(ValueError):
        series_mul(a, a, 5)


# --- series_reciprocal --------------------------------------------------------

def test_reciprocal_of_one():
    out = series_reciprocal(TruncatedSeries([1.0, 0.0, 0.0]), 2)
    assert np.allclose(out.coeffs, [1.0, 0.0, 0.0])


def test_reciprocal_of_constant():
    out = series_reciprocal(TruncatedSeries([2.0, 0.0, 0.0]), 2)
    assert np.allclose(out.coeffs, [0.5, 0.0, 0.0])


def test_reciprocal_geometric():
    # 1/(1+t) = 1 - t + t^2 - t^3
    out = series_reciprocal(TruncatedSeries([1.0, 1.0, 0.0, 0.0]), 3)
    assert np.allclose(out.coeffs, [1.0, -1.0, 1.0, -1.0])


def test_reciprocal_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        series_reciprocal(TruncatedSeries([1e-12, 1.0]), 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=7),
       st.floats(0.1, 3).filter(lambda v: abs(v) >= 0.1))
def test_reciprocal_roundtrip(tail, lead):
    # 1e-10 relative to the reciprocal's own magnitude: its coefficients can
    # grow like (|a|/|a0|)^k, which float64 cannot cancel to 1e-10 absolute
    coeffs = np.array([lead] + tail)
    n = len(coeffs) - 1
    a = TruncatedSeries(coeffs)
    recip = series_reciprocal(a, n)
    unit = series_mul(a, recip, n).coeffs
    expect = np.zeros(n + 1)
    expect[0] = 1.0
    scale = max(1.0, float(np.max(np.abs(recip.coeffs))))
    assert np.max(np.abs(unit - expect)) < 1e-10 * scale


def test_reciprocal_roundtrip_thousand_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = rng.uniform(-1, 1, rng.integers(2, 8))
        c[0] = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
        n = len(c) - 1
        a = TruncatedSeries(c)
        recip = series_reciprocal(a, n)
        unit = series_mul(a, recip, n).coeffs
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        scale = max(1.0, float(np.max(np.abs(recip.coeffs))))
        assert np.max(np.abs(unit - expect)) < 1e-10 * scale


# --- pade_from_series ---------------------------------------------------------

def test_pade_reconstructs_simple_pole():
    # 1/(1-t) truncated at order 4
    a = TruncatedSeries([1.0, 1.0, 1.0, 1.0, 1.0])
    p = pade_from_series(a, 1, 1)
    assert np.allclose(p.num, [1.0, 0.0])
    assert np.allclose(p.den, [1.0, -1.0])


def test_pade_of_constant_is_itself():
    p = pade_from_series(TruncatedSeries([4.5, 0.0, 0.0]), 1, 1)
    assert np.allclose(p.num, [4.5])
    assert np.allclose(p.den, [1.0])


def test_pade_exp_reexpansion():
    a = TruncatedSeries([1 / math.factorial(k) for k in range(5)])
    p = pade_from_series(a, 2, 2)
    # re-expand num/den and compare Taylor coefficients
    recip = series_reciprocal(TruncatedSeries(p.den), 4)
    num = TruncatedSeries(np.pad(p.num, (0, 2)))
    re = series_mul(num, recip, 4).coeffs
    assert np.max(np.abs(re - a.coeffs)) < 1e-12


def test_pade_order_contract():
    with pytest.raises(ValueError):
        pade_from_series(TruncatedSeries([1.0, 2.0]), 2, 2)


def test_pade_fallback_ladder_reaches_series():
    # random noise usually has a usable Pade; a short series with a
    # deliberately inconsistent tail must at worst return the series itself
    a = TruncatedSeries([1.0, 0.0, 0.0, 0.0, 1e30])
    p = pade_with_fallback(a, 2, 2)
    assert p.den[0] == 1.0


def _exact_reexpansion(num, den, n):
    """Taylor coefficients 0..n of num/den in exact rational arithmetic.

    A float re-expansion loses digits like 1/den amplifies them (by 464^k
    for den = 1 - 464 t - ...), so only exact arithmetic can referee the
    1e-8 acceptance.
    """
    num = [Fraction(float(x)) for x in num] + [Fraction(0)] * (n + 1)
    den = [Fraction(float(x)) for x in den]
    r = []
    for k in range(n + 1):
        acc = num[k] - sum(den[j] * r[k - j]
                           for j in range(1, min(k, len(den) - 1) + 1))
        r.append(acc / den[0])
    return r


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=7, max_size=7))
@example([0.0, 0.0, 0.0, 0.0, 0.0, 1.66e-107, 1.0])  # NaN re-expansion passed
@example([0.0, -0.0401781999743176, 1.0, 0.0, -0.19322968611423308, 0.0,
          -0.658684918045096])  # den[1] = -464: float re-expansion off by 1e-6
def test_pade_consistency_property(coeffs):
    a = TruncatedSeries(np.array(coeffs))
    try:
        p = pade_from_series(a, 3, 3)
    except SingularPade:
        return
    re = _exact_reexpansion(p.num, p.den, 6)
    scale = max(1.0, np.max(np.abs(a.coeffs)))
    assert max(abs(x - Fraction(float(c))) for x, c in zip(re, coeffs)) \
        < 1e-8 * scale


def test_pade_rejects_reexpansion_lost_to_cancellation():
    # the (3,3) denominator is 1 + 1.8e201 t^3; num_3 and den_3 * c_0 round
    # alike, so a float re-expansion reproduces c_3 = 0 although the
    # approximant's own t^3 coefficient is of order 1e185
    a = TruncatedSeries([-1.01626964257285, -4.0006782736425527e-202,
                         0.0, 0.0, 0.7335599636116235, 0.0, 0.0])
    with pytest.raises(SingularPade):
        pade_from_series(a, 3, 3)


# --- evaluation ------------------------------------------------------------------

def test_eval_series_horner():
    s = TruncatedSeries([1.0, 2.0, 1.0])
    assert s.eval(1.0) == pytest.approx(4.0)


def test_eval_at_zero_gives_constant_term():
    s = TruncatedSeries([3.25, -1.0, 9.0])
    p = PadeApproximant([3.25, 1.0], [1.0, 0.5])
    assert s.eval(0.0) == 3.25
    assert p.eval(0.0) == 3.25


def test_eval_pade_closed_form():
    # 1/(1+t) at t = 0.5 -> 2/3
    p = pade_from_series(TruncatedSeries([1.0, -1.0, 1.0, -1.0, 1.0]), 1, 1)
    assert p.eval(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_eval_pade_pole_raises():
    p = PadeApproximant([1.0], [1.0, -1.0])
    with pytest.raises(DenominatorZero):
        p.eval(1.0)


def test_pade_normalizes_denominator():
    p = PadeApproximant([2.0], [2.0, 1.0])
    assert p.den[0] == 1.0
    assert p.eval(0.0) == pytest.approx(1.0)


# --- effective range ----------------------------------------------------------------

def _square_ode_residual_at(x: TruncatedSeries):
    """Max residual of x' = x^2 over the probes of (0, T], x a series."""
    dx = TruncatedSeries(np.polynomial.polynomial.polyder(x.coeffs))

    def residual_at(t_end):
        t = chebyshev_probes(t_end)
        return float(np.max(np.abs(dx.eval(t) - x.eval(t) ** 2)))

    return residual_at


def test_effective_range_exact_polynomial():
    # x(t) = 1 + t solves x' = 1 exactly: zero residual everywhere
    x = TruncatedSeries([1.0, 1.0])

    def residual_at(t_end):
        t = chebyshev_probes(t_end)
        dx = TruncatedSeries(np.polynomial.polynomial.polyder(x.coeffs))
        return float(np.max(np.abs(dx.eval(t) - 1.0)))

    assert shrink_refine_range(residual_at, 1e-6, 1.0) == 1.0


def test_effective_range_detects_pole():
    # truncated series of 1/(1-t); the residual of x' = x^2 blows up near t=1
    residual_at = _square_ode_residual_at(TruncatedSeries(np.ones(16)))
    assert shrink_refine_range(residual_at, 1e-6, 2.0) < 1.0


def test_effective_range_monotone_in_tolerance():
    residual_at = _square_ode_residual_at(TruncatedSeries(np.ones(16)))
    loose = shrink_refine_range(residual_at, 1e-4, 2.0)
    tight = shrink_refine_range(residual_at, 5e-5, 2.0)
    tighter = shrink_refine_range(residual_at, 2.5e-5, 2.0)
    assert loose >= tight >= tighter


def test_effective_range_no_valid_range():
    with pytest.raises(NoValidRange):
        shrink_refine_range(lambda t_end: 1.0, 1e-9, 1.0)  # never satisfiable


def test_range_search_rejects_nan_residual():
    # a NaN residual must count as a failure, not slip past "> tol"
    with pytest.raises(NoValidRange):
        shrink_refine_range(lambda t: math.nan, 1e-6, 1.0)


# --- batched Pade kernel against a per-row reference loop ----------------------------

def _reference_pade_row(c, n_num, n_den):
    """The ladder of batch_pade for one row, one coefficient at a time.

    Same arithmetic as the kernel (one LU solve per level, min-norm least
    squares for an exactly singular system, the re-expansion recurrence
    with its rounding bound), written as plain loops over indices.
    """
    L = n_num
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(c[1:])) <= 1e-14 * scale:
        return np.r_[c[0], np.zeros(L)], np.ones(1)
    for m in range(n_den, 0, -1):
        T = np.array([[c[L + i - j] if L + i - j >= 0 else 0.0
                       for j in range(m)] for i in range(m)])
        rhs = np.array([-c[L + 1 + i] for i in range(m)])
        try:
            b = np.linalg.solve(T, rhs)
        except np.linalg.LinAlgError:
            b = np.linalg.lstsq(T, rhs, rcond=None)[0]
        den = np.r_[1.0, b]
        num = np.zeros(L + 1)
        for i in range(L + 1):
            for j in range(min(i, m) + 1):
                num[i] += den[j] * c[i - j]
        n = L + m + 1
        r, h, rho = np.zeros(n), np.zeros(n), np.zeros(n)
        r[: L + 1] = num
        h[0] = 1.0
        for k in range(1, n):
            terms = [den[j] * r[k - j] for j in range(1, min(k, m) + 1)]
            r[k] -= sum(terms)
            h[k] = -sum(den[j] * h[k - j] for j in range(1, min(k, m) + 1))
            rho[k] = (m + 2) * np.finfo(float).eps * (
                abs(r[k]) + sum(abs(x) for x in terms))
        drift = [sum(abs(h[k - i]) * rho[i] for i in range(k + 1))
                 for k in range(n)]
        err = max(abs(r[k] - c[k]) + drift[k] for k in range(n))
        if np.isfinite(err) and err <= 1e-8 * scale:
            return num, den
    return c.copy(), np.ones(1)


_ROW_KINDS = st.sampled_from(["const", "pole", "exp", "noise"])


@st.composite
def _pade_tables(draw):
    width = 16
    rows = []
    for kind in draw(st.lists(_ROW_KINDS, min_size=1, max_size=6)):
        a = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
        if kind == "const":
            rows.append(np.r_[a, np.zeros(width - 1)])
        elif kind == "pole":
            q = draw(st.floats(-3.0, 3.0))
            rows.append(a * q ** np.arange(width))
        elif kind == "exp":
            x = draw(st.floats(-3.0, 3.0))
            rows.append(a * np.array([x ** k / math.factorial(k)
                                      for k in range(width)]))
        else:
            seed = draw(st.integers(0, 2 ** 32 - 1))
            rows.append(a * np.random.default_rng(seed).uniform(-1, 1, width))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(_pade_tables(), st.integers(0, 6))
def test_batch_pade_matches_per_row_reference(table, where):
    L = M = 7
    nums, dens = batch_pade(table, L, M)
    for i, c in enumerate(table):
        num, den = _reference_pade_row(c, L, M)
        scale = max(1.0, np.max(np.abs(num)), np.max(np.abs(den)))
        assert np.max(np.abs(nums[i, : len(num)] - num)) <= 1e-10 * scale
        assert np.all(nums[i, len(num):] == 0.0)
        assert np.max(np.abs(dens[i, : len(den)] - den)) <= 1e-10 * scale
        assert np.all(dens[i, len(den):] == 0.0)

    # a row whose Toeplitz system is exactly singular (a linear polynomial)
    # is solved by least squares and leaves every other row as it was
    singular = np.r_[1.0, 0.5, np.zeros(14)]
    pos = min(where, len(table))
    with_singular = np.insert(table, pos, singular, axis=0)
    nums_s, dens_s = batch_pade(with_singular, L, M)
    keep = np.arange(len(with_singular)) != pos
    assert np.array_equal(nums_s[keep], nums)
    assert np.array_equal(dens_s[keep], dens)
    assert np.allclose(nums_s[pos, :2], [1.0, 0.5]) and np.all(dens_s[pos, 1:] == 0.0)


# --- bracketed root -----------------------------------------------------------------

def test_bracketed_root_meets_xtol():
    root = 2.0 ** (1.0 / 3.0)
    for xtol in (1e-6, 1e-12, 1e-14):
        x = bracketed_root(lambda s: s ** 3 - 2.0, 0.0, 3.0, xtol)
        assert abs(x - root) <= xtol


def test_bracketed_root_rejects_bad_brackets():
    with pytest.raises(ValueError):
        bracketed_root(lambda s: s * s + 1.0, -1.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        bracketed_root(lambda s: math.nan if s > 0.2 else -1.0, 0.0, 1.0, 1e-9)
