"""Series kernels: the products and reciprocals of the order recursion,
batched Pade conversion and the effective-range search."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesim.engine import SystemBuilder, _horner
from hesim.errors import NoValidRange
from hesim.series import (
    batch_pade,
    bracketed_root,
    shrink_refine_range,
)

RNG = np.random.default_rng(2024)
POLYVAL = np.polynomial.polynomial.polyval


def _known_table(*series, n):
    k = np.zeros((len(series), n + 1))
    for row, c in zip(k, series):
        c = np.asarray(c, float)[: n + 1]
        row[: len(c)] = c
    return k


# --- series products, as the order recursion solves p = a b -----------------

def _product(a, b, n):
    """Coefficients 0..n of a * b from ``solve_series``: the unknown p
    solves p - a b = 0 with a and b known input series."""
    sb = SystemBuilder()
    p, eq = sb.alg("p"), sb.alg_eq("p - a b")
    sb.term(eq, 1.0, p)
    sb.term(eq, -1.0, sb.known("a"), sb.known("b"))
    k = _known_table(a, b, n=n)
    return sb.compile().solve_series(k[:1, 0] * k[1:, 0], k, n)[0]


def test_mul_binomial_square():
    out = _product([1.0, 1.0], [1.0, 1.0], 2)
    assert np.allclose(out, [1.0, 2.0, 1.0])


def test_mul_identity():
    a = np.array([3.0, -2.0, 0.5, 7.0])
    out = _product(a, [1.0, 0.0, 0.0, 0.0], 3)
    assert np.allclose(out, a)


def test_mul_matches_polynomial_expansion():
    # brute-force oracle: numpy's own polynomial product
    for _ in range(50):
        a = RNG.uniform(-5, 5, 5)
        b = RNG.uniform(-5, 5, 5)
        expect = np.polynomial.polynomial.polymul(a, b)
        assert np.allclose(_product(a, b, 8), expect[:9])


# --- series reciprocals, as the order recursion solves a y = 1 ---------------

def _reciprocal(a, n):
    """Coefficients 0..n of 1/a from ``solve_series``: the unknown y
    solves a y - 1 = 0 with a a known input series."""
    sb = SystemBuilder()
    y, eq = sb.alg("y"), sb.alg_eq("a y - 1")
    sb.term(eq, 1.0, sb.known("a"), y)
    sb.term(eq, -1.0)
    k = _known_table(a, n=n)
    return sb.compile().solve_series(1.0 / k[:, 0], k, n)[0]


def _unit_error(coeffs, recip):
    n = len(recip) - 1
    unit = np.convolve(coeffs, recip)[: n + 1]
    expect = np.zeros(n + 1)
    expect[0] = 1.0
    return np.max(np.abs(unit - expect))


def test_reciprocal_of_one():
    assert np.allclose(_reciprocal([1.0, 0.0, 0.0], 2), [1.0, 0.0, 0.0])


def test_reciprocal_of_constant():
    assert np.allclose(_reciprocal([2.0, 0.0, 0.0], 2), [0.5, 0.0, 0.0])


def test_reciprocal_geometric():
    # 1/(1+t) = 1 - t + t^2 - t^3
    out = _reciprocal([1.0, 1.0, 0.0, 0.0], 3)
    assert np.allclose(out, [1.0, -1.0, 1.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=7),
       st.floats(0.1, 3).filter(lambda v: abs(v) >= 0.1))
def test_reciprocal_roundtrip(tail, lead):
    # 1e-10 relative to the reciprocal's own magnitude: its coefficients can
    # grow like (|a|/|a0|)^k, which float64 cannot cancel to 1e-10 absolute
    coeffs = np.array([lead] + tail)
    recip = _reciprocal(coeffs, len(coeffs) - 1)
    scale = max(1.0, float(np.max(np.abs(recip))))
    assert _unit_error(coeffs, recip) < 1e-10 * scale


def test_reciprocal_roundtrip_thousand_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = rng.uniform(-1, 1, rng.integers(2, 8))
        c[0] = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
        recip = _reciprocal(c, len(c) - 1)
        scale = max(1.0, float(np.max(np.abs(recip))))
        assert _unit_error(c, recip) < 1e-10 * scale


# --- batch_pade, one row at a time ----------------------------------------------

def _pade(coeffs, n_num, n_den):
    """batch_pade of a one-row table: (num, den) of that row."""
    nums, dens = batch_pade(np.array([coeffs], float), n_num, n_den)
    return nums[0], dens[0]


def _degree(c):
    return len(np.trim_zeros(c, "b")) - 1


def test_pade_reconstructs_simple_pole():
    # 1/(1-t) truncated at order 4
    num, den = _pade([1.0, 1.0, 1.0, 1.0, 1.0], 1, 1)
    assert np.allclose(num, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(den, [1.0, -1.0])


def test_pade_of_constant_is_itself():
    num, den = _pade([4.5, 0.0, 0.0], 1, 1)
    assert np.allclose(np.trim_zeros(num, "b"), [4.5])
    assert np.allclose(np.trim_zeros(den, "b"), [1.0])


def test_pade_exp_reexpansion():
    coeffs = [1 / math.factorial(k) for k in range(5)]
    num, den = _pade(coeffs, 2, 2)
    assert _degree(den) == 2  # the (2,2) level was accepted
    # re-expand num/den and compare Taylor coefficients
    re = np.array(_exact_reexpansion(num, den, 4), float)
    assert np.max(np.abs(re - coeffs)) < 1e-12


def test_pade_order_contract():
    # a table too short for the orders keeps its series as the numerator
    num, den = _pade([1.0, 2.0], 2, 2)
    assert num.tolist() == [1.0, 2.0, 0.0] and den.tolist() == [1.0, 0.0, 0.0]


def test_pade_fallback_ladder_reaches_series():
    # random noise usually has a usable Pade; a short series with a
    # deliberately inconsistent tail must at worst return the series itself
    num, den = _pade([1.0, 0.0, 0.0, 0.0, 1e30], 2, 2)
    assert den[0] == 1.0


def test_pade_normalizes_denominator():
    # every row's denominator starts at 1, accepted or fallen back, so each
    # approximant reads its series' constant term at t = 0
    table = np.array([[2.0, 1.0, 0.5, 0.25, 0.125],
                      [1.0, 0.0, 0.0, 0.0, 1e30],
                      [-3.0, 0.0, 0.0, 0.0, 0.0]])
    nums, dens = batch_pade(table, 2, 2)
    assert np.all(dens[:, 0] == 1.0)
    assert np.allclose(_horner(nums.T, 0.0) / _horner(dens.T, 0.0), table[:, 0])


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
    # an accepted (3, m) level keeps num to degree 3 and reproduces the
    # series through order 3 + m (checked through 3 + its trimmed degree);
    # a row no level accepts keeps the whole series as its numerator
    num, den = _pade(coeffs, 3, 3)
    n = 6 if np.any(num[4:] != 0.0) else 3 + max(_degree(den), 0)
    re = _exact_reexpansion(num, den, n)
    scale = max(1.0, np.max(np.abs(coeffs)))
    assert max(abs(x - Fraction(float(c))) for x, c in zip(re, coeffs)) \
        < 1e-8 * scale


def test_pade_rejects_reexpansion_lost_to_cancellation():
    # the (3,3) denominator is 1 + 1.8e201 t^3; num_3 and den_3 * c_0 round
    # alike, so a float re-expansion reproduces c_3 = 0 although the
    # approximant's own t^3 coefficient is of order 1e185
    num, den = _pade([-1.01626964257285, -4.0006782736425527e-202,
                      0.0, 0.0, 0.7335599636116235, 0.0, 0.0], 3, 3)
    assert _degree(den) < 3


# --- evaluation ------------------------------------------------------------------

def test_eval_series_horner():
    assert _horner(np.array([1.0, 2.0, 1.0]), 1.0) == pytest.approx(4.0)


def test_eval_at_zero_gives_constant_term():
    assert _horner(np.array([3.25, -1.0, 9.0]), 0.0) == 3.25
    assert (_horner(np.array([3.25, 1.0]), 0.0)
            / _horner(np.array([1.0, 0.5]), 0.0)) == 3.25


def test_eval_pade_closed_form():
    # 1/(1+t) at t = 0.5 -> 2/3
    num, den = _pade([1.0, -1.0, 1.0, -1.0, 1.0], 1, 1)
    assert _horner(num, 0.5) / _horner(den, 0.5) \
        == pytest.approx(2.0 / 3.0, abs=1e-12)


# --- effective range ----------------------------------------------------------------

def _square_ode_residual_at(x):
    """Max residual of x' = x^2 at each probe time, x a series."""
    dx = np.polynomial.polynomial.polyder(x)
    return lambda ts: np.abs(POLYVAL(ts, dx) - POLYVAL(ts, x) ** 2)


def test_effective_range_exact_polynomial():
    # x(t) = 1 + t solves x' = 1 exactly: zero residual everywhere
    dx = np.polynomial.polynomial.polyder([1.0, 1.0])
    assert shrink_refine_range(lambda ts: np.abs(POLYVAL(ts, dx) - 1.0),
                               1e-6, 1.0) == 1.0


def test_effective_range_detects_pole():
    # truncated series of 1/(1-t); the residual of x' = x^2 blows up near t=1
    residual_at = _square_ode_residual_at(np.ones(16))
    assert shrink_refine_range(residual_at, 1e-6, 2.0) < 1.0


def test_effective_range_monotone_in_tolerance():
    residual_at = _square_ode_residual_at(np.ones(16))
    loose = shrink_refine_range(residual_at, 1e-4, 2.0)
    tight = shrink_refine_range(residual_at, 5e-5, 2.0)
    tighter = shrink_refine_range(residual_at, 2.5e-5, 2.0)
    assert loose >= tight >= tighter


def test_effective_range_no_valid_range():
    with pytest.raises(NoValidRange):  # never satisfiable
        shrink_refine_range(lambda ts: np.ones_like(ts), 1e-9, 1.0)


def test_range_search_rejects_nan_residual():
    # a NaN residual must count as a failure, not slip past "> tol"
    with pytest.raises(NoValidRange):
        shrink_refine_range(lambda ts: np.full_like(ts, math.nan), 1e-6, 1.0)


_LADDER = 2.0 ** (-np.arange(161) / 8)  # the ranges, as fractions of t_max


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 22.0), st.floats(0.0, 3.0),
                          st.sampled_from([1.0, math.nan, math.inf])),
                max_size=3),
       st.lists(st.integers(0, 152), max_size=4),
       st.floats(0.01, 100.0))
def test_range_search_stays_below_every_failing_probe(windows, nan_at, t_max):
    """Failing windows t_max * [2^-(u+w), 2^-u] (residual above tol, NaN
    or inf) and NaN at some probe positions of every call: the range found
    lies below every failing probe time the search saw, and each larger
    range of the ladder reaches one of them."""
    failed = []

    def residual_at(ts):
        res = np.zeros_like(ts)
        for u, w, fill in windows:
            lo, hi = t_max * 2.0 ** -(u + w), t_max * 2.0 ** -u
            res[(ts >= lo) & (ts <= hi)] = fill
        res[[i for i in nan_at if i < len(ts)]] = math.nan
        failed.extend(ts[~(res <= 1e-6)])
        return res

    try:
        t_e = shrink_refine_range(residual_at, 1e-6, t_max)
    except NoValidRange:
        t_e = 0.0
    first_bad = min(failed, default=np.inf)
    assert t_e < first_bad
    larger = t_max * _LADDER[t_max * _LADDER > t_e]
    assert np.all(larger >= first_bad)


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
