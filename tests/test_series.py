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
    _PADE_TOL,
    _level_indices,
    _pade_level,
    _solve_stack,
    batch_pade,
    bracketed_roots,
    shrink_refine_range,
)

RNG = np.random.default_rng(2024)
EPS = np.finfo(float).eps
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


def test_pade_certificate_counts_c0_as_exact():
    # a row of a fourbus hybrid segment: its (7,7) level re-expands exactly
    # to within 1.8% of tol, and its certificate reads 0.94 of tol at t^14,
    # where |h_14| is 7e5; num_0 = c_0 is exact, and charging it the
    # rounding of the other coefficients ((m + 2) eps c_0 |h_14|, 0.064 of
    # tol) rejected the level
    c = [0.46263641851202897, 0.0, -5.912226444364694e-16,
         4.994303306087261e-15, -2.764347749526952e-14,
         1.2256271506977454e-13, -4.4203059266317457e-13,
         1.3635222135477578e-12, -3.707747409248703e-12,
         8.97388348589109e-12, -1.9506918634461337e-11,
         3.85108240554406e-11, -6.96895166868825e-11,
         1.1637777696269936e-10, -1.803587325812722e-10,
         2.607230020732454e-10]
    num, den = _pade(c, 7, 7)
    assert _degree(den) == 7
    re = _exact_reexpansion(num, den, 14)
    assert max(abs(x - Fraction(v)) for x, v in zip(re, c)) < 2e-10


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
    squares for an exactly singular system) and its certificate written as
    plain loops: e = den * c - num (zero through t^L), the Taylor
    coefficients h of 1/den by their recurrence, and at each k the product
    |sum_i h[k-i] e[i]| plus the rounding of e and of that product carried
    through sum_i |h[k-i]| rho[i].
    """
    L = n_num
    eps = np.finfo(float).eps
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
        n = L + m + 1
        terms = [[den[j] * c[k - j] for j in range(min(k, m) + 1)]
                 for k in range(n)]
        num = np.array([sum(terms[k]) for k in range(L + 1)])
        e = [0.0] * (L + 1) + [sum(terms[k]) for k in range(L + 1, n)]
        h = [1.0]
        for k in range(1, n):
            h.append(-sum(den[j] * h[k - j] for j in range(1, min(k, m) + 1)))
        rho = [0.0] + [(m + 2) * eps * sum(abs(x) for x in terms[k])
                       + (n + 1) * eps * abs(e[k]) for k in range(1, n)]
        err = max(abs(sum(h[k - i] * e[i] for i in range(k + 1)))
                  + sum(abs(h[k - i]) * rho[i] for i in range(k + 1))
                  for k in range(n))
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


@settings(max_examples=40, deadline=None)
@given(_pade_tables(), st.data())
def test_batch_pade_per_row_orders_match_per_row_calls(table, data):
    # one call with an order per row (0 keeps the series, 9 is too long for
    # a 16-wide table) gives each row exactly what its own call gives
    orders = data.draw(st.lists(st.integers(0, 9), min_size=len(table),
                                max_size=len(table)))
    nums, dens = batch_pade(table, 7, np.array(orders))
    assert dens.shape == (len(table), max(orders) + 1)
    for i, (c, m) in enumerate(zip(table, orders)):
        num, den = batch_pade(c[None], 7, m)
        assert np.array_equal(nums[i], num[0])
        assert np.array_equal(dens[i, : m + 1], den[0])
        assert np.all(dens[i, m + 1:] == 0.0)


# --- one Pade level against its broadcast-sum formula -------------------------------

def _broadcast_sum_level(C, L, m):
    """``_pade_level`` with its Toeplitz products written as a broadcast
    multiply and a ``.sum(axis=-1)``, the formula the stacked ``@`` products
    replaced: (nums, dens, accepted, err, scale)."""
    rows, n = C.shape[0], L + m + 1
    toep, band, lag = _level_indices(L, m)
    size = np.abs(C)
    scale = np.maximum(1.0, size.max(axis=1))
    finite = np.isfinite(scale)
    const = finite & (size[:, 1:].max(axis=1, initial=0.0) <= 1e-14 * scale)
    dens = np.zeros((rows, n + 2))
    dens[:, 1] = 1.0
    padded = np.zeros((rows, m + 1 + n))
    padded[:, m + 1:] = C[:, :n]
    with np.errstate(all="ignore"):
        solve = ~const
        dens[solve, 2: m + 2] = _solve_stack(padded[solve][:, toep],
                                             -C[solve, L + 1: L + m + 1])
        terms = padded[:, band] * dens[:, : m + 2, None]
        nums = terms[:, :, : L + 1].sum(axis=1)
        e = terms[:, :, L + 1:].sum(axis=1)
        nums[const] = 0.0
        nums[const, 0] = C[const, 0]
        dens = dens[:, 1:]
        h = np.zeros_like(dens)
        h[:, 0] = 1.0
        for k in (1 << i for i in range((n - 1).bit_length())):
            hi = min(2 * k, n)
            q = (dens[:, lag[k:hi, :k]] * h[:, None, :k]).sum(axis=-1)
            h[:, k:hi] = -(h[:, lag[k:hi, k:hi]] * q[:, None, :]).sum(axis=-1)
        rho = (m + 2) * EPS * np.abs(terms).sum(axis=1)
        rho[:, 0] = 0.0
        rho[:, L + 1:] += (n + 1) * EPS * np.abs(e)
        err = (np.abs(h)[:, lag] * rho[:, None, :]).sum(axis=-1)
        err[:, L + 1:] += np.abs((h[:, lag[:m, :m]] * e[:, None, :])
                                 .sum(axis=-1))
        err = err.max(axis=1)
    ok = finite & (err <= _PADE_TOL * scale)
    return nums, dens[:, : m + 1], ok | const, err, scale


_LEVEL_ROWS = st.sampled_from(["series", "const", "nan", "inf", "polynomial",
                               "few_poles", "huge"])


def _level_row(kind, rng, width):
    """One coefficient row of the given kind, from the generator rng."""
    k = np.arange(width)
    a = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
    if kind == "const":  # a tail at float noise, or exactly zero
        return np.r_[a, abs(a) * 1e-15 * rng.uniform(-1, 1, width - 1)
                     * rng.integers(0, 2)]
    if kind in ("polynomial", "few_poles"):  # Toeplitz singular, or all but
        degree = int(rng.integers(0, width))
        c = np.where(k <= degree, a * rng.uniform(-1, 1, width), 0.0)
        if kind == "few_poles":
            poles = rng.uniform(-3, 3, int(rng.integers(1, 3)))
            c += a * (poles[:, None] ** k).sum(axis=0)
            c *= 1.0 + 1e-15 * rng.uniform(-1, 1, width)
        return c
    c = a * (10.0 ** rng.uniform(-1, 1)) ** k * rng.uniform(-1, 1, width)
    if kind == "huge":
        c *= 10.0 ** (rng.uniform(150, 250) * rng.integers(0, 2, width))
    elif kind in ("nan", "inf"):
        c[rng.integers(0, width)] = (math.nan if kind == "nan"
                                     else rng.choice([-math.inf, math.inf]))
    return c


@st.composite
def _level_orders(draw):
    """(L, m) of one ladder level, L + m + 1 <= 41."""
    n = draw(st.integers(2, 41))
    m = draw(st.integers(1, n - 1))
    return n - 1 - m, m


@settings(max_examples=200, deadline=None)
@given(_level_orders(), st.lists(_LEVEL_ROWS, min_size=1, max_size=60),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
# a Toeplitz system holding NaN: LU calls it singular, and its SVD did not
# converge, so the min-norm fallback raised LinAlgError
@example((11, 13), ["nan"], 0, 170)
@example((18, 9), ["nan", "nan"], 1, 3980901)
# a huge row of an earlier generator overflowed while it was drawn
@example((12, 1), ["series"] * 3 + ["const"] + ["nan"] * 3 + ["inf"] * 3
         + ["huge"] * 3, 2, 400)
def test_pade_level_matches_broadcast_sum_formula(orders, kinds, extra, seed):
    # the stacked products give the formula's nums and dens bit for bit, and
    # its accept mask wherever its err is not within 8 ulp of the tolerance;
    # a row holding a NaN or an inf is never accepted
    L, m = orders
    rng = np.random.default_rng(seed)
    C = np.array([_level_row(kind, rng, L + m + 1 + extra) for kind in kinds])
    nums, dens, ok = _pade_level(C, L, m)
    ref_nums, ref_dens, ref_ok, err, scale = _broadcast_sum_level(C, L, m)
    assert nums.tobytes() == ref_nums.tobytes()
    assert dens.tobytes() == ref_dens.tobytes()
    bound = _PADE_TOL * scale
    far = ~(np.abs(err - bound) <= 8 * np.spacing(bound))
    assert np.array_equal(ok[far], ref_ok[far])
    assert not ok[~np.isfinite(C).all(axis=1)].any()


# --- bracketed roots ----------------------------------------------------------------

def _one_by_one(f):
    """A per-point f as bracketed_roots calls it: bracket indices, points."""
    return lambda i, x: [f(v) for v in x]


def test_bracketed_root_meets_xtol():
    root = 2.0 ** (1.0 / 3.0)
    for xtol in (1e-6, 1e-12, 1e-14):
        x = bracketed_roots(_one_by_one(lambda s: s ** 3 - 2.0), [0.0], [3.0],
                            xtol)
        assert abs(x[0] - root) <= xtol


def test_bracketed_root_rejects_bad_brackets():
    with pytest.raises(ValueError):
        bracketed_roots(_one_by_one(lambda s: s * s + 1.0), [-1.0], [1.0],
                        1e-9)
    with pytest.raises(ValueError):
        bracketed_roots(_one_by_one(lambda s: math.nan if s > 0.2 else -1.0),
                        [0.0], [1.0], 1e-9)


_bracket = st.tuples(
    st.floats(-10.0, 10.0),                       # root
    st.floats(1e-3, 5.0), st.floats(1e-3, 5.0),   # distance to lo and hi
    st.sampled_from([1.0, -1.0]),                 # rising or falling
    st.integers(1, 3))                            # odd power about the root


@settings(max_examples=150, deadline=None)
@given(st.lists(_bracket, min_size=1, max_size=8),
       st.sampled_from([1e-6, 1e-9, 1e-12]), st.data())
@example([(0.0, 1.0, 1.0, 1.0, 1)], 1e-9, None)  # root at the first midpoint
# f(lo) * f(hi) underflows to 0 once f(lo) = -5e-324: no end is a root
@example([(5e-324, 1.0, 1.0, 1.0, 1)], 1e-6, None)
def test_bracketed_roots_match_each_bracket_solved_alone(stack, xtol, data):
    # monotone f_i(x) = s (x - r)^p: one batched solve gives every row the
    # bits of that bracket's own solve, within xtol of its root
    fs = [lambda x, r=r, s=s, p=p: s * (x - r) ** (2 * p - 1)
          for r, _, _, s, p in stack]
    lo = [r - a for r, a, *_ in stack]
    hi = [r + b for r, _, b, *_ in stack]

    def f(i, x):
        return [fs[k](v) for k, v in zip(i, x)]

    roots = bracketed_roots(f, lo, hi, xtol)
    for k, (r, *_) in enumerate(stack):
        alone = bracketed_roots(_one_by_one(fs[k]), [lo[k]], [hi[k]], xtol)
        assert roots[k].tobytes() == alone[0].tobytes()
        assert abs(roots[k] - r) <= xtol * (1.0 + 1e-12) + 4 * abs(r) * EPS
    if data is not None:
        # one bracket with one sign at both ends spoils the stack
        bad = data.draw(st.integers(0, len(stack) - 1))
        fs[bad] = lambda x: 1.0 + x * x
        with pytest.raises(ValueError):
            bracketed_roots(f, lo, hi, xtol)


@settings(max_examples=60, deadline=None)
@given(st.lists(_bracket, min_size=1, max_size=8),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
@example([(0.0, 1.0, 1.0, 1.0, 1)], 1e-9)  # root at the first midpoint
@example([(0.0, 0.0, 1.0, 1.0, 1)], 1e-9)  # root at lo: f(lo) = 0
def test_bracketed_roots_take_the_end_values_in_place_of_two_calls(stack,
                                                                   xtol):
    # the same roots, bit for bit, from f at the ends given, and exactly two
    # calls of f fewer than when it is asked for them
    fs = [lambda x, r=r, s=s, p=p: s * (x - r) ** (2 * p - 1)
          for r, _, _, s, p in stack]
    lo = np.array([r - a for r, a, *_ in stack])
    hi = np.array([r + b for r, _, b, *_ in stack])
    calls = []

    def f(i, x):
        calls.append(len(i))
        return [fs[k](v) for k, v in zip(i, x)]

    asked = bracketed_roots(f, lo, hi, xtol)
    n_asked = len(calls)
    calls.clear()
    y_ends = [f(np.arange(len(lo)), x) for x in (lo, hi)]
    calls.clear()
    given_ends = bracketed_roots(f, lo, hi, xtol, y_ends)
    assert given_ends.tobytes() == asked.tobytes()
    assert len(calls) == n_asked - 2
