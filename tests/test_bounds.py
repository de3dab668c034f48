"""Interval-Horner bounds and steady-state rate criteria."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hesim.bounds import (
    SteadyStateVerdict,
    poly_bounds,
    steady_state_check,
    verdict_from_deltas,
)
from hesim.engine import solve_segment
from hesim.errors import EmptyVariableSet
from hesim.model import DYNAMIC, build_system, init_equilibrium
from hesim.scheduler import steadiness_verdict
from hesim.series import batch_pade

RNG = np.random.default_rng(11)
POLYVAL = np.polynomial.polynomial.polyval


def dense_extrema(coeffs, T, n=10_000):
    t = np.linspace(0.0, T, n)
    v = np.polynomial.polynomial.polyval(t, coeffs)
    return v.min(), v.max()


def check(C, nums, dens, t_e, eps_t=1e-3):
    """steady_state_check on list-of-rows input."""
    return steady_state_check(np.array(C, float), np.array(nums, float),
                              np.array(dens, float), t_e, eps_t)


# --- scalar reference: one row at a time --------------------------------------


def scalar_poly_bounds(c, T):
    """Interval Horner, one coefficient at a time."""
    ub = lb = c[-1]
    for k in range(len(c) - 2, -1, -1):
        xk = c[k]
        ub = xk if ub < 0 else ub * T + xk
        lb = xk if lb > 0 else lb * T + xk
    return lb, ub


def reference_check(C, nums, dens, t_e, eps_t):
    """Per-row PS and PA rate bounds by scalar loops over each row,
    zero-padded to the table width; both NaN on a non-finite row."""
    width = max(C.shape[1], nums.shape[1], dens.shape[1], 2)
    out = []
    with np.errstate(all="ignore"):
        for c, num, den in zip(C, nums, dens):
            c, num, den = (np.concatenate([r, np.zeros(width - len(r))])
                           for r in (c, num, den))
            lb, ub = scalar_poly_bounds(c[1:], t_e)
            d_ps = max(abs(lb), abs(ub))
            den_lb, _ = scalar_poly_bounds(den, t_e)
            d_pa = np.nan
            if den_lb > 0:
                na_lb, na_ub = scalar_poly_bounds((num - num[0] * den)[1:], t_e)
                d_pa = max(abs(na_lb), abs(na_ub)) / den_lb
            if not np.isfinite(np.concatenate([c, num, den])).all():
                d_ps = d_pa = np.nan
            out.append((d_ps, d_pa, bool(d_ps < eps_t or d_pa < eps_t)))
    return tuple(np.array(col) for col in zip(*out))


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def row_tables(draw):
    """(C, nums, dens, t_e): random rows, some scaled down far enough to
    read steady, dens with den[0] = 1 and a random number of zero-padded
    trailing coefficients, up to three entries replaced by NaN or +-inf."""
    rows = draw(st.integers(1, 6))
    elems = st.floats(-3, 3)
    scale = draw(hnp.arrays(float, (rows, 1),
                            elements=st.sampled_from([1.0, 1e-3, 1e-6])))
    C = scale * draw(hnp.arrays(float, (rows, draw(st.integers(1, 8))),
                                elements=elems))
    nums = scale * draw(hnp.arrays(float, (rows, draw(st.integers(1, 8))),
                                   elements=elems))
    n_den = draw(st.integers(1, 5))
    dens = draw(hnp.arrays(float, (rows, n_den), elements=st.floats(-1, 1)))
    dens[:, 0] = 1.0
    for i in range(rows):
        dens[i, draw(st.integers(1, n_den)):] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        a = (C, nums, dens)[draw(st.integers(0, 2))]
        a[draw(st.integers(0, rows - 1)),
          draw(st.integers(0, a.shape[1] - 1))] = draw(SPECIAL)
    return C, nums, dens, draw(st.floats(0.05, 3.0))


# --- poly_bounds ---------------------------------------------------------------

def test_constant_polynomial():
    assert poly_bounds([3.5], 2.0) == (3.5, 3.5)


def test_linear_interval_endpoints():
    lb, ub = poly_bounds([0.0, 1.0], 1.0)
    assert lb == 0.0 and ub == 1.0


def test_bounds_contain_dense_samples():
    for _ in range(1000):
        deg = RNG.integers(1, 11)
        c = RNG.uniform(-10, 10, deg + 1)
        lb, ub = poly_bounds(c, 0.5)
        lo, hi = dense_extrema(c, 0.5)
        assert lb <= lo + 1e-12 and hi <= ub + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16),
       st.floats(0.01, 2.0))
def test_bounds_sound_property(coeffs, T):
    lb, ub = poly_bounds(coeffs, T)
    lo, hi = dense_extrema(np.array(coeffs), T, n=2000)
    assert lb <= lo + 1e-9 and hi <= ub + 1e-9


def test_negative_interval_rejected():
    with pytest.raises(ValueError):
        poly_bounds([1.0], -1.0)


def test_row_table_matches_per_row_calls():
    c = RNG.uniform(-10, 10, (50, 9))
    lb, ub = poly_bounds(c, 0.7)
    assert lb.shape == ub.shape == (50,)
    for i, row in enumerate(c):
        assert (lb[i], ub[i]) == poly_bounds(row, 0.7)


# --- the row table against the scalar reference ---------------------------------


@settings(max_examples=400, deadline=None)
@given(row_tables())
def test_steady_state_check_matches_scalar_reference(table):
    C, nums, dens, t_e = table
    got = steady_state_check(C, nums, dens, t_e, 1e-3)
    want = reference_check(C, nums, dens, t_e, 1e-3)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    finite = (np.isfinite(C).all(axis=1) & np.isfinite(nums).all(axis=1)
              & np.isfinite(dens).all(axis=1))
    assert not got[2][~finite].any()  # a non-finite row never reads steady


# --- PS rate bound ----------------------------------------------------------------

def test_ps_constant_series_has_zero_delta():
    d_ps, _, _ = check([[5.0, 0.0, 0.0]], [[5.0]], [[1.0]], 1.0)
    assert d_ps[0] == 0.0


def test_ps_linear_series():
    d_ps, _, _ = check([[0.0, 2.0, 0.0]], [[0.0, 2.0]], [[1.0]], 1.0)
    assert d_ps[0] == 2.0


def test_ps_bounds_sampled_rate():
    c = RNG.uniform(-2, 2, (30, 9))
    t_e = 0.8
    d_ps, _, _ = steady_state_check(c, c, np.ones((30, 1)), t_e, 1e-3)
    t = np.linspace(t_e / 100, t_e, 100)
    for row, delta in zip(c, d_ps):
        rate = np.abs((POLYVAL(t, row) - row[0]) / t)
        assert np.all(rate <= delta + 1e-9)


# --- PA rate bound -----------------------------------------------------------------

def test_pa_constant():
    _, d_pa, _ = check([[4.0]], [[4.0]], [[1.0]], 1.0)
    assert d_pa[0] == 0.0


def test_pa_undefined_when_denominator_can_vanish():
    # den(t) = 1 - 2t dips negative on [0, 1]
    _, d_pa, _ = check([[1.0, 2.0]], [[1.0, 0.0]], [[1.0, -2.0]], 1.0)
    assert np.isnan(d_pa[0])


def test_pa_bounds_sampled_rate_damped_exponential():
    # Pade of exp(-2t), a damped segment
    k = np.arange(9)
    series = (-2.0) ** k / np.array([math.factorial(i) for i in k])
    nums, dens = batch_pade(series[None], 4, 4)
    assert dens[0, 4] != 0.0 and np.all(nums[0, 5:] == 0.0)  # (4,4) accepted
    t_e = 0.5
    _, d_pa, _ = check([series], nums, dens, t_e)
    assert np.isfinite(d_pa[0])
    t = np.linspace(t_e / 100, t_e, 100)

    def pade(t):
        return POLYVAL(t, nums[0]) / POLYVAL(t, dens[0])

    rate = np.abs((pade(t) - pade(0.0)) / t)
    assert np.all(rate <= d_pa[0] + 1e-9)


def test_pa_signed_bounds_use_the_right_denominator_end():
    # (1 + 2t)/(1 + t): the average rate 1/(1 + t) spans [0.2, 1] on [0, 4];
    # the signed numerator bounds are divided by the denominator's lower end
    _, d_pa, _ = check([[1.0, 1.0, -1.0, 1.0]], [[1.0, 2.0]], [[1.0, 1.0]], 4.0)
    assert d_pa[0] == 1.0
    t = np.linspace(4.0 / 500, 4.0, 500)
    rate = np.abs(((1 + 2 * t) / (1 + t) - 1.0) / t)
    assert np.all(rate <= d_pa[0] + 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=4),
       st.lists(st.floats(-1, 1), min_size=1, max_size=3),
       st.floats(0.05, 3.0))
# (1 + 2t)/(1 + t): the average rate 1/(1 + t) peaks at 1 as t -> 0
@example([1.0, 2.0], [1.0], 4.0)
def test_pa_signed_bounds_contain_sampled_rate(num, den_tail, t_e):
    """delta_ps and delta_pa, built from the signed interval bounds of the
    rate polynomials, contain the sampled average rate."""
    den = [1.0] + den_tail
    k = np.arange(9)
    # the approximant's own Taylor series as the PS row
    series = np.zeros(len(k))
    for j in k:
        series[j] = (num[j] if j < len(num) else 0.0) - sum(
            den[i] * series[j - i] for i in range(1, min(j, len(den) - 1) + 1))
    d_ps, d_pa, _ = check([series], [num], [den], t_e)
    t = np.linspace(t_e / 500, t_e, 500)
    ps_rate = np.abs((POLYVAL(t, series) - series[0]) / t)
    assert np.all(ps_rate <= d_ps[0] + 1e-9 * (1.0 + np.max(ps_rate)))
    if np.isnan(d_pa[0]):
        assert poly_bounds(den, t_e)[0] <= 0
        return
    rate = np.abs((POLYVAL(t, num) / POLYVAL(t, den) - num[0]) / t)
    assert np.all(rate <= d_pa[0] + 1e-9 * (1.0 + np.max(rate)))


# --- steady-state verdicts ------------------------------------------------------------

def test_table_style_decisions():
    eps = 1e-3
    # omega, V4^2, Vm2
    ps_ok, pa_ok = verdict_from_deltas(np.array([6.11e-4, 0.0279, 3.76e-4]),
                                       np.array([1.26e-4, 9.85e-4, 0.0013]),
                                       eps)
    assert (ps_ok | pa_ok).all()
    assert list(ps_ok) == [True, False, True]
    assert list(pa_ok) == [True, True, False]


def test_raising_threshold_never_flips_to_not_steady():
    dps = RNG.uniform(0, 2e-3, 200)
    dpa = np.where(RNG.random(200) < 0.8, RNG.uniform(0, 2e-3, 200), np.nan)
    low = np.logical_or(*verdict_from_deltas(dps, dpa, 1e-3))
    high = np.logical_or(*verdict_from_deltas(dps, dpa, 2e-3))
    assert np.all(high[low])


def test_pa_undefined_falls_back_to_ps():
    ps_ok, pa_ok = verdict_from_deltas(5e-4, np.nan, 1e-3)
    assert ps_ok and not pa_ok


def test_steady_state_check_system_verdict():
    flat = [1.0, 1e-5, 0.0, 0.0]
    p_num, p_den = batch_pade(np.array([flat]), 1, 1)
    moving = [1.0, 0.5, 0.0, 0.0]
    num = np.zeros((2, 4))
    num[0] = p_num[0]
    num[1] = moving
    den = np.zeros((2, 2))
    den[0] = p_den[0]
    den[1, 0] = 1.0
    out = SteadyStateVerdict(["a", "b"], *check([flat, moving], num,
                                                den, 1.0), 1e-3)
    assert out.steady[0]
    assert not out.steady[1]
    assert not out.system_steady


def test_empty_variable_set():
    with pytest.raises(EmptyVariableSet):
        steady_state_check(np.zeros((0, 3)), np.zeros((0, 3)),
                           np.zeros((0, 1)), 1.0, 1e-3)


def test_reference_angle_invariance(fourbus):
    # a common drift added to every rotor angle must not change the verdict,
    # because each angle is bounded relative to its island's reference
    case, _ = fourbus
    st_ = init_equilibrium(case)
    built = build_system(case, st_, DYNAMIC)
    seg = solve_segment(built.system, built.anchors(st_),
                        built.knowns(st_, st_.t, 16), 15, "TIME_DYNAMIC",
                        1e-8, 0.2)
    rows = [built.system.index[n] for n in built.monitored_angles.values()]
    assert len(rows) > 1
    C = seg.C.copy()
    C[rows, 1] += 7.0
    plain = steadiness_verdict(case, st_, built, seg, 1e-3)
    shifted = steadiness_verdict(case, st_, built,
                                 dataclasses.replace(seg, C=C), 1e-3)
    assert plain.names == shifted.names
    assert list(plain.steady) == list(shifted.steady)
    assert plain.system_steady == shifted.system_steady
