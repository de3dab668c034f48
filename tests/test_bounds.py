"""Interval-Horner bounds and steady-state rate criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesim.bounds import (
    PA,
    PA_UNDEFINED,
    PS,
    pa_rate_bound,
    poly_bounds,
    ps_rate_bound,
    steady_state_check,
    verdict_from_deltas,
)
from hesim.errors import EmptyVariableSet
from hesim.series import PadeApproximant, TruncatedSeries, pade_from_series

RNG = np.random.default_rng(11)


def dense_extrema(coeffs, T, n=10_000):
    t = np.linspace(0.0, T, n)
    v = np.polynomial.polynomial.polyval(t, coeffs)
    return v.min(), v.max()


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


# --- ps_rate_bound ----------------------------------------------------------------

def test_ps_constant_series_has_zero_delta():
    rb = ps_rate_bound(TruncatedSeries([5.0, 0.0, 0.0]), 1.0)
    assert rb.delta == 0.0 and rb.source == PS


def test_ps_linear_series():
    rb = ps_rate_bound(TruncatedSeries([0.0, 2.0, 0.0]), 1.0)
    assert rb.lower == 2.0 and rb.upper == 2.0 and rb.delta == 2.0


def test_ps_bounds_sampled_rate():
    for _ in range(30):
        c = RNG.uniform(-2, 2, 9)
        s = TruncatedSeries(c)
        t_e = 0.8
        rb = ps_rate_bound(s, t_e)
        t = np.linspace(t_e / 100, t_e, 100)
        rate = np.abs((s.eval(t) - s.eval(0.0)) / t)
        assert np.all(rate <= rb.delta + 1e-9)


# --- pa_rate_bound -----------------------------------------------------------------

def test_pa_constant():
    rb = pa_rate_bound(PadeApproximant([4.0], [1.0]), 1.0)
    assert rb.delta == 0.0 and rb.source == PA


def test_pa_undefined_when_denominator_can_vanish():
    # den(t) = 1 - 2t dips negative on [0, 1]
    rb = pa_rate_bound(PadeApproximant([1.0, 0.0], [1.0, -2.0]), 1.0)
    assert rb.source == PA_UNDEFINED


def test_pa_bounds_sampled_rate_damped_exponential():
    # Pade of exp(-2t), a damped segment
    import math
    k = np.arange(9)
    series = TruncatedSeries((-2.0) ** k / np.array([math.factorial(i) for i in k]))
    p = pade_from_series(series, 4, 4)
    t_e = 0.5
    rb = pa_rate_bound(p, t_e)
    assert rb.source == PA
    t = np.linspace(t_e / 100, t_e, 100)
    rate = np.abs((p.eval(t) - p.eval(0.0)) / t)
    assert np.all(rate <= rb.delta + 1e-9)


def test_pa_signed_bounds_use_the_right_denominator_end():
    # (1 + 2t)/(1 + t): average rate 1/(1 + t) spans [0.2, 1] on [0, 4]
    rb = pa_rate_bound(PadeApproximant([1.0, 2.0], [1.0, 1.0]), 4.0)
    assert rb.source == PA
    assert rb.lower <= 0.2 and rb.upper >= 1.0
    assert rb.delta == 1.0  # unchanged: max |numerator| / den lower bound


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=4),
       st.lists(st.floats(-1, 1), min_size=1, max_size=3),
       st.floats(0.05, 3.0))
def test_pa_signed_bounds_contain_sampled_rate(num, den_tail, t_e):
    p = PadeApproximant(num, [1.0] + den_tail)
    rb = pa_rate_bound(p, t_e)
    if rb.source != PA:
        return
    t = np.linspace(t_e / 500, t_e, 500)
    rate = (p.eval(t) - p.eval(0.0)) / t
    slack = 1e-9 * (1.0 + np.max(np.abs(rate)))
    assert np.all(rate >= rb.lower - slack)
    assert np.all(rate <= rb.upper + slack)
    assert np.all(np.abs(rate) <= rb.delta + slack)


# --- steady-state verdicts ------------------------------------------------------------

def test_table_style_decisions():
    eps = 1e-3
    omega = verdict_from_deltas(6.11e-4, 1.26e-4, eps)
    v4sq = verdict_from_deltas(0.0279, 9.85e-4, eps)
    vm2 = verdict_from_deltas(3.76e-4, 0.0013, eps)
    assert omega.is_steady and omega.ps_ok and omega.pa_ok
    assert v4sq.is_steady and not v4sq.ps_ok and v4sq.pa_ok
    assert vm2.is_steady and vm2.ps_ok and not vm2.pa_ok


def test_raising_threshold_never_flips_to_not_steady():
    for _ in range(200):
        dps = RNG.uniform(0, 2e-3)
        dpa = RNG.uniform(0, 2e-3) if RNG.random() < 0.8 else None
        low = verdict_from_deltas(dps, dpa, 1e-3)
        high = verdict_from_deltas(dps, dpa, 2e-3)
        if low.is_steady:
            assert high.is_steady


def test_pa_undefined_falls_back_to_ps():
    v = verdict_from_deltas(5e-4, None, 1e-3)
    assert v.is_steady and not v.pa_ok


def test_steady_state_check_system_verdict():
    flat = TruncatedSeries([1.0, 1e-5, 0.0, 0.0])
    moving = TruncatedSeries([1.0, 0.5, 0.0, 0.0])
    p_flat = pade_from_series(flat, 1, 1)
    out = steady_state_check({"a": (flat, p_flat), "b": (moving, None)},
                             t_e=1.0, eps_t=1e-3)
    assert out.per_variable["a"].is_steady
    assert not out.per_variable["b"].is_steady
    assert not out.system_steady


def test_empty_variable_set():
    with pytest.raises(EmptyVariableSet):
        steady_state_check({}, 1.0, 1e-3)


def test_reference_angle_invariance():
    # a common constant drift added to every rotor angle must not change the
    # verdict when a reference is subtracted
    base = {
        "delta:a": TruncatedSeries([0.3, 0.02, 0.001, 0.0]),
        "delta:b": TruncatedSeries([0.8, 0.02, 0.001, 0.0]),
    }
    drift = TruncatedSeries([0.0, 7.0, 0.0, 0.0])

    def check(vars_):
        reps = {k: (v, None) for k, v in vars_.items()}
        return steady_state_check(reps, 0.2, 1e-3,
                                  angle_reference="delta:a",
                                  angle_vars=("delta:a", "delta:b"))

    plain = check(base)
    shifted = check({k: TruncatedSeries(v.coeffs + drift.coeffs)
                     for k, v in base.items()})
    for name in base:
        assert plain.per_variable[name].is_steady == \
            shifted.per_variable[name].is_steady
    assert plain.system_steady == shifted.system_steady
