"""Closed-form two-bus oracles and the benchmark integrators."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import make_smib
from hesim.engine import SystemBuilder
from hesim.errors import PastCollapse, StepRejectionLimit, Unreachable
from hesim.model import build_system, init_equilibrium
from hesim.reference import (
    DaeModel,
    TwoBusCase,
    integrate_reference,
    linear_crossing,
    two_bus_current_sq,
    two_bus_event_time,
)

TB = TwoBusCase()


# --- closed forms -----------------------------------------------------------------

def test_current_zero_at_start():
    assert two_bus_current_sq(TB, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_past_collapse_raises():
    with pytest.raises(PastCollapse):
        two_bus_current_sq(TB, TB.collapse_time * 1.01)


def test_event_time_zero_threshold():
    assert two_bus_event_time(TB, 0.0) == 0.0


def test_event_time_matches_bisection_of_current():
    for i_th in (0.5, 2.0, 5.0, 8.0):
        t_closed = two_bus_event_time(TB, i_th)
        t_bisect = brentq(
            lambda t: two_bus_current_sq(TB, t) - i_th ** 2,
            1e-12, TB.collapse_time * 0.9999, xtol=1e-12)
        assert abs(t_closed - t_bisect) < 1e-10
        assert two_bus_current_sq(TB, t_closed) == pytest.approx(
            i_th ** 2, abs=1e-9)


def test_event_time_scaling_invariance():
    # scaling (P, Q) by k compresses the loading path k-fold: the scaled
    # system crosses threshold k*i_th at 1/k of the original crossing time
    k = 1.7
    scaled = TwoBusCase(p=TB.p * k, q=TB.q * k)
    for i_th in (1.0, 4.0):
        t1 = two_bus_event_time(TB, i_th * k)
        t2 = two_bus_event_time(scaled, i_th * k)
        assert t2 == pytest.approx(t1 / k, rel=1e-9)


def test_unreachable_threshold():
    with pytest.raises(Unreachable):
        two_bus_event_time(TB, 100.0)


# --- integrators on scalar problems --------------------------------------------------

def _decay_model():
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    sys = b.compile()

    class Built:
        system = sys

        def anchors(self, state):
            return np.array([1.0])

        def knowns(self, state, t0):
            return np.zeros((0, 2))

    return DaeModel(Built(), None)


def test_trapezoidal_textbook_convergence():
    model = _decay_model()
    out = integrate_reference(model, (0.0, 1.0), "trapezoidal", h=0.01)
    err = abs(out.col("x")[-1] - math.exp(-1.0))
    assert err < 1e-5  # O(h^2) at h=0.01


def test_heun_and_trapezoidal_orders():
    model = _decay_model()
    errs = {}
    for method in ("modified-euler", "trapezoidal"):
        e = []
        for h in (0.02, 0.01):
            out = integrate_reference(model, (0.0, 1.0), method, h=h)
            e.append(abs(out.col("x")[-1] - math.exp(-1.0)))
        errs[method] = math.log2(e[0] / e[1])
    assert errs["modified-euler"] == pytest.approx(2.0, abs=0.3)
    assert errs["trapezoidal"] == pytest.approx(2.0, abs=0.3)


def test_halving_h_quarters_trapezoidal_error():
    model = _decay_model()
    e1 = abs(integrate_reference(model, (0, 1), "trapezoidal",
                                 h=0.02).col("x")[-1] - math.exp(-1))
    e2 = abs(integrate_reference(model, (0, 1), "trapezoidal",
                                 h=0.01).col("x")[-1] - math.exp(-1))
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_adaptive_oracle_tight():
    model = _decay_model()
    out = integrate_reference(model, (0.0, 1.0), "adaptive-high-order",
                              rtol=1e-11, atol=1e-13, dt_out=0.5)
    assert abs(out.col("x")[-1] - math.exp(-1.0)) < 1e-10


# --- integrators on the grid DAE ------------------------------------------------------

def test_adaptive_agrees_with_embedding_on_smib():
    case = make_smib()
    st = init_equilibrium(case)
    st.mach["G1"].delta += 0.03
    built = build_system(case, st)
    from hesim.model import refine_state
    refine_state(built, st)
    model = DaeModel(built, st)
    out = integrate_reference(model, (0.0, 2.0), "adaptive-high-order",
                              rtol=1e-10, atol=1e-12, dt_out=0.2)
    from hesim.scheduler import RunConfig, run_simulation
    import copy
    traj = run_simulation(case, [], RunConfig(mode="dynamic", t_end=2.0),
                          state=copy.deepcopy(st))
    for name in ("omega:G1", "delta:G1", "epsq:G1"):
        recs = [traj.segments[k] for k in traj.segment_index(out.ts)]
        he = np.array([rec.sol.values_at(min(t - rec.t0, rec.step))[
            rec.built.system.index[name]] for rec, t in zip(recs, out.ts)])
        assert np.max(np.abs(he - out.col(name))) < 1e-6


# --- grid-sampled crossing utilities ---------------------------------------------------

def test_linear_crossing_exact_on_affine():
    ts = np.arange(0.0, 1.01, 0.1)
    hs = 2.0 * ts - 1.0
    assert linear_crossing(ts, hs) == pytest.approx(0.5, abs=1e-12)


def test_no_crossing_gives_none():
    ts = np.arange(0.0, 1.0, 0.1)
    assert linear_crossing(ts, ts + 1.0) is None


def test_singular_algebraic_jacobian_rejects_at_first_solve(monkeypatch):
    # g = y^2 - x: at y = 0 the algebraic Jacobian 2y is exactly singular
    b = SystemBuilder()
    x = b.state("x")
    y = b.alg("y")
    eq = b.alg_eq("g")
    b.term(eq, 1.0, y, y)
    b.term(eq, -1.0, x)
    sys = b.compile()

    class Built:
        system = sys

    model = DaeModel(Built(), None)
    calls = []
    jac = sys.alg_jacobian

    def counted(*args):
        calls.append(1)
        return jac(*args)

    monkeypatch.setattr(sys, "alg_jacobian", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepRejectionLimit):
            model.solve_alg(np.array([1.0]), 0.0, np.array([0.0]))
    assert len(calls) == 1
