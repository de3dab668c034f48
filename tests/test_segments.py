"""Analytic segments against the adaptive integrator and closed forms."""

import copy
import math

import numpy as np

from conftest import make_smib, make_twobus_case
from hesim.model import (
    QSS,
    Ramp,
    apply_add_load,
    build_system,
    init_equilibrium,
    refine_state,
)
from hesim.reference import DaeModel, TwoBusCase, integrate_reference
from hesim.scheduler import RunConfig, SimEvent, run_simulation


def test_twobus_voltage_series_matches_closed_form():
    # the ramping-load segment's V2(t) against the closed-form current
    case = make_twobus_case()
    script = [SimEvent(kind="ramp_load", t_due=0.0,
                       payload={"load": "LD2", "rate": 1.0})]
    traj = run_simulation(case, script, RunConfig(mode="qss", t_end=10.0))
    tb = TwoBusCase()
    for rec in traj.segments:
        taus = np.linspace(0, rec.step, 7)[1:]
        for tau in taus:
            t = rec.t0 + tau
            lam = t
            i_sq = (lam ** 2) * (tb.p ** 2 + tb.q ** 2)
            v2 = rec.channel("V", ("2",), tau)
            # |V2| = lam |S| / I  (I from the closed form)
            import hesim.reference as ref
            expect = math.sqrt(i_sq / ref.two_bus_current_sq(tb, t))
            assert abs(float(v2) - expect) < 1e-8


def test_governor_ramp_tracks_adaptive_integrator():
    # linear dispatch ramp: machine power trajectory vs the RK oracle
    case = make_smib()
    st = init_equilibrium(case)
    st.ramps.append(Ramp("gen:G1", 0.02, 0.0))
    built = build_system(case, st)
    refine_state(built, st)
    model = DaeModel(built, copy.deepcopy(st))
    out = integrate_reference(model, (0.0, 4.0), "adaptive-high-order",
                              rtol=1e-11, atol=1e-13, dt_out=0.25)
    traj = run_simulation(case, [], RunConfig(mode="dynamic", t_end=4.0),
                          state=st)
    for name in ("omega:G1", "epsq:G1", "gov:G1", "agc:G1"):
        for k, t in enumerate(out.ts):
            rec = traj.segments[traj.segment_index(t)]
            tau = min(t - rec.t0, rec.step)
            row = rec.built.system.index[name]
            he = rec.sol.values_at(tau)[row]
            assert abs(he - out.col(name)[k]) < 1e-6, (name, t)


def test_qss_agc_decay_matches_adaptive_integrator():
    # after a load step in QSS, df relaxes toward zero through the AGC
    # integrators; the analytic segments must track the RK oracle
    case, script = __import__("hesim.caseio", fromlist=["builtin_case"]) \
        .builtin_case("fourbus")
    st = init_equilibrium(case, mode=QSS)
    apply_add_load(case, st, "LX2")
    st.mode = QSS
    built = build_system(case, st)
    refine_state(built, st)
    model = DaeModel(built, copy.deepcopy(st))
    out = integrate_reference(model, (0.0, 12.0), "adaptive-high-order",
                              rtol=1e-11, atol=1e-13, dt_out=1.0)
    traj = run_simulation(case, [], RunConfig(mode="qss", t_end=12.0),
                          state=st)
    df_he = traj.sample([("f", ())], out.ts,
                        traj.segment_index(out.ts))[0] - case.f_nominal
    df_rk = out.col("df:0")
    assert np.max(np.abs(df_he - df_rk)) < 1e-6
    # frequency pulled back toward nominal
    assert abs(df_rk[0]) > 4 * abs(df_rk[-1])


def test_alpha_path_continuity_and_order_independence(fourbus):
    import hesim.model as mdl
    from hesim.engine import SegmentSolution, batch_pade, solve_alpha_problem
    from hesim.series import diagonal_orders

    case, _ = fourbus
    st = init_equilibrium(case)
    mods = mdl.AlphaMods(kind="ALPHA_PARAM",
                         dy={(3, 3): 0.04 - 0.12j})
    built = build_system(case, st, mods)
    anchors = built.anchors(st)
    results = []
    for order in (10, 20, 30):
        kc = built.knowns(st, 0.0)
        vals = solve_alpha_problem(built.system, anchors, kc,
                                   kind="ALPHA_PARAM", order=order)
        results.append(vals)
    assert np.max(np.abs(results[0] - results[2])) < 1e-8
    assert np.max(np.abs(results[1] - results[2])) < 1e-10

    # sampled continuity along the alpha path
    order = 30
    kc = built.knowns(st, 0.0)
    C = built.system.solve_series(anchors, kc, order)
    L, M = diagonal_orders(order)
    nums, dens = batch_pade(C[: built.system.nv], L, M)
    seg = SegmentSolution(system=built.system, kcoeffs=kc, pade_num=nums,
                          pade_den=dens)
    grid = np.linspace(0, 1, 41)
    path = np.array([seg.values_at(a) for a in grid])
    jumps = np.max(np.abs(np.diff(path, axis=0)))
    assert np.isfinite(path).all()
    assert jumps < 0.02  # smooth, no branch hops
