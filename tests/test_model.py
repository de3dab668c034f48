"""Model residuals, power flow, equilibrium init, and switch operations."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import root

from conftest import make_smib, make_twobus_case, run_from
from hesim.caseio import builtin_case
from hesim.engine import solve_segment
from hesim.errors import PowerFlowInfeasible, ZeroBoundaryVoltage
from hesim.grid import (
    DYN4,
    SOURCE,
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
    MotorSpec,
    motor_circuit,
)
from hesim import model as mdl
from hesim.model import (
    DEAD_VOLTAGE,
    DYNAMIC,
    QSS,
    MachineState,
    Ramp,
    apply_add_branch,
    apply_add_gen,
    apply_add_load,
    apply_add_shunt,
    apply_branch_param,
    apply_cut_branch,
    apply_cut_gen,
    apply_cut_load,
    build_system,
    fresh_state,
    init_equilibrium,
    island_flat_voltage,
    refine_state,
    refresh_islands,
    solve_powerflow,
)
from hesim.reference import TwoBusCase
from hesim.scheduler import EVENTS, RunConfig, SimEvent, run_simulation


# --- power flow ----------------------------------------------------------------

def test_zero_injection_flat_profile():
    case = GridCase(
        name="flat", buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.05),
                  BranchSpec("b", 2, 3, 0.01, 0.05)],
        gens=[GenSpec("s", 1, kind=SOURCE, v_set=1.02)],
    )
    st = solve_powerflow(case)
    assert np.allclose(st.v, 1.02 + 0j, atol=1e-12)


def test_twobus_voltage_matches_quadratic():
    case = make_twobus_case()
    case.loads[0] = LoadSpec("LD2", 2, 0.1, 0.3, 0.0, 0.0, 1.0, scale=1.0)
    case.__post_init__()
    st = solve_powerflow(case)
    tb = TwoBusCase()
    # closed-form |V2| from the quadratic in |V2|^2
    a0 = tb.p * tb.r + tb.q * tb.x
    disc = (tb.e ** 2 - 2 * a0) ** 2 - 4 * (tb.p ** 2 + tb.q ** 2) * tb.z_sq
    u = ((tb.e ** 2 - 2 * a0) + math.sqrt(disc)) / 2
    assert abs(st.v[1]) == pytest.approx(math.sqrt(u), abs=1e-10)


@pytest.mark.parametrize("name", ["fourbus", "ne39"])
def test_power_flow_is_a_qss_alpha_build(monkeypatch, name):
    # every machine off a pinned bus is a PV bus with its qg unknown, and
    # the pinned slack holds both its island's angle and its frequency
    case, _ = builtin_case(name)
    builds, real = [], mdl.build_system

    def build(case, state, mods=None):
        built = real(case, state, mods)
        if mods is not None and mods.kind == mdl.ALPHA_POWERFLOW:
            builds.append(built)
        return built

    monkeypatch.setattr(mdl, "build_system", build)
    init_equilibrium(case)
    [built] = builds
    names, eqs = built.system.var_names, built.system.eq_names
    assert built.mode == QSS
    assert built.system.n_state == 0
    assert not any(n.startswith("df:") for n in names)
    assert not any(n.startswith("anglepin:") for n in eqs)
    pinned = {int(n[len("pinx:"):]) for n in eqs if n.startswith("pinx:")}
    pv = {f"qg:{g}" for isl in built.islands for g in isl.machines
          if case.gen_by_id[g].bus not in pinned}
    assert {n for n in names if n.startswith("qg:")} == pv
    assert all(case.gen_by_id[isl.slack].bus in pinned
               for isl in built.islands)


@pytest.mark.parametrize("name", ["fourbus", "ne39"])
def test_power_flow_leaves_each_machine_at_its_pv_point(name):
    # a pinned slack machine injects what its bus requires; every other
    # machine dispatches its p_set at its solved reactive output
    case, _ = builtin_case(name)
    st = solve_powerflow(case)
    slacks = 0
    for isl in st.islands:
        for gid in isl.machines:
            g, ms = case.gen_by_id[gid], st.mach[gid]
            s = st.v[case.bus_index[g.bus]] * mdl.required_injection(
                case, st, g.bus).conjugate()
            if gid == isl.slack:
                slacks += 1
                assert (ms.p_disp, ms.q_g) == (s.real, s.imag)
            else:
                assert ms.p_disp == g.p_set
                assert complex(ms.p_disp, ms.q_g) == pytest.approx(s, abs=1e-9)
    assert slacks


def _back_initialized(case, mode):
    """The start by a rule of its own: after the power flow, the slack
    machine from the injection its bus requires, every other machine from
    (p_set, q_g), then the mode entered as init_equilibrium enters it."""
    st = solve_powerflow(case)
    for isl in st.islands:
        for gid in isl.machines:
            g = case.gen_by_id[gid]
            v = st.v[case.bus_index[g.bus]]
            if gid == isl.slack:
                s_inj = v * mdl.required_injection(case, st, g.bus).conjugate()
            else:
                s_inj = complex(g.p_set, st.mach[gid].q_g)
            st.mach[gid] = mdl.machine_init_from_terminal(
                g, v, s_inj, 0.0, s_inj.real, case.f_nominal)
    if mode == QSS:
        mdl._machines_to_pv(case, st)
    mdl._enter_mode(case, st, mode)
    return st


def _float_bits(st):
    def hexed(x):
        return None if x is None else float(x).hex()
    return (_bits(st.v), {k: hexed(x) for k, x in st.slip.items()},
            {k: hexed(x) for k, x in st.df.items()},
            {g: {f: hexed(x) for f, x in vars(m).items()}
             for g, m in st.mach.items()}, st.mode)


@pytest.mark.parametrize("mode", [DYNAMIC, QSS])
@pytest.mark.parametrize("name", ["twobus", "fourbus", "ne39"])
def test_start_state_matches_the_back_initialization_rule(name, mode):
    # leaving the power flow through the QSS exit starts every machine
    # where the back-initialization rule puts it, bit for bit (a field may
    # be a Python float on one side and np.float64 on the other)
    case, _ = builtin_case(name)
    assert _float_bits(init_equilibrium(case, mode)) == _float_bits(
        _back_initialized(case, mode))


def test_powerflow_past_nose_infeasible():
    case = make_twobus_case()
    # lam = 17 is beyond the collapse loading (~15.9)
    case.loads[0] = LoadSpec("LD2", 2, 0.1, 0.3, 0.0, 0.0, 1.0, scale=17.0)
    case.__post_init__()
    with pytest.raises(PowerFlowInfeasible):
        init_equilibrium(case)


def test_island_without_generation():
    case = GridCase(
        name="nogen", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.05)],
        gens=[], loads=[LoadSpec("l", 2, 0.1, 0.0, 0, 0, 1)],
    )
    st = init_equilibrium(case)  # collapses instead of failing
    assert not st.energized.any()


# --- equilibrium and residuals -----------------------------------------------------

def _residual_at_anchor(case, st):
    built = build_system(case, st)
    return built.system.residual(built.anchors(st),
                                 np.zeros(built.system.n_state),
                                 built.knowns(st, st.t)[:, 0])


def test_equilibrium_residual_vanishes(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    assert np.max(np.abs(_residual_at_anchor(case, st))) < 1e-10


def test_fourbus_initial_dispatch(fourbus):
    # the fixture is tuned so each machine dispatches 1.1436 pu at t = 0
    case, _ = fourbus
    st = init_equilibrium(case)
    assert st.mach["G1"].p_disp == pytest.approx(1.1436, abs=2e-6)
    assert st.mach["G2"].p_disp == pytest.approx(1.1436, abs=2e-6)


def test_equilibrium_holds_over_ten_seconds(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    built = build_system(case, st)
    seg, _ = solve_segment(built.system, built.anchors(st),
                           built.knowns(st, 0.0), 15, 1e-8, 10.0)
    assert seg.t_e == 10.0
    v0 = seg.values_at(0.0)
    v10 = seg.values_at(10.0)
    assert np.max(np.abs(v10 - v0)) < 1e-8


def test_residual_central_difference_matches_rhs():
    # d/dt of the segment trajectory equals f(x, y) to O(h^2)
    case = make_smib()
    st = init_equilibrium(case)
    st.mach["G1"].delta += 0.05
    built = build_system(case, st)
    refine_state(built, st)
    seg, C = solve_segment(built.system, built.anchors(st),
                           built.knowns(st, 0.0), 15, 1e-9, 1.0)
    sysm = built.system
    t0 = 0.2
    errs = []
    def series_at(t):  # the truncated series, not its Pade
        return np.polynomial.polynomial.polyval(t, C.T)

    for h in (0.02, 0.01):
        xm = series_at(t0 - h)
        xp = series_at(t0 + h)
        fd = (xp[sysm.state_slots] - xm[sysm.state_slots]) / (2 * h)
        vals = series_at(t0)
        f = sysm.state_rhs(vals, seg.evaluate(t0)[1])
        errs.append(np.max(np.abs(fd - f)))
    # halving h quarters the central-difference error
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5
    assert errs[1] < 1e-2


def test_perturbing_one_bus_changes_only_local_rows():
    case = make_smib()
    st = init_equilibrium(case)
    built = build_system(case, st)
    base = built.anchors(st)
    r0 = built.system.residual(base, np.zeros(built.system.n_state),
                               built.knowns(st, 0.0)[:, 0])
    pert = base.copy()
    pert[built.system.index["vx:2"]] += 0.01
    r1 = built.system.residual(pert, np.zeros(built.system.n_state),
                               built.knowns(st, 0.0)[:, 0])
    changed = np.where(np.abs(r1 - r0) > 1e-12)[0]
    names = [f"d({built.system.var_names[s]})"
             for s in built.system.state_slots] + built.system.eq_names
    touched = {names[i] for i in changed}
    # every touched row involves bus 2 or a device attached to it
    for name in touched:
        assert (":2" in name) or ("G1" not in name and "3" not in name) or \
            name in ("balx:2", "baly:2"), name


# --- QSS model -----------------------------------------------------------------------

def test_qss_equilibrium_residual(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case, mode=QSS)
    assert np.max(np.abs(_residual_at_anchor(case, st))) < 1e-9
    assert st.df[0] == pytest.approx(0.0, abs=1e-9)


def _lossless_droop_case(k_scale=1.0):
    # lossless network, constant-power load: droop identity is exact
    d = 2.0 * k_scale
    r = 0.05 / k_scale
    return GridCase(
        name="droop", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("a", 1, 2, 0.0, 0.1),
                  BranchSpec("b", 2, 3, 0.0, 0.1)],
        gens=[GenSpec("g1", 1, p_set=0.5, v_set=1.02, d=d, gov_r=r),
              GenSpec("g2", 3, p_set=0.5, v_set=1.02, d=d, gov_r=r)],
        loads=[LoadSpec("l", 2, 1.0, 0.0, 0.0, 0.0, 1.0)],
    )


def test_qss_droop_sign_and_linearity():
    # a load increase forces df < 0; doubling K halves the equilibrium |df|
    dfs = []
    for ks in (1.0, 2.0):
        case = _lossless_droop_case(ks)
        st = init_equilibrium(case, mode=QSS)
        st.load_scale["l"] = 1.2  # +0.2 pu without AGC action
        built = build_system(case, st)
        # freeze the AGC state and solve the algebraic equilibrium
        refine_state(built, st)
        dfs.append(st.df[0])
    assert dfs[0] < 0 and dfs[1] < 0
    assert dfs[1] == pytest.approx(dfs[0] / 2, rel=1e-6)


def test_qss_switch_ends_on_the_qss_equilibrium(fourbus):
    # a QSS switch keeps the motor slip algebraic, with its torque balance,
    # so the continuation ends where the QSS system's residual vanishes
    case, _ = fourbus
    st = init_equilibrium(case, mode=QSS)
    for switch in (apply_add_load, apply_cut_load):
        switch(case, st, "LX2")
        built = build_system(case, st)
        res = built.system.alg_residual(built.anchors(st),
                                        built.knowns(st, st.t)[:, 0])
        assert np.max(np.abs(res)) < 1e-12, switch.__name__


def test_alpha_builds_freeze_every_state_and_time_input(monkeypatch):
    # in both modes a switch's alpha build has no state among its unknowns,
    # no known input but alpha and 1 - alpha; a QSS one keeps each motor's
    # slip an unknown with its torque balance, a dynamic one freezes it
    builds, real = [], mdl.build_system

    def build(case, state, mods=None):
        built = real(case, state, mods)
        if mods is not None and mods.kind != mdl.ALPHA_POWERFLOW:
            builds.append((state.mode, built))
        return built

    monkeypatch.setattr(mdl, "build_system", build)
    _fourbus_switches()
    assert {mode for mode, _ in builds} == {DYNAMIC, QSS}
    for mode, built in builds:
        sysm = built.system
        assert sysm.n_state == 0
        assert set(sysm.known_names) <= {"alpha", "one_minus_alpha"}
        slips = {n for n in sysm.var_names if n.startswith("slip:")}
        torques = {n for n in sysm.eq_names if n.startswith("mtorq:")}
        assert len(slips) == len(torques) == (2 if mode == QSS else 0)


# --- switch operations vs direct re-solve oracles --------------------------------------


def _oracle_resolve(case, st):
    """Independent post-switch solution: scipy Newton-Krylov on the same
    frozen-state algebraic equations, started from the current values."""
    built = build_system(case, st)
    sysm = built.system
    kv = built.knowns(st, st.t)[:, 0] if sysm.nk else np.zeros(0)
    x0 = built.anchors(st)

    def fun(y):
        vals = x0.copy()
        vals[sysm.alg_slots] = y
        return sysm.alg_residual(vals, kv)

    sol = root(fun, x0[sysm.alg_slots], method="hybr", tol=1e-13)
    assert sol.success
    vals = x0.copy()
    vals[sysm.alg_slots] = sol.x
    return built, vals


def test_add_shunt_matches_resolve(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    y = 0.05 - 0.15j
    apply_add_shunt(case, st, 2, y)
    ref = copy.deepcopy(st)
    built, vals = _oracle_resolve(case, ref)
    got = built.anchors(st)
    assert np.max(np.abs(got - vals)) < 1e-8


def test_cut_parallel_branch_matches_resolve(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    apply_cut_branch(case, st, "L23B")
    ref = copy.deepcopy(st)
    built, vals = _oracle_resolve(case, ref)
    assert np.max(np.abs(built.anchors(st) - vals)) < 1e-8


def test_param_change_matches_resolve(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    apply_branch_param(case, st, "L12", 0.015, 0.1, 0.05)
    ref = copy.deepcopy(st)
    built, vals = _oracle_resolve(case, ref)
    assert np.max(np.abs(built.anchors(st) - vals)) < 1e-8


def _dead_load_case():
    """A pure-Z load behind shunts that pull its bus to |V| = 9.9e-9."""
    case = GridCase(
        name="deadload", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.1)],
        gens=[GenSpec("S1", 1, kind=SOURCE, v_set=1.0)],
        loads=[LoadSpec("LZ", 2, 0.5, 0.2, 1.0, 0.0, 0.0)],
    )
    st = init_equilibrium(case)
    for y in (-1e3j, 1e5, 1e7, 1e9):
        apply_add_shunt(case, st, 2, y)
    return case, st


def test_cut_load_at_dead_boundary_matches_resolve(monkeypatch):
    # no equivalent shunt at a dead boundary: the cut ramps the load's own
    # current down with the one_minus_alpha known instead
    case, st = _dead_load_case()
    assert abs(st.v[1]) < DEAD_VOLTAGE
    builds = []
    real_build = mdl.build_system

    def build(case_, st_, mods=None):
        builds.append(mods)
        return real_build(case_, st_, mods)

    monkeypatch.setattr(mdl, "build_system", build)
    apply_cut_load(case, st, "LZ")
    monkeypatch.undo()
    [mods] = builds
    assert mods.ramp_down_devices == {"load:LZ"} and not mods.dy_fade
    assert "LZ" not in st.load_online
    ref = copy.deepcopy(st)
    built, vals = _oracle_resolve(case, ref)
    assert np.max(np.abs(built.anchors(st) - vals)) < 1e-8


@pytest.mark.parametrize("element, event, reason", [
    (BranchSpec("La", 1, 2, 0.01, 0.1), "cut_branch branch=La",
     "branch La at bus 2"),
    (GenSpec("G2", 2, p_set=0.0), "cut_gen gen=G2", "generator G2 at bus 2"),
], ids=["parallel-branch", "machine"])
def test_cut_at_a_dead_boundary_bus_fails_by_name(element, event, reason):
    # the shunts of _dead_load_case hold bus 2 near 0 V while it stays
    # energized, so a cut there has no equivalent shunt
    case = GridCase(
        name="deadcut", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.1)]
        + [element] * isinstance(element, BranchSpec),
        gens=[GenSpec("S1", 1, kind=SOURCE, v_set=1.0)]
        + [element] * isinstance(element, GenSpec),
        loads=[LoadSpec("LZ", 2, 0.5, 0.2, 1.0, 0.0, 0.0)])
    kind, _, arg = event.partition(" ")
    key, value = arg.split("=")
    script = [SimEvent("add_shunt", t_due=0.0, payload={
        "bus": "2", "g": y.real, "b": y.imag})
        for y in (-1e3j, 1e5 + 0j, 1e7 + 0j, 1e9 + 0j)]
    st = init_equilibrium(case)
    for ev in script:
        EVENTS[ev.kind].action(case, st, ev.payload, 0.0)
    assert 0.0 < abs(st.v[1]) < DEAD_VOLTAGE and st.energized[1]
    with pytest.raises(ZeroBoundaryVoltage, match=f"^{reason}$"):
        EVENTS[kind].action(case, st, {key: value}, 0.0)
    script.append(SimEvent(kind, t_due=0.0, payload={key: value}))
    traj = run_simulation(case, script, RunConfig(mode="dynamic", t_end=1.0))
    assert traj.failure == f"{event} at t=0.000000: {reason}"


def test_cut_then_readd_roundtrip(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    built0 = build_system(case, st)
    before = built0.anchors(st)
    apply_cut_branch(case, st, "L23B")
    apply_add_branch(case, st, "L23B")
    after = build_system(case, st).anchors(st)
    assert np.max(np.abs(after - before)) < 1e-8


def test_cut_zero_current_branch_is_identity():
    # two identical parallel paths carry current, then a stub branch with no
    # flow: cutting the stub must not move the state
    case = GridCase(
        name="stub", buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("main", 1, 2, 0.01, 0.05),
                  BranchSpec("stub", 2, 3, 0.01, 0.05)],
        gens=[GenSpec("s", 1, kind=SOURCE, v_set=1.0)],
        loads=[LoadSpec("l", 2, 0.3, 0.1, 0, 0, 1)],
    )
    st = init_equilibrium(case)
    v_before = st.v.copy()
    apply_cut_branch(case, st, "stub")  # bus 3 goes dark with the element
    assert np.max(np.abs(st.v[:2] - v_before[:2])) < 1e-9


def _dead_side_case(load_status=1):
    """A source feeding a Z load at bus 3 through two charged lines."""
    return GridCase(
        name="deadside", buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.1, 0.2),
                  BranchSpec("L23", 2, 3, 0.02, 0.1, 0.3)],
        gens=[GenSpec("S1", 1, kind=SOURCE, v_set=1.0)],
        loads=[LoadSpec("LZ", 3, 0.5, 0.2, 1.0, 0.0, 0.0,
                        status=load_status)],
    )


def test_close_into_a_dead_island_of_two_buses_matches_powerflow():
    # the dead side {2, 3} keeps L23 online; the close reduces it to a
    # driving-point admittance, so its matrix must stamp L23 and its charging
    case = _dead_side_case()
    st = init_equilibrium(case)
    collapsed = apply_cut_branch(case, st, "L12")
    assert {"bus:2", "bus:3", "load:LZ"} <= set(collapsed)
    assert "L23" in st.branch_online
    apply_add_branch(case, st, "L12")
    assert st.energized.all() and len(st.islands) == 1
    # the load went down with its island: the energized network has none
    ref = init_equilibrium(_dead_side_case(load_status=0))
    assert np.max(np.abs(st.v - ref.v)) < 1e-12
    assert abs(st.v[2]) > abs(st.v[0])  # the charging lifts the open end


def test_sourceless_slack_machine_with_a_motor_at_its_bus_is_flat(
        monkeypatch):
    # the slack machine's injection reads its bus's ZIP block and motor
    # current, so the dynamic state starts in equilibrium
    motor = MotorSpec(0.6, 0.02, 0.1, 3.0, 0.03, 0.1, 0.25)
    case = GridCase(
        name="motorslack", f_nominal=60.0, buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.08, 0.04)],
        gens=[GenSpec("G1", 1, p_set=0.2, v_set=1.02)],
        loads=[LoadSpec("LM", 1, 0.4, 0.1, 0.3, 0.2, 0.5, motor=motor),
               LoadSpec("L2", 2, 0.3, 0.1, 1.0, 0.0, 0.0)],
    )
    st = init_equilibrium(case)
    assert st.islands[0].ref_gen == "G1" and not st.islands[0].sources
    assert st.mach["G1"].p_disp > 0.4  # both loads and the motor, not p_set
    traj = run_from(monkeypatch, case, [],
                    RunConfig(mode="dynamic", t_end=5.0), st)
    assert traj.failure is None
    ts = np.linspace(0.0, 5.0, 51)
    rows = traj.sample([("f", ()), ("V", ("1",)), ("V", ("2",)),
                        ("omega", ("G1",))], ts, traj.segment_index(ts))
    assert np.max(np.ptp(rows, axis=1)) < 1e-9


def test_matched_synchronization_is_flat(fourbus, monkeypatch):
    case, _ = fourbus
    st = init_equilibrium(case)
    case2 = GridCase(
        name="sync", f_nominal=60.0,
        buses=list(case.buses), branches=list(case.branches),
        gens=list(case.gens) + [GenSpec("G3", 2, p_set=0.0, v_set=1.0,
                                        status=0)],
        loads=list(case.loads),
    )
    st = init_equilibrium(case2)
    v_before = st.v.copy()
    apply_add_gen(case2, st, "G3")
    assert np.max(np.abs(st.v - v_before)) < 1e-9
    # simulating afterwards stays flat: the machine carries no load
    from hesim.scheduler import RunConfig
    traj = run_from(monkeypatch, case2, [],
                    RunConfig(mode="dynamic", t_end=2.0), st)
    assert traj.failure is None
    ts = np.linspace(0, 2, 21)
    v2 = traj.sample([("V", ("2",))], ts, traj.segment_index(ts))[0]
    assert np.max(np.abs(v2 - abs(st.v[1]))) < 1e-7


def test_add_load_then_cut_roundtrip(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    before = st.v.copy()
    apply_add_load(case, st, "LX2")
    assert np.max(np.abs(st.v - before)) > 1e-4  # it did something
    apply_cut_load(case, st, "LX2")
    assert np.max(np.abs(st.v - before)) < 1e-8


def test_cut_only_source_collapses_island():
    case = GridCase(
        name="isl", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.05)],
        gens=[GenSpec("g", 1, p_set=0.2, v_set=1.0)],
        loads=[LoadSpec("l", 2, 0.1, 0.02, 0, 0, 1)],
    )
    st = init_equilibrium(case)
    collapsed = apply_cut_gen(case, st, "g")
    assert not st.energized.any()
    assert "load:l" in collapsed and "bus:1" in collapsed


def test_bolted_fault_depresses_voltage():
    # large shunt at the machine bus: its voltage collapses, neighbors sag;
    # loads are impedance-type so the faulted network stays solvable
    case = GridCase(
        name="fault", buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("a", 1, 2, 0.005, 0.05),
                  BranchSpec("b", 2, 3, 0.005, 0.05)],
        gens=[GenSpec("g", 1, p_set=0.5, v_set=1.02),
              GenSpec("s", 3, kind=SOURCE, v_set=1.0)],
        loads=[LoadSpec("l", 2, 0.4, 0.1, 1.0, 0.0, 0.0)],
    )
    st = init_equilibrium(case)
    v_before = np.abs(st.v.copy())
    delta0, omega0 = st.mach["g"].delta, st.mach["g"].omega
    apply_add_shunt(case, st, 1, -300.0j)
    vm = np.abs(st.v)
    assert vm[0] < 0.06
    assert vm[1] < v_before[1]
    # differential states froze across the instant
    assert st.mach["g"].delta == delta0 and st.mach["g"].omega == omega0


def test_infeasible_fault_raises():
    # a bolted fault feeding constant-power load has no algebraic solution
    case = GridCase(
        name="infeas", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("a", 1, 2, 0.005, 0.05)],
        gens=[GenSpec("g", 1, p_set=0.4, v_set=1.02)],
        loads=[LoadSpec("l", 2, 0.4, 0.1, 0.0, 0.0, 1.0)],
    )
    st = init_equilibrium(case)
    from hesim.errors import NoConvergenceAtAlpha1
    with pytest.raises(NoConvergenceAtAlpha1):
        apply_add_shunt(case, st, 2, -500.0j)


def _pick_up_lx2(p):
    """The failed pickup of fourbus's LX2 block at p pu (q = p/2) at the
    t = 0 equilibrium: its error message, once the state is checked to be
    left as it was."""
    from importlib import resources

    from hesim.caseio import parse_case
    from hesim.errors import NoConvergenceAtAlpha1

    text = resources.files("hesim.cases").joinpath("fourbus.case").read_text()
    case, _ = parse_case(text.replace("LOAD LX2 2 p=0.15 q=0.05",
                                      f"LOAD LX2 2 p={p} q={p / 2}"))
    st = init_equilibrium(case)
    with pytest.raises(NoConvergenceAtAlpha1) as err:
        apply_add_load(case, st, "LX2")
    assert "LX2" not in st.load_online
    return str(err.value)


def _picked_up(p):
    """alpha * p: the pu of the LX2 pickup at p the failure message names."""
    import re

    alpha = re.search(r"stops at alpha=([0-9.e+-]+):", _pick_up_lx2(p))
    assert alpha
    return p * float(alpha.group(1))


def test_infeasible_load_pickup_names_the_alpha_it_reached():
    # no post-switch state: the chain stops at the nose, where the load
    # picked up, alpha * p, is the same whatever p
    nose = _picked_up(2.0)
    for p in (4.0, 10.0, 20.0, 40.0, 400.0):
        assert _picked_up(p) == pytest.approx(nose, rel=0.01), p


@pytest.mark.parametrize("p, stop", [
    # a first stage certifies 0.954 pu; the next one, starting 0.36 pu short
    # of the nose, fails its probes at the shortest range it may take
    (1e6, "stops at alpha=9.53674e-07: residual above"),
    (1e8, "stops at alpha=0: residual above"),
    (1e12, "stops at alpha=0: non-finite coefficients"),
], ids=["1000000.0", "100000000.0", "1000000000000.0"])
def test_overflowing_pickup_fails_without_warnings(p, stop):
    # the probes (1e6, 1e8) and then the series (1e12) overflow: tier-1
    # turns an escaping RuntimeWarning into an error, so this checks both
    # are quiet
    assert stop in _pick_up_lx2(p)


# --- island labelling -----------------------------------------------------------


def _csgraph_refresh_islands(case, state):
    """refresh_islands as it was with scipy's connected_components."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    from hesim.model import Island

    n = case.n_bus
    rows, cols = [], []
    for br in case.branches:
        if br.branch_id in state.branch_online:
            i, j = case.bus_index[br.from_bus], case.bus_index[br.to_bus]
            rows += [i, j]
            cols += [j, i]
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, labels = connected_components(adj, directed=False)
    collapsed, islands = [], []
    for c in range(n_comp):
        buses = sorted(case.buses[i].bus for i in range(n) if labels[i] == c)
        sources = [g.gen_id for g in case.gens
                   if g.bus in buses and g.kind == SOURCE
                   and g.gen_id in state.gen_online]
        machines = [g.gen_id for g in case.gens
                    if g.bus in buses and g.kind == DYN4
                    and g.gen_id in state.gen_online]
        online = sorted(sources + machines,
                        key=lambda gid: (case.gen_by_id[gid].bus, gid))
        isl = Island(index=len(islands), buses=buses, sources=sources,
                     machines=machines, ref_gen=online[0] if online else None)
        if not isl.energized:
            for bus in buses:
                bi = case.bus_index[bus]
                if state.energized[bi]:
                    collapsed.append(f"bus:{bus}")
                state.energized[bi] = False
                state.v[bi] = 0.0
            for g in case.gens:
                if g.bus in buses and g.gen_id in state.gen_online:
                    state.gen_online.discard(g.gen_id)
                    collapsed.append(f"gen:{g.gen_id}")
            for l in case.loads:
                if l.bus in buses and l.load_id in state.load_online:
                    state.load_online.discard(l.load_id)
                    collapsed.append(f"load:{l.load_id}")
        islands.append(isl)
    state.islands = islands
    return collapsed


@hst.composite
def _bus_graphs(draw):
    """Cases with shuffled bus numbers, isolated buses, parallel circuits,
    offline branches and generators, and partly de-energized buses."""
    numbers = draw(hst.lists(hst.integers(1, 40), min_size=1, max_size=9,
                             unique=True))
    n = len(numbers)
    ends = hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1))
    pairs = [p for p in draw(hst.lists(ends, max_size=14)) if p[0] != p[1]]
    branches = [BranchSpec(f"L{k}", numbers[i], numbers[j], 0.01, 0.05,
                           status=draw(hst.sampled_from([1, 1, 0])))
                for k, (i, j) in enumerate(pairs)]
    gens, loads = [], []
    for bus in numbers:
        kind = draw(hst.sampled_from([None, SOURCE, DYN4]))
        if kind is not None:
            gens.append(GenSpec(f"G{bus}", bus, kind=kind,
                                status=draw(hst.sampled_from([1, 0]))))
        for k in range(draw(hst.integers(0, 2))):
            loads.append(LoadSpec(f"LD{bus}_{k}", bus, 0.1, 0.0, 1.0, 0.0, 0.0,
                                  status=draw(hst.sampled_from([1, 0]))))
    case = GridCase(name="graph", buses=[BusSpec(b) for b in numbers],
                    branches=branches, gens=gens, loads=loads)
    st = fresh_state(case)
    st.energized = np.array(draw(hst.lists(hst.booleans(), min_size=n,
                                           max_size=n)))
    return case, st


@settings(max_examples=200, deadline=None)
@given(_bus_graphs())
def test_refresh_islands_matches_connected_components(graph):
    case, st = graph
    ref = copy.deepcopy(st)
    collapsed = refresh_islands(case, st)
    assert collapsed == _csgraph_refresh_islands(case, ref)
    assert st.islands == ref.islands  # components and their order
    assert np.array_equal(st.energized, ref.energized)
    assert np.array_equal(st.v, ref.v)
    assert (st.gen_online, st.load_online) == (ref.gen_online, ref.load_online)


def test_island_change_hands_each_df_to_the_island_of_its_slack():
    # islands {1, 2} (G1) and {3, 4} (G3); cutting L12 leaves {1}, a dead
    # {2} and {3, 4}, so G3's island moves from index 1 to index 2
    case = GridCase(
        name="split", buses=[BusSpec(b) for b in (1, 2, 3, 4)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.05),
                  BranchSpec("L34", 3, 4, 0.01, 0.05)],
        gens=[GenSpec("G1", 1), GenSpec("G3", 3)])
    st = fresh_state(case)
    refresh_islands(case, st)
    assert [isl.buses for isl in st.islands] == [[1, 2], [3, 4]]
    st.df = {0: 0.1, 1: 0.2}
    st.branch_online.discard("L12")
    refresh_islands(case, st)
    assert [isl.buses for isl in st.islands] == [[1], [2], [3, 4]]
    assert st.df == {0: 0.1, 1: 0.0, 2: 0.2}


# --- state <-> unknowns: the name table against per-name closures --------------

_REF_FIELDS = {"delta": "delta", "omega": "omega", "epsq": "eps_q",
               "epsd": "eps_d", "avr": "avr", "gov": "gov", "agc": "agc",
               "pagc": "agc"}


def _ref_anchor(case, st, name):
    """One unknown read from the state the way a per-name closure did."""
    kind, _, key = name.partition(":")

    def volt(bus):
        return st.v[case.bus_index[bus]]

    if kind in ("vx", "vy"):
        z = volt(int(key))
    elif kind in ("wx", "wy"):
        z = 1.0 / volt(int(key))
    elif kind in ("ux", "uy"):
        v = volt(int(key))
        z = v.conjugate() / abs(v)
    elif kind == "vm":
        return abs(volt(int(key)))
    elif kind in ("mex", "mey", "misx", "misy", "mirx", "miry"):
        l = case.load_by_id[key]
        e, i_s, i_r = motor_circuit(l.motor, volt(l.bus),
                                    st.slip.get(key, 0.02))
        z = {"me": e, "mis": i_s, "mir": i_r}[kind[:-1]]
    elif kind in ("id", "iq"):
        g, m = case.gen_by_id[key], st.mach[key]
        v = st.v[case.bus_index[g.bus]]
        s, c = math.sin(m.delta), math.cos(m.delta)
        vd = v.real * s - v.imag * c
        vq = v.real * c + v.imag * s
        yg = np.array([[g.ra, -g.xq_t], [g.xd_t, g.ra]])
        idq = np.linalg.solve(yg, [m.eps_d - vd, m.eps_q - vq])
        return idq[1] if kind == "iq" else idq[0]
    elif kind == "sind":
        return math.sin(st.mach[key].delta)
    elif kind == "cosd":
        return math.cos(st.mach[key].delta)
    elif kind == "slip":
        return st.slip.get(key, 0.02)
    elif kind == "df":
        return st.df.get(int(key), 0.0)
    elif kind == "qg":
        return st.mach[key].q_g
    else:
        return getattr(st.mach[key], _REF_FIELDS[kind])
    return z.imag if kind.endswith("y") else z.real


def _ref_knowns(st, names, t0):
    out = np.zeros((len(names), 2))
    for i, name in enumerate(names):
        kind, _, key = name.partition(":")
        if kind in ("alpha", "one_minus_alpha"):
            coeffs = np.array([0.0, 1.0] if kind == "alpha" else [1.0, -1.0])
        else:
            target, value = ((f"load:{key}", st.load_scale[key])
                             if kind == "scale"
                             else (f"gen:{key}", st.mach[key].p_disp))
            for r in st.ramps:
                if r.target == target:
                    value += r.rate * (t0 - r.t_start)
            coeffs = np.array([value, sum(r.rate for r in st.ramps
                                          if r.target == target)])
        out[i] = coeffs
    return out


def _ref_write_back(built, values, case, state):
    vr, vi = {}, {}
    for name, slot in built.system.index.items():
        kind, _, rest = name.partition(":")
        val = values[slot]
        if kind == "vx":
            vr[int(rest)] = val
        elif kind == "vy":
            vi[int(rest)] = val
        elif kind in _REF_FIELDS:
            setattr(state.mach[rest], _REF_FIELDS[kind], val)
        elif kind == "qg":
            state.mach.setdefault(rest, MachineState()).q_g = val
        elif kind == "slip":
            state.slip[rest] = val
        elif kind == "df":
            state.df[int(rest)] = val
    for bus, re_ in vr.items():
        state.v[case.bus_index[bus]] = complex(re_, vi[bus])


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _state_bits(st):
    # repr keeps the scalar types: a Python float and np.float64 differ
    return (_bits(st.v), repr({g: vars(m) for g, m in st.mach.items()}),
            repr(st.slip), repr(st.df))


def _fourbus_switches():
    base, _ = builtin_case("fourbus")
    case = GridCase(  # with a spare machine G3 at bus 2
        name="spare", f_nominal=60.0, buses=list(base.buses),
        branches=list(base.branches), loads=list(base.loads),
        gens=list(base.gens) + [GenSpec("G3", 2, p_set=0.0, status=0)])
    for mode in (DYNAMIC, QSS):
        st = init_equilibrium(case, mode=mode)
        st.ramps += [Ramp("load:LD2", 0.0213, 0.37),
                     Ramp("gen:G1", -0.0117, 0.21),
                     Ramp("load:LD2", 0.0051, 1.13)]
        st.t = 1.618
        refine_state(mdl.build_system(case, st), st)
        apply_add_shunt(case, st, 2, 0.05 - 0.15j)
        apply_branch_param(case, st, "L12", 0.015, 0.1, 0.05)
        apply_cut_branch(case, st, "L23B")
        apply_add_branch(case, st, "L23B")
        apply_add_load(case, st, "LX2")
        apply_cut_load(case, st, "LX2")
        if mode == DYNAMIC:  # the scheduler switches machines in dynamic
            apply_add_gen(case, st, "G3")
            apply_cut_gen(case, st, "G3")


def _ne39_qss_and_hybrid():
    case, script = builtin_case("ne39")
    init_equilibrium(case, mode=QSS)
    run_simulation(case, script, RunConfig(mode="hybrid", t_end=20.0))


def _fourbus_hybrid():
    case, script = builtin_case("fourbus")
    run_simulation(case, script, RunConfig(mode="hybrid", t_end=40.0))


def _dead_boundary_cut():
    case, st = _dead_load_case()
    apply_cut_load(case, st, "LZ")


@pytest.mark.parametrize("scenario, flavors", [
    (_fourbus_switches, {"powerflow", "dynamic", "qss", "dynamic add",
                         "dynamic cut", "dynamic param", "qss add",
                         "qss cut", "qss param"}),
    (_ne39_qss_and_hybrid, {"powerflow", "dynamic", "qss", "dynamic add",
                      "dynamic param"}),
    (_fourbus_hybrid, {"powerflow", "dynamic", "qss", "dynamic add"}),
    (_dead_boundary_cut, {"powerflow", "dynamic param", "dynamic ramp-down"}),
], ids=["fourbus-switches", "ne39-qss-and-hybrid", "fourbus-hybrid",
        "dead-boundary-cut"])
def test_name_table_matches_per_name_closures(monkeypatch, scenario, flavors):
    """Built.anchors, Built.knowns and write_back against per-name closures
    kept here, bit for bit, at every state a Built reads in the scenario."""
    import hesim.scheduler as sch

    flavor_of, seen = {}, []  # id(built) -> (built, flavor), (built, state)
    real_build, real_anchors = mdl.build_system, mdl.Built.anchors

    def build(case, state, mods=None):
        built = real_build(case, state, mods)
        if mods is None:
            flavor = state.mode
        elif mods.kind == mdl.ALPHA_POWERFLOW:
            flavor = "powerflow"
        elif mods.ramp_down_devices:
            flavor = f"{state.mode} ramp-down"
        else:
            flavor = f"{state.mode} {mods.kind[len('ALPHA_'):].lower()}"
        flavor_of[id(built)] = built, flavor  # the Built keeps its id
        return built

    def anchors(self, state):
        seen.append((self, copy.deepcopy(state)))
        return real_anchors(self, state)

    monkeypatch.setattr(mdl, "build_system", build)
    monkeypatch.setattr(sch, "build_system", build)
    monkeypatch.setattr(mdl.Built, "anchors", anchors)
    scenario()
    monkeypatch.undo()

    assert {flavor_of[id(b)][1] for b, _ in seen} >= flavors
    rng = np.random.default_rng(11)
    for built, st in seen:
        fields = list(vars(built).values())
        held = fields + [x for f in fields if isinstance(f, (list, dict))
                         for x in (f.values() if isinstance(f, dict) else f)]
        assert not any(map(callable, held))  # a Built holds data only
        names = built.system.var_names
        flavor = flavor_of[id(built)][1]
        if flavor == "powerflow":  # the continuation starts flat
            for isl in filter(lambda isl: isl.energized, st.islands):
                assert all(st.v[st.case.bus_index[bus]] == island_flat_voltage(
                    st.case, isl) for bus in isl.buses)
                assert all(st.mach[g].q_g == 0.0 for g in isl.machines)
        got = built.anchors(st)
        want = np.array([_ref_anchor(st.case, st, n) for n in names])
        assert _bits(got) == _bits(want), (flavor, st.t)
        for t0 in (st.t, st.t + 0.37, st.t + 2.5):
            assert _bits(built.knowns(st, t0)) == _bits(
                _ref_knowns(st, built.system.known_names, t0))
        values = got * (1.0 + rng.normal(0.0, 1e-3, len(got)))
        mine, ref = copy.deepcopy(st), copy.deepcopy(st)
        mdl.write_back(built, values, mine)
        _ref_write_back(built, values, ref.case, ref)
        assert _state_bits(mine) == _state_bits(ref)


@pytest.mark.parametrize("name, t_end", [("fourbus", 75.0), ("ne39", 56.0)])
def test_anchors_match_the_per_name_closures_at_the_run_end(name, t_end,
                                                           monkeypatch):
    """At the end state of the hybrid run, in both modes, Built.anchors
    equals the per-name closures bit for bit."""
    case, script = builtin_case(name)
    st = init_equilibrium(case)
    run_from(monkeypatch, case, script, RunConfig(mode="hybrid", t_end=t_end),
             st)
    for mode in (DYNAMIC, QSS):
        st.mode = mode
        built = mdl.build_system(case, st)
        want = [_ref_anchor(case, st, n) for n in built.system.var_names]
        assert _bits(built.anchors(st)) == _bits(np.array(want)), mode
