"""Network assembly, machine interface, and motor circuit helpers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesim.caseio import builtin_case
from hesim.errors import ValidationError
from hesim.grid import (
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
    MotorSpec,
    branch_params,
    branch_stamp,
    build_admittance,
    machine_injection,
    motor_circuit,
    motor_equilibrium_slip,
    motor_torque,
    rotation,
)

MOT = MotorSpec(h=0.6, r1=0.02, x1=0.1, xm=3.0, r2=0.03, x2=0.1, torque=0.25)


def two_bus_case():
    return GridCase(
        name="t", buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("b", 1, 2, 0.01, 0.05)],
        gens=[GenSpec("g", 1)],
    )


# --- admittance assembly -------------------------------------------------------

def test_single_branch_offdiagonal():
    case = two_bus_case()
    series, charging = build_admittance(case, {"b"})
    z = complex(0.01, 0.05)
    assert series[1, 2] == pytest.approx(-1.0 / z)
    assert series[2, 1] == pytest.approx(-1.0 / z)
    assert series[1, 1] + series[1, 2] == pytest.approx(0.0, abs=1e-12)
    assert charging == {1: 0j, 2: 0j}


def test_empty_branch_set_gives_empty_maps():
    case = two_bus_case()
    assert build_admittance(case, set()) == ({}, {})


def test_fourbus_row_sums_equal_shunt_totals(fourbus):
    # series rows sum to zero; charging holds half of each branch's b at
    # either end
    case, _ = fourbus
    online = {b.branch_id for b in case.branches}
    series, charging = build_admittance(case, online)
    rows: dict = {}
    for (row, _), y in series.items():
        rows[row] = rows.get(row, 0.0) + y
    assert all(abs(y) < 1e-12 for y in rows.values())
    for bus in charging:
        want = sum(0.5j * br.b_sh for br in case.branches
                   if bus in (br.from_bus, br.to_bus))
        assert charging[bus] == pytest.approx(want, abs=1e-15)
    assert sum(charging.values()) == pytest.approx(
        sum(1j * br.b_sh for br in case.branches), abs=1e-15)


def test_branch_override_changes_assembly():
    case = two_bus_case()
    series, _ = build_admittance(case, {"b"}, {"b": (0.02, 0.1, 0.0)})
    assert series[1, 2] == pytest.approx(-1.0 / complex(0.02, 0.1))


def _shuffled_case():
    # bus numbers out of index order, branches out of bus order, a
    # parallel circuit and an offline branch
    return GridCase(
        name="shuffled", buses=[BusSpec(b) for b in (30, 4, 17, 9, 1)],
        branches=[BranchSpec("a", 1, 17, 0.01, 0.05, 0.02),
                  BranchSpec("b", 9, 30, 0.02, 0.1),
                  BranchSpec("c", 4, 1, 0.01, 0.08, 0.04),
                  BranchSpec("d", 17, 1, 0.03, 0.2),
                  BranchSpec("e", 30, 4, 0.01, 0.06, status=0)])


@pytest.mark.parametrize("make", [
    lambda: builtin_case("ne39")[0], _shuffled_case], ids=["ne39", "shuffled"])
def test_series_keys_come_row_by_row_in_bus_index_order(make):
    # the order every build stamps its network terms in
    case = make()
    online = {br.branch_id for br in case.branches if br.status}
    series, _ = build_admittance(case, online)
    cells = [(case.bus_index[r], case.bus_index[c]) for r, c in series]
    assert cells == sorted(set(cells))
    ends = {(br.from_bus, br.to_bus) for br in case.branches
            if br.branch_id in online}
    assert set(series) == {(b, b) for pair in ends for b in pair} | ends | {
        (t, f) for f, t in ends}


_impedance = st.tuples(st.floats(0.0, 0.1), st.floats(-0.5, 0.5),
                       st.floats(-0.5, 0.5)).filter(
    lambda p: abs(complex(p[0], p[1])) > 1e-3)


def _with_charging(series, charging):
    """One map of series and charging admittance, charging on the diagonal."""
    full = dict(series)
    for bus, y in charging.items():
        full[bus, bus] = full.get((bus, bus), 0.0) + y
    return full


@settings(max_examples=200, deadline=None)
@given(ends=st.sampled_from([(1, 2), (2, 1), (2, 3), (1, 3)]),
       params=_impedance, override=st.none() | _impedance)
def test_branch_stamp_is_the_admittance_change(ends, params, override):
    # a new branch n next to a ring of three: its stamp is the change of
    # the series and charging maps when it goes online, with its override
    # if it has one
    overrides = {} if override is None else {"n": override}
    case = GridCase(
        name="ring", buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.05, 0.02),
                  BranchSpec("c", 2, 3, 0.02, 0.1, 0.04),
                  BranchSpec("d", 3, 1, 0.01, 0.08),
                  BranchSpec("n", *ends, *params)])
    ring = {"a", "c", "d"}
    before, after = (_with_charging(*build_admittance(case, online, overrides))
                     for online in (ring, ring | {"n"}))
    want = branch_stamp(*ends, *branch_params(case, overrides, "n"))
    scale = 1.0 + max(map(abs, after.values()))
    for cell in set(before) | set(after) | set(want):
        change = after.get(cell, 0.0) - before.get(cell, 0.0)
        assert abs(change - want.get(cell, 0.0)) <= 1e-13 * scale, cell


# --- machine interface ------------------------------------------------------------

def test_injection_zero_at_open_circuit_match():
    g = GenSpec("g", 1)
    delta, ed, eq = 0.7, 0.2, 1.1
    m = rotation(delta)
    e_xy = m @ np.array([ed, eq])
    v = complex(e_xy[0], e_xy[1])
    assert abs(machine_injection(g, delta, ed, eq, v)) < 1e-14


def test_injection_reduces_to_classical_model():
    # equal transient reactances, no stator resistance: I = (E - V)/(j chi)
    g = GenSpec("g", 1, ra=0.0, xd_t=0.3, xq_t=0.3)
    delta = math.pi / 2
    ed, eq = 0.0, 1.05
    e = eq * cmath.exp(1j * delta)
    v = 1.0 + 0.05j
    got = machine_injection(g, delta, ed, eq, v)
    assert got == pytest.approx((e - v) / 0.3j, abs=1e-12)


def test_injection_periodic_in_delta():
    g = GenSpec("g", 1)
    v = 1.01 + 0.1j
    a = machine_injection(g, 0.9, 0.2, 1.1, v)
    b = machine_injection(g, 0.9 + 2 * math.pi, 0.2, 1.1, v)
    assert a == pytest.approx(b, abs=1e-12)


# --- motor circuit ---------------------------------------------------------------

def test_motor_circuit_consistency():
    v = 1.0 + 0.02j
    e, i_s, i_r = motor_circuit(MOT, v, 0.03)
    # stator loop and magnetizing-branch KCL
    assert v - e - complex(MOT.r1, MOT.x1) * i_s == pytest.approx(0, abs=1e-14)
    assert e == pytest.approx(1j * MOT.xm * (i_s - i_r), abs=1e-13)


def test_motor_equilibrium_slip_balances_torque():
    v = 0.98 + 0.0j
    s = motor_equilibrium_slip(MOT, v)
    assert 0 < s < 0.2
    assert motor_torque(MOT, v, s) == pytest.approx(MOT.torque, abs=1e-10)


def test_motor_slip_within_xtol_of_torque_balance():
    # the slip is bracketed to 1e-14: torque balance changes sign across it
    v = 0.98 + 0.0j
    s = motor_equilibrium_slip(MOT, v)
    gap = lambda x: MOT.torque - motor_torque(MOT, v, x)
    assert gap(s - 1e-14) * gap(s + 1e-14) <= 0.0


def test_motor_infeasible_torque_rejected():
    heavy = MotorSpec(h=0.6, r1=0.02, x1=0.1, xm=3.0, r2=0.03, x2=0.1,
                      torque=50.0)
    with pytest.raises(ValidationError):
        motor_equilibrium_slip(heavy, 1.0 + 0j)


# --- case validation ---------------------------------------------------------------

def test_dangling_branch_rejected():
    with pytest.raises(ValidationError, match="unknown bus"):
        GridCase(name="bad", buses=[BusSpec(1)],
                 branches=[BranchSpec("b", 1, 7, 0.01, 0.05)])


def test_zero_impedance_rejected():
    with pytest.raises(ValidationError, match="zero impedance"):
        GridCase(name="bad", buses=[BusSpec(1), BusSpec(2)],
                 branches=[BranchSpec("b", 1, 2, 0.0, 0.0)])


def test_self_loop_branch_rejected():
    with pytest.raises(ValidationError, match="to itself"):
        GridCase(name="bad", buses=[BusSpec(1)],
                 branches=[BranchSpec("b", 1, 1, 0.01, 0.05)])


def test_zip_fractions_must_sum_to_one():
    with pytest.raises(ValidationError, match="fractions"):
        GridCase(name="bad", buses=[BusSpec(1)],
                 loads=[LoadSpec("l", 1, 0.1, 0.1, 0.5, 0.2, 0.5)])


def test_k_freq_definition():
    g = GenSpec("g", 1, d=2.0, gov_r=0.05)
    assert g.k_freq == pytest.approx(22.0)
