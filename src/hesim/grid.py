"""Grid case data model and network assembly.

All quantities are per-unit on a common system base; frequency deviation is
carried in Hz, machine speed deviation in per-unit.  A case is immutable
after ingestion; everything that changes during a simulation lives in the
runtime state owned by the scheduler (see model.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .series import bracketed_roots

SOURCE = "source"   # ideal voltage source (slack / infinite bus)
DYN4 = "dyn4"       # two-axis transient machine + AVR + governor + AGC


@dataclass(frozen=True)
class BusSpec:
    bus: int


@dataclass(frozen=True)
class BranchSpec:
    branch_id: str
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0
    status: int = 1


@dataclass(frozen=True)
class MotorSpec:
    """Single-cage induction motor with constant mechanical torque."""
    h: float
    r1: float
    x1: float
    xm: float
    r2: float
    x2: float
    torque: float


@dataclass(frozen=True)
class LoadSpec:
    load_id: str
    bus: int
    p: float = 0.0
    q: float = 0.0
    f_z: float = 0.0
    f_i: float = 0.0
    f_p: float = 1.0
    motor: Optional[MotorSpec] = None
    status: int = 1
    scale: float = 1.0  # initial multiplier on the static ZIP block


@dataclass(frozen=True)
class GenSpec:
    gen_id: str
    bus: int
    kind: str = DYN4
    p_set: float = 0.0
    v_set: float = 1.0
    h: float = 4.0
    d: float = 2.0
    ra: float = 0.0
    xd: float = 1.8
    xq: float = 1.7
    xd_t: float = 0.3
    xq_t: float = 0.55
    td0_t: float = 6.0
    tq0_t: float = 0.8
    avr_ka: float = 50.0
    avr_ta: float = 0.5
    gov_r: float = 0.05
    gov_t1: float = 0.3
    gov_t2: float = 0.1
    agc_tg: float = 5.0
    q_min: float = -9.99
    q_max: float = 9.99
    status: int = 1

    @property
    def k_freq(self) -> float:
        """QSS frequency-response coefficient (d + 1/R), per-unit per pu-freq.

        Divide by the nominal frequency to get per-unit per Hz.
        """
        return self.d + 1.0 / self.gov_r


@dataclass
class GridCase:
    name: str
    f_nominal: float = 60.0
    buses: list[BusSpec] = field(default_factory=list)
    branches: list[BranchSpec] = field(default_factory=list)
    gens: list[GenSpec] = field(default_factory=list)
    loads: list[LoadSpec] = field(default_factory=list)

    def __post_init__(self):
        self.bus_index = {b.bus: i for i, b in enumerate(self.buses)}
        self.branch_by_id = {br.branch_id: br for br in self.branches}
        self.gen_by_id = {g.gen_id: g for g in self.gens}
        self.load_by_id = {l.load_id: l for l in self.loads}
        self.validate()

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def omega_base(self) -> float:
        return 2.0 * math.pi * self.f_nominal

    def validate(self) -> None:
        if len(self.bus_index) != len(self.buses):
            raise ValidationError("duplicate bus ids")
        if len(self.branch_by_id) != len(self.branches):
            raise ValidationError("duplicate branch ids")
        if len(self.gen_by_id) != len(self.gens):
            raise ValidationError("duplicate generator ids")
        if len(self.load_by_id) != len(self.loads):
            raise ValidationError("duplicate load ids")
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in self.bus_index:
                    raise ValidationError(
                        f"branch {br.branch_id} references unknown bus {end}")
            if abs(complex(br.r, br.x)) <= 0.0:
                raise ValidationError(
                    f"branch {br.branch_id} has zero impedance")
            if br.from_bus == br.to_bus:
                raise ValidationError(
                    f"branch {br.branch_id} joins bus {br.from_bus} to itself")
        for g in self.gens:
            if g.bus not in self.bus_index:
                raise ValidationError(
                    f"generator {g.gen_id} references unknown bus {g.bus}")
            if g.kind not in (SOURCE, DYN4):
                raise ValidationError(f"generator {g.gen_id}: kind {g.kind!r}")
            if g.kind == DYN4 and (g.h <= 0 or g.xd_t <= 0 or g.xq_t <= 0):
                raise ValidationError(f"generator {g.gen_id}: bad parameters")
        for l in self.loads:
            if l.bus not in self.bus_index:
                raise ValidationError(
                    f"load {l.load_id} references unknown bus {l.bus}")
            if abs(l.f_z + l.f_i + l.f_p - 1.0) > 1e-9:
                raise ValidationError(
                    f"load {l.load_id}: ZIP fractions must sum to 1")
        buses_with_gens = [g.bus for g in self.gens]
        if len(set(buses_with_gens)) != len(buses_with_gens):
            raise ValidationError("at most one generator per bus")

    def branch_ends(self, args: tuple) -> tuple[BranchSpec, int, int]:
        """The branch I(id) or I(a,b) meters, with its near and far bus.

        I(id) meters at the from bus.  I(a,b) meters at bus a and needs
        exactly one branch joining a and b; otherwise it raises ValueError.
        """
        if len(args) == 1 and args[0] in self.branch_by_id:
            br = self.branch_by_id[args[0]]
            return br, br.from_bus, br.to_bus
        if len(args) != 2:
            raise ValueError(f"I({','.join(args)}) names no branch")
        a, b = int(args[0]), int(args[1])
        found = [br for br in self.branches
                 if {br.from_bus, br.to_bus} == {a, b}]
        if len(found) != 1:
            ids = ", ".join(br.branch_id for br in found)
            raise ValueError(f"I({a},{b}): " + (
                f"parallel branches {ids}; name one as I(<id>)" if found
                else f"no branch joins buses {a} and {b}"))
        return found[0], a, b

    def gens_at(self, bus: int) -> list[GenSpec]:
        return [g for g in self.gens if g.bus == bus]

    def loads_at(self, bus: int) -> list[LoadSpec]:
        return [l for l in self.loads if l.bus == bus]


def branch_params(case: GridCase, overrides: dict, branch_id: str) -> tuple:
    """(series admittance, charging b_sh) of a branch, read from its
    (r, x, b) override when it has one."""
    br = case.branch_by_id[branch_id]
    r, x, b = overrides.get(branch_id, (br.r, br.x, br.b_sh))
    return 1.0 / complex(r, x), b


def branch_stamp(i, j, y: complex, b: float) -> dict:
    """The admittance map {(row, column): y} a branch of series admittance
    y and charging b adds between nodes i and j."""
    return {(i, i): y + 0.5j * b, (i, j): -y, (j, j): y + 0.5j * b, (j, i): -y}


def build_admittance(case: GridCase, online_branches: set[str],
                     branch_overrides: Optional[dict] = None):
    """Nodal assembly over online branches: (series, charging) maps.

    ``series`` is {(row bus, column bus): y}, each online branch's series
    stamp summed in case order, its keys row by row in bus-index order.
    ``charging`` is {bus: sum of 0.5j * b}, kept apart because the power
    flow scales it with alpha.  Load admittances are not merged here.
    """
    series: dict = {}
    charging: dict = {}
    for br in case.branches:
        if br.branch_id not in online_branches:
            continue
        y, b = branch_params(case, branch_overrides or {}, br.branch_id)
        for cell, y_cell in branch_stamp(br.from_bus, br.to_bus, y,
                                         0.0).items():
            series[cell] = series.get(cell, 0.0) + y_cell
        for bus in (br.from_bus, br.to_bus):
            charging[bus] = charging.get(bus, 0.0) + 0.5j * b
    at = case.bus_index
    return {cell: series[cell] for cell in sorted(
        series, key=lambda c: (at[c[0]], at[c[1]]))}, charging


def rotation(delta: float) -> np.ndarray:
    """dq -> xy map M(delta); orthogonal, with the q axis at angle delta."""
    s, c = math.sin(delta), math.cos(delta)
    return np.array([[s, c], [-c, s]])


def stator_currents(gen: GenSpec, delta: float, eps_d: float, eps_q: float,
                    v: complex) -> np.ndarray:
    """(id, iq) from the two stator equations at terminal voltage v."""
    s, c = math.sin(delta), math.cos(delta)
    vd = v.real * s - v.imag * c
    vq = v.real * c + v.imag * s
    yg = np.array([[gen.ra, -gen.xq_t], [gen.xd_t, gen.ra]])
    return np.linalg.solve(yg, [eps_d - vd, eps_q - vq])


def machine_injection(gen: GenSpec, delta: float, eps_d: float, eps_q: float,
                      v: complex) -> complex:
    """Terminal current injected by the machine at terminal voltage v: the
    stator currents mapped through M(delta).

    Current is zero when v equals the internal potential mapped through
    M(delta), i.e. at the open-circuit match.
    """
    ixy = rotation(delta) @ stator_currents(gen, delta, eps_d, eps_q, v)
    return complex(ixy[0], ixy[1])


def motor_circuit(motor: MotorSpec, v: complex, slip: float):
    """Steady electrical solution of the motor T-circuit at given slip.

    Returns (e, i_s, i_r): magnetizing-node voltage, stator current drawn
    from the bus, rotor branch current.
    """
    z1 = complex(motor.r1, motor.x1)
    zm = complex(0.0, motor.xm)
    z2 = complex(motor.r2 / slip, motor.x2)
    z_in = z1 + zm * z2 / (zm + z2)
    i_s = v / z_in
    e = v - z1 * i_s
    i_r = e / z2
    return e, i_s, i_r


def motor_torque(motor: MotorSpec, v: complex, slip: float) -> float:
    """Air-gap electrical torque at given terminal voltage and slip."""
    e, _, i_r = motor_circuit(motor, v, slip)
    return (e * i_r.conjugate()).real


def motor_equilibrium_slip(motor: MotorSpec, v: complex) -> float:
    """Stable-branch slip solving torque balance at terminal voltage v."""
    def f(s):
        return motor.torque - motor_torque(motor, v, s)

    # stable branch lies below the breakdown slip: scan up from ~0
    grid = np.linspace(1e-4, 1.0, 400)
    tq = np.array([motor_torque(motor, v, s) for s in grid])
    peak = int(np.argmax(tq))
    if tq[peak] < motor.torque:
        raise ValidationError("motor mechanical torque above breakdown torque")
    return float(bracketed_roots(lambda i, s: [f(x) for x in s], [1e-6],
                                 [grid[peak]], xtol=1e-14)[0])
