"""Model assembly: turns a grid case plus runtime state into embedding systems.

The device equations come in two modes, each time- or alpha-embedded:

* DYNAMIC: machines, AVRs, governors, AGC and motor slips as states;
* QSS: machines collapsed to PV buses with droop and AGC dispatch
  integrators, motor slips algebraic.

A build takes its mode from its state.  A time build is a segment; an alpha
build is an algebraic problem at an instant (a switch, or the initial power
flow), where the mode's states are frozen (a QSS motor slip is algebraic, so
it stays an unknown).  The power flow is an alpha build of QSS at no load:
every device scaled by alpha, each island's slack bus pinned and each PV row
blended to its setpoint; a run leaves it through ``_machines_from_pv``.

Each device's equations are written once for both embeddings, with no
branch on the embedding: in an alpha build ``_Assembler.var`` returns a
state's value and ``_Assembler.known`` a time input's value at the instant,
each a constant (float) factor where a time embedding passes its unknown.

This module also makes every change of the runtime state (the switch
continuations, the mode switches, the PV->PQ fix at a reactive limit, the
ramps) and reads a Built: its verdict rows and output channels are plans.

Everything is rectangular: a complex network quantity is a pair of real
unknowns, conjugation is a sign flip, and the reciprocal voltage W carries
its own defining equations V*W = 1 wherever constant-power or
constant-current injections need it.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from operator import setitem
from typing import Optional

import numpy as np

from .engine import (
    ALPHA_ADD,
    ALPHA_CUT,
    ALPHA_PARAM,
    ALPHA_POWERFLOW,
    SystemBuilder,
    solve_alpha_problem,
)
from .errors import (
    HesimError,
    NoConvergenceAtAlpha1,
    PowerFlowInfeasible,
    ZeroBoundaryVoltage,
)
from .grid import (
    DYN4,
    SOURCE,
    GenSpec,
    GridCase,
    LoadSpec,
    branch_params,
    branch_stamp,
    build_admittance,
    machine_injection,
    motor_circuit,
    motor_equilibrium_slip,
    stator_currents,
)

DYNAMIC = "dynamic"
QSS = "qss"

MOTOR_START_SLIP = 0.98   # anchor slip for a freshly added (starting) motor
DEAD_VOLTAGE = 1e-6       # below this a boundary bus counts as de-energized


# --------------------------------------------------------------------------
# runtime state
# --------------------------------------------------------------------------


@dataclass
class MachineState:
    delta: float = 0.0
    omega: float = 0.0
    eps_q: float = 1.0
    eps_d: float = 0.0
    avr: float = 1.0      # exciter output E_fd
    gov: float = 0.0      # governor lag state
    agc: float = 0.0      # AGC correction to the dispatch reference
    v_ref: float = 1.0
    p_disp: float = 0.0   # dispatch reference base (ramps add on top)
    # QSS-side quantities (valid while the machine is represented as PV)
    q_g: float = 0.0
    v_set: float = 1.0
    q_fixed: Optional[float] = None


@dataclass
class Ramp:
    target: str          # "load:<id>" or "gen:<id>"
    rate: float
    t_start: float


@dataclass
class Island:
    index: int
    buses: list
    sources: list        # online source gens
    machines: list       # online dyn4 gens
    ref_gen: Optional[str]

    @property
    def energized(self) -> bool:
        return bool(self.sources or self.machines)

    @property
    def slack(self) -> Optional[str]:
        """The generator that holds the island's reference: its first
        source, else its reference machine."""
        return self.sources[0] if self.sources else self.ref_gen


@dataclass
class SystemState:
    case: GridCase
    t: float = 0.0
    mode: str = DYNAMIC
    v: np.ndarray = None
    energized: np.ndarray = None
    branch_online: set = field(default_factory=set)
    gen_online: set = field(default_factory=set)
    load_online: set = field(default_factory=set)
    mach: dict = field(default_factory=dict)          # gen_id -> MachineState
    slip: dict = field(default_factory=dict)          # load_id -> float
    df: dict = field(default_factory=dict)            # island idx -> Hz
    load_scale: dict = field(default_factory=dict)    # load_id -> base scale
    ramps: list = field(default_factory=list)
    extra_shunts: dict = field(default_factory=dict)  # bus -> admittance
    branch_overrides: dict = field(default_factory=dict)  # id -> (r, x, b)
    islands: list = field(default_factory=list)

    def start_ramp(self, what: str, key: str, rate: float, t: float) -> None:
        self.ramps.append(Ramp(f"{what}:{key}", rate, t))

    def stop_ramps(self, what: str, key: str, t: float) -> None:
        """Fold the ramps on a load's scale or a generator's dispatch into
        its base value at t, and drop them."""
        target = f"{what}:{key}"
        if not any(r.target == target for r in self.ramps):
            return
        if what == "load":
            self.load_scale[key] = self.scale_now(key, t)
        elif key in self.mach:  # a cut generator has nothing to fold
            self.mach[key].p_disp = self.pdisp_now(key, t)
        self.ramps[:] = [r for r in self.ramps if r.target != target]

    def ramped(self, target: str, base: float,
               t: Optional[float] = None) -> tuple:
        """(value at t, rate) of a base value plus the ramps on a target."""
        t = self.t if t is None else t
        rate = 0
        for r in self.ramps:
            if r.target == target:
                base += r.rate * (t - r.t_start)
                rate += r.rate
        return base, rate

    def scale_now(self, load_id: str, t: Optional[float] = None) -> float:
        return self.ramped(f"load:{load_id}", self.load_scale[load_id], t)[0]

    def pdisp_now(self, gen_id: str, t: Optional[float] = None) -> float:
        return self.ramped(f"gen:{gen_id}", self.mach[gen_id].p_disp, t)[0]


def fresh_state(case: GridCase) -> SystemState:
    st = SystemState(case)
    st.v = np.ones(case.n_bus, dtype=complex)
    st.energized = np.ones(case.n_bus, dtype=bool)
    st.branch_online = {b.branch_id for b in case.branches if b.status}
    st.gen_online = {g.gen_id for g in case.gens if g.status}
    st.load_online = {l.load_id for l in case.loads if l.status}
    st.load_scale = {l.load_id: l.scale for l in case.loads}
    return st


def refresh_islands(case: GridCase, state: SystemState) -> list:
    """Recompute connected components; collapse islands without sources.

    Returns a log of collapsed element ids.
    """
    n = case.n_bus
    root = list(range(n))  # union-find over the online branches

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for br in case.branches:
        if br.branch_id in state.branch_online:
            a = find(case.bus_index[br.from_bus])
            b = find(case.bus_index[br.to_bus])
            root[max(a, b)] = min(a, b)
    # every root is its component's smallest bus index, so islands keep the
    # order of their smallest bus index
    roots = [find(i) for i in range(n)]
    comps = sorted(set(roots))

    collapsed: list = []
    islands: list = []
    for c in comps:
        buses = sorted(case.buses[i].bus for i in range(n) if roots[i] == c)
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
            for l in case.loads:
                if l.bus in buses and l.load_id in state.load_online:
                    state.load_online.discard(l.load_id)
                    state.slip.pop(l.load_id, None)
                    collapsed.append(f"load:{l.load_id}")
        islands.append(isl)
    # each island takes the df of the old island its slack was in
    df = {gid: state.df.get(isl.index, 0.0) for isl in state.islands
          for gid in isl.sources + isl.machines}
    state.islands = islands
    state.df = {isl.index: df.get(isl.slack, 0.0) for isl in islands}
    return collapsed


def coi_speed(case: GridCase, state: SystemState, island: Island) -> float:
    """Inertia-weighted mean speed deviation (pu) of an island's machines."""
    num = den = 0.0
    for gid in island.machines:
        g = case.gen_by_id[gid]
        num += g.h * state.mach[gid].omega
        den += g.h
    return num / den if den > 0 else 0.0


def island_flat_voltage(case: GridCase, isl: Island) -> complex:
    """The slack's setpoint phasor: its v_set at angle zero."""
    return complex(case.gen_by_id[isl.slack].v_set)


# --------------------------------------------------------------------------
# complex-equation helpers over the term builder
# --------------------------------------------------------------------------


def _clin(b, eqx, eqy, k: complex, xr: int, xi: int,
          conj: bool = False, extra: tuple = ()) -> None:
    """Add k*X (or k*conj(X)) times the extra factors to (eqx, eqy)."""
    s = -1.0 if conj else 1.0
    for eq, c, f in ((eqx, k.real, xr), (eqx, -k.imag * s, xi),
                     (eqy, k.imag, xr), (eqy, k.real * s, xi)):
        b.term(eq, c, f, *extra)


# --------------------------------------------------------------------------
# build product
# --------------------------------------------------------------------------


@dataclass
class AlphaMods:
    """What the alpha continuation scales, relative to the base system.

    A switch's network change is two admittance maps {(row bus, column
    bus): y}: ``dy`` is added scaled by alpha, ``dy_fade`` (a cut element's
    equivalent) scaled by 1 - alpha.
    """
    kind: str = ALPHA_PARAM
    scale_devices: set = field(default_factory=set)  # freshly added devices
    ramp_down_devices: set = field(default_factory=set)  # cut fallback
    dy: dict = field(default_factory=dict)
    dy_fade: dict = field(default_factory=dict)


# the slots of a steadiness verdict's rows, see Built.monitored
MonitoredRows = namedtuple("MonitoredRows", "names plain angles refs vx vy")


@dataclass
class Built:
    system: object
    case: GridCase
    mode: str            # the state's mode it was built for
    islands: list
    # online branch -> (series admittance, b_sh)
    branch_params: dict = field(default_factory=dict)

    def __post_init__(self):  # (kind, key) of every name, parsed once
        self.keys = [_kind_key(n) for n in self.system.var_names]
        self.known_keys = [_kind_key(n) for n in self.system.known_names]

    @functools.cached_property
    def monitored(self) -> MonitoredRows:
        """The steadiness verdict's slots, resolved once from the names:
        the plain rows of every machine with a rotor angle, each angle
        paired with its island's reference angle, the (vx, vy) of every bus
        for V^2, and the names.  The reference is the island's ``ref_gen``
        where it has an angle, else its first machine with one; the
        reference against itself, zero by construction, is not a pair."""
        idx = self.system.index
        plain, pairs = [], []
        for isl in self.islands:
            gens = [g for g in isl.machines if f"delta:{g}" in idx]
            if not gens:
                continue
            ref = isl.ref_gen if isl.ref_gen in gens else gens[0]
            plain += [f"{n}:{g}" for g in gens
                      for n in ("omega", "epsq", "epsd", "avr", "gov")]
            pairs += [(f"delta:{g}", f"delta:{ref}") for g in gens if g != ref]
        buses = [b for isl in self.islands for b in isl.buses
                 if f"vx:{b}" in idx]

        def at(names):
            return np.array([idx[n] for n in names], dtype=int)

        return MonitoredRows(
            plain + [a for a, _ in pairs] + [f"vsq:{b}" for b in buses],
            at(plain), at(a for a, _ in pairs), at(r for _, r in pairs),
            at(f"vx:{b}" for b in buses), at(f"vy:{b}" for b in buses))

    @functools.cached_property
    def angle_slots(self) -> tuple:
        """The (sin, cos, angle) slots of every machine's rotor angle."""
        gids = [key for kind, key in self.keys if kind == "sind"]
        return tuple(np.array([self.system.index[f"{n}:{g}"] for g in gids],
                              dtype=int) for n in ("sind", "cosd", "delta"))

    @functools.cached_property
    def channel_map(self) -> "ChannelMap":
        """The output channels' plans, resolved from the names once."""
        return ChannelMap(self)

    def anchors(self, state: SystemState) -> np.ndarray:
        """The unknowns, in slot order, read from the runtime state."""
        return np.array([_READ[kind](state, key) for kind, key in self.keys])

    def knowns(self, state: SystemState, t0: float) -> np.ndarray:
        """The known inputs' (value, rate) at t0, one row each: every one
        is affine in the embedding variable."""
        return np.array([_KNOWN[kind](state, key, t0)
                         for kind, key in self.known_keys],
                        dtype=float).reshape(-1, 2)


# --------------------------------------------------------------------------
# output channels
# --------------------------------------------------------------------------

# trigger channel -> what its arguments name; I(id) or I(from,to) names a
# branch through GridCase.branch_ends
CHANNEL_ARGS = {"t": (), "f": (), "V": ("bus",), "omega": ("gen",),
                "delta": ("gen",), "pg": ("gen",), "I": None}


class ChannelMap:
    """Where the output channels t, V(bus), I(from,to) or I(branch id), f,
    omega(gen), delta(gen) and pg(gen) read their inputs, for one Built.

    Rows index a value matrix: values and known inputs, a zero row and a
    NaN row.  A name the Built lacks reads 0 where the channel does (a dead
    bus, a QSS machine outside every island) and NaN elsewhere.  Branch
    currents use the Built's snapshot of the online branches' parameters.
    """

    def __init__(self, built: Built):
        self.case, self.qss = built.case, built.mode == QSS
        self.islands, self.branch_params = built.islands, built.branch_params
        nv, nk = built.system.nv, built.system.nk
        self.rows = {**built.system.index, **{
            n: nv + i for i, n in enumerate(built.system.known_names)}}
        self.zero, self.nan = nv + nk, nv + nk + 1
        self.plans: dict = {}

    def apply(self, chans: tuple, rows, t) -> np.ndarray:
        """Channels x times from (values, knowns) rows at the times t."""
        X = np.concatenate([*rows, [np.zeros(len(t)), np.full(len(t), np.nan)]])
        if chans not in self.plans:
            kinds = {c: [i for i, (k, _) in enumerate(chans) if k == c]
                     for c, _ in chans}
            self.plans[chans] = [(p, self._kind(c, [chans[i][1] for i in p]))
                                 for c, p in kinds.items()]
        out = np.empty((len(chans), len(t)))
        for pos, kind in self.plans[chans]:
            out[pos] = kind(X, t)
        return out

    def _at(self, names, absent: int) -> np.ndarray:
        return np.array([self.rows.get(n, absent) for n in names], dtype=int)

    def _island_of_gen(self, gid: str):
        return next((isl for isl in self.islands
                     if gid in isl.machines or gid in isl.sources), None)

    def _main_island(self):
        """The island of the lowest-numbered generator bus."""
        return min(self.islands, default=None, key=lambda isl: min(
            [self.case.gen_by_id[g].bus for g in isl.machines + isl.sources],
            default=10 ** 9))

    def _kind(self, chan: str, arglist: list):
        """(value matrix, times) -> one kind's rows."""
        case, zero, nan, at = self.case, self.zero, self.nan, self._at
        fnom = case.f_nominal
        ids = [a[0] if a else None for a in arglist]
        gens = [case.gen_by_id.get(g) for g in ids]
        if chan == "t":
            return lambda X, t: t
        if chan == "V":
            vx = at([f"vx:{int(b)}" for b in ids], zero)
            vy = at([f"vy:{int(b)}" for b in ids], zero)
            return lambda X, t: np.hypot(X[vx], X[vy])
        if chan == "I":
            ends = [(self.branch_params.get(br.branch_id),
                     at([f"vx:{a}", f"vy:{a}", f"vx:{b}", f"vy:{b}"], zero))
                    for br, a, b in map(case.branch_ends, arglist)]
            return lambda X, t: [_branch_current(X[v], yc) for yc, v in ends]
        if chan == "f":
            isl = self._main_island()
            if self.qss:
                df = at([f"df:{isl.index}" if isl else ""], zero)
                return lambda X, t: fnom + X[df]
            machines = isl.machines if isl is not None else []
            h = [case.gen_by_id[g].h for g in machines]
            w = np.array([0.0] + [hi / sum(h) for hi in h])[:, None]
            om = np.r_[zero, at([f"omega:{g}" for g in machines], nan)]
            # an H-weighted sum from 0.0 in machine order: cumsum adds in
            # sequence, where np.sum may add in pairs
            return lambda X, t: fnom * (
                1.0 + np.cumsum(w * X[om], axis=0)[-1])
        if chan in ("omega", "pg") and self.qss:
            df = at([f"df:{i.index}" if i else ""
                     for i in map(self._island_of_gen, ids)], zero)
            if chan == "omega":
                return lambda X, t: X[df] / fnom
            pagc = at([f"pagc:{g}" for g in ids], nan)
            pd = at([f"pdisp:{g}" for g in ids], zero)
            gain = np.array([[getattr(g, "k_freq", 0.0) / fnom]
                             for g in gens])
            return lambda X, t: X[pd] + X[pagc] - gain * X[df]
        if chan in ("omega", "delta"):
            rows = at([f"{chan}:{g}" for g in ids], nan)
            return lambda X, t: X[rows]
        if chan == "pg":
            i_d, i_q, s, c = (at([f"{n}:{g}" for g in ids], nan)
                              for n in ("id", "iq", "sind", "cosd"))
            vx, vy = (at([f"{n}:{getattr(g, 'bus', '')}" for g in gens], nan)
                      for n in ("vx", "vy"))
            # electrical power of dynamic machines from their dq currents
            return lambda X, t: (
                X[vx] * (X[i_d] * X[s] + X[i_q] * X[c])
                + X[vy] * (-X[i_d] * X[c] + X[i_q] * X[s]))
        raise KeyError(f"unknown channel {chan!r}")


def _branch_current(v, yc):
    """|I| at the from end of a branch (none when offline), from the (vx,
    vy) rows of its ends and its (y_series, b_sh), in real arithmetic:
    numpy's complex multiply may fuse a multiply-add, so its bits would
    depend on the batch size."""
    if yc is None:
        return np.zeros(v.shape[1])
    y, c = yc[0], 0.5j * yc[1]
    vfx, vfy, dx, dy = v[0], v[1], v[0] - v[2], v[1] - v[3]
    ix = (y.real * dx - y.imag * dy) + (c.real * vfx - c.imag * vfy)
    iy = (y.real * dy + y.imag * dx) + (c.real * vfy + c.imag * vfx)
    return np.abs(ix + 1j * iy)


class _Assembler:
    """One build pass; entry point is build_system below."""

    def __init__(self, case, state, mods):
        self.case = case
        self.state = state
        self.mode = state.mode
        self.mods = mods or AlphaMods()
        self.alpha = mods is not None
        self.pf = self.alpha and mods.kind == ALPHA_POWERFLOW
        self.b = SystemBuilder()
        self.slots: dict = {}
        self.balance: dict = {}

    # -- registration helpers ---------------------------------------------------

    def var(self, name, kind):
        """An unknown's slot; an alpha build freezes a state at its value."""
        if kind == "alg":
            slot = self.b.alg(name)
        elif self.alpha:
            kind, key = _kind_key(name)
            slot = _READ[kind](self.state, key)
        else:
            slot = self.b.state(name)
        self.slots[name] = slot
        return slot

    def known(self, name):
        """A time input's slot; an alpha build holds it at its value."""
        if not self.alpha:
            return self.b.known(name)
        kind, key = _kind_key(name)
        return _KNOWN[kind](self.state, key, self.state.t)[0]

    def needs(self, bus: int):
        """(need_w, need_vm, need_u) for a bus in the current flavor."""
        case, state = self.case, self.state
        need_w = need_vm = need_u = False
        for l in case.loads_at(bus):
            if l.load_id not in state.load_online:
                continue
            if l.f_p > 0 or l.f_i > 0:
                need_w = True
            if l.f_i > 0:
                need_vm = need_u = True
        for g in case.gens_at(bus):
            if g.gen_id not in state.gen_online or g.kind != DYN4:
                continue
            if self.mode == QSS:
                need_w = True
            if self.mode == DYNAMIC and not self.alpha:
                need_vm = True  # AVR input; frozen across switch instants
        return need_w, need_vm, need_u

    # -- the build -----------------------------------------------------------------

    def run(self) -> Built:
        case, state, mods = self.case, self.state, self.mods
        ebuses = [b.bus for b in case.buses
                  if state.energized[case.bus_index[b.bus]]]
        islands = [isl for isl in state.islands if isl.energized]

        self.alpha_slot = self.b.known("alpha") if self.alpha else None
        self.omalpha_slot = None
        if self.alpha and (mods.dy_fade or mods.ramp_down_devices):
            self.omalpha_slot = self.b.known("one_minus_alpha")

        # sources always pin their bus; the powerflow also pins the slack
        # machine's bus in source-less islands, so no machine equations are
        # emitted for it
        self.pinned = {case.gen_by_id[g].bus for isl in islands
                       for g in isl.sources + ([isl.slack] if self.pf else [])}

        # ---- per-bus unknowns ----
        vslots, wslots, vmslots, uslots = {}, {}, {}, {}
        for bus in ebuses:
            vslots[bus] = (self.var(f"vx:{bus}", "alg"),
                           self.var(f"vy:{bus}", "alg"))
            need_w, need_vm, need_u = self.needs(bus)
            if need_w:
                wslots[bus] = (self.var(f"wx:{bus}", "alg"),
                               self.var(f"wy:{bus}", "alg"))
            if need_vm:
                vmslots[bus] = self.var(f"vm:{bus}", "alg")
            if need_u:
                uslots[bus] = (self.var(f"ux:{bus}", "alg"),
                               self.var(f"uy:{bus}", "alg"))
        self.vslots, self.wslots = vslots, wslots
        self.vmslots, self.uslots = vmslots, uslots

        # ---- balance equations or source pins ----
        for bus in ebuses:
            if bus in self.pinned:
                e = complex(next(g for g in case.gens_at(bus)
                                 if g.gen_id in state.gen_online).v_set)
                eqx = self.b.alg_eq(f"pinx:{bus}")
                eqy = self.b.alg_eq(f"piny:{bus}")
                self.b.term(eqx, 1.0, vslots[bus][0])
                self.b.term(eqx, -e.real)
                self.b.term(eqy, 1.0, vslots[bus][1])
                self.b.term(eqy, -e.imag)
            else:
                self.balance[bus] = (self.b.alg_eq(f"balx:{bus}"),
                                     self.b.alg_eq(f"baly:{bus}"))

        # ---- network terms: admittance maps, each stamped -y * V(column) ----
        # charging and shunts scale with alpha in the powerflow so the
        # no-load anchor is the exact flat profile
        series, charging = build_admittance(case, state.branch_online,
                                            state.branch_overrides)
        shunts = {(b.bus, b.bus): charging.get(b.bus, 0j)
                  + state.extra_shunts.get(b.bus, 0.0) for b in case.buses}
        for amap, slot in ((series, None),
                           (shunts, self.alpha_slot if self.pf else None),
                           (mods.dy, self.alpha_slot),
                           (mods.dy_fade, self.omalpha_slot)):
            for (row, col), y in amap.items():
                if row in self.balance and col in vslots:
                    _clin(self.b, *self.balance[row], -y, *vslots[col],
                          extra=(slot,))

        # ---- W / Vmag / U defining equations ----
        for bus, (wx, wy) in wslots.items():
            vx, vy = vslots[bus]
            ex = self.b.alg_eq(f"wdefx:{bus}")
            ey = self.b.alg_eq(f"wdefy:{bus}")
            self.b.term(ex, 1.0, vx, wx)
            self.b.term(ex, -1.0, vy, wy)
            self.b.term(ex, -1.0)
            self.b.term(ey, 1.0, vx, wy)
            self.b.term(ey, 1.0, vy, wx)
        for bus, vm in vmslots.items():
            vx, vy = vslots[bus]
            eq = self.b.alg_eq(f"vmdef:{bus}")
            self.b.term(eq, 1.0, vm, vm)
            self.b.term(eq, -1.0, vx, vx)
            self.b.term(eq, -1.0, vy, vy)
        for bus, (ux, uy) in uslots.items():
            vm = vmslots[bus]
            wx, wy = wslots[bus]
            ex = self.b.alg_eq(f"udefx:{bus}")
            ey = self.b.alg_eq(f"udefy:{bus}")
            self.b.term(ex, 1.0, ux)
            self.b.term(ex, -1.0, vm, wx)
            self.b.term(ey, 1.0, uy)
            self.b.term(ey, -1.0, vm, wy)

        # ---- loads ----
        for l in case.loads:
            if (l.load_id not in state.load_online
                    or not state.energized[case.bus_index[l.bus]]
                    or l.bus not in self.balance):
                continue
            self._emit_static_load(l)
            if l.motor is not None:
                self._emit_motor(l)

        # ---- generators ----
        mach_emitted: list = []
        for isl in islands:
            for gid in isl.machines:
                g = case.gen_by_id[gid]
                if g.bus not in self.balance:  # a pinned bus
                    continue
                if self.mode == QSS:
                    self._emit_qss_gen(g, isl)
                else:
                    self._emit_machine_vars(g)
                    mach_emitted.append((g, isl))

        # dynamic machine equations emitted after all slots exist, because
        # the AGC integrator couples to peer machine speeds
        for g, isl in mach_emitted:
            self._emit_machine_eqs(g, isl)

        # ---- QSS island closure ----
        if self.mode == QSS:
            for isl in islands:
                self._emit_island_frequency(isl)

        return Built(system=self.b.compile(), case=case, mode=self.mode,
                     islands=islands, branch_params={
                         i: branch_params(case, state.branch_overrides, i)
                         for i in state.branch_online})

    # -- device emitters ---------------------------------------------------------

    def _scale(self, key: str):
        """The known scaling of a device in an alpha problem: alpha for a
        device being added (every device in the powerflow), 1 - alpha for a
        device ramped down, else none."""
        if key in self.mods.scale_devices or self.pf:
            return self.alpha_slot
        if key in self.mods.ramp_down_devices:
            return self.omalpha_slot
        return None

    def _emit_static_load(self, l: LoadSpec) -> None:
        eqx, eqy = self.balance[l.bus]
        extra = (self.known(f"scale:{l.load_id}"),
                 self._scale(f"load:{l.load_id}"))
        s = complex(l.p, l.q)
        if l.f_z > 0:
            # constant-impedance part: admittance P - jQ at nominal voltage
            _clin(self.b, eqx, eqy, -(s * l.f_z).conjugate(),
                  *self.vslots[l.bus], extra=extra)
        if l.f_p > 0:
            _clin(self.b, eqx, eqy, -(s * l.f_p).conjugate(),
                  *self.wslots[l.bus], conj=True, extra=extra)
        if l.f_i > 0:
            _clin(self.b, eqx, eqy, -(s * l.f_i).conjugate(),
                  *self.uslots[l.bus], conj=True, extra=extra)

    def _emit_motor(self, l: LoadSpec) -> None:
        m = l.motor
        lid = l.load_id
        b = self.b
        ex, ey, isx, isy, irx, iry = (self.var(f"{n}:{lid}", "alg")
                                      for n in _MOTOR_KINDS)
        kind = "alg" if self.mode == QSS else "state"
        slip = self.var(f"slip:{lid}", kind)

        vx, vy = self.vslots[l.bus]
        e1x = b.alg_eq(f"mstx:{lid}")
        e1y = b.alg_eq(f"msty:{lid}")
        b.term(e1x, 1.0, vx)
        b.term(e1y, 1.0, vy)
        b.term(e1x, -1.0, ex)
        b.term(e1y, -1.0, ey)
        _clin(b, e1x, e1y, -complex(m.r1, m.x1), isx, isy)

        e2x = b.alg_eq(f"mmagx:{lid}")
        e2y = b.alg_eq(f"mmagy:{lid}")
        b.term(e2x, 1.0, ex)
        b.term(e2y, 1.0, ey)
        _clin(b, e2x, e2y, -1j * m.xm, isx, isy)
        _clin(b, e2x, e2y, 1j * m.xm, irx, iry)

        e3x = b.alg_eq(f"mrotx:{lid}")
        e3y = b.alg_eq(f"mroty:{lid}")
        b.term(e3x, 1.0, slip, ex)
        b.term(e3y, 1.0, slip, ey)
        b.term(e3x, m.x2, slip, iry)
        b.term(e3y, -m.x2, slip, irx)
        b.term(e3x, -m.r2, irx)
        b.term(e3y, -m.r2, iry)

        # torque balance: algebraic with an algebraic slip, else its rate
        torque = ((m.torque,), (-1.0, ex, irx), (-1.0, ey, iry))
        if kind == "alg":
            eq = b.alg_eq(f"mtorq:{lid}")
            for c, *f in torque:
                b.term(eq, c, *f)
        else:
            for c, *f in torque:
                b.rhs_term(slip, c / (2 * m.h), *f)

        _clin(b, *self.balance[l.bus], -1.0, isx, isy,
              extra=(self._scale(f"load:{lid}"),))

    def _emit_machine_vars(self, g: GenSpec) -> None:
        for n in ("delta", "omega", "epsq", "epsd", "sind", "cosd",
                  "avr", "gov", "agc"):
            self.var(f"{n}:{g.gen_id}", "state")
        self.var(f"id:{g.gen_id}", "alg")
        self.var(f"iq:{g.gen_id}", "alg")

    def _emit_machine_eqs(self, g: GenSpec, isl: Island) -> None:
        b = self.b
        gid = g.gen_id
        s_ = self.slots
        eqx, eqy = self.balance[g.bus]
        vx, vy = self.vslots[g.bus]
        i_d, i_q = s_[f"id:{gid}"], s_[f"iq:{gid}"]
        epsq, epsd = s_[f"epsq:{gid}"], s_[f"epsd:{gid}"]
        sind, cosd = s_[f"sind:{gid}"], s_[f"cosd:{gid}"]
        # the differential rows: swing, flux decay, AVR, governor, AGC
        delta, omega = s_[f"delta:{gid}"], s_[f"omega:{gid}"]
        avr, gov = s_[f"avr:{gid}"], s_[f"gov:{gid}"]
        agc, pd = s_[f"agc:{gid}"], self.known(f"pdisp:{gid}")

        w_s = self.case.omega_base
        b.rhs_term(delta, w_s, omega)
        b.rhs_term(sind, w_s, omega, cosd)
        b.rhs_term(cosd, -w_s, omega, sind)

        h2 = 2.0 * g.h
        t21 = g.gov_t2 / g.gov_t1
        b.rhs_term(omega, 1.0 / h2, pd)
        b.rhs_term(omega, 1.0 / h2, agc)
        b.rhs_term(omega, -t21 / (g.gov_r * h2), omega)
        b.rhs_term(omega, (1.0 - t21) / h2, gov)
        b.rhs_term(omega, -g.d / h2, omega)
        b.rhs_term(omega, -1.0 / h2, epsd, i_d)
        b.rhs_term(omega, -1.0 / h2, epsq, i_q)
        b.rhs_term(omega, -(g.xq_t - g.xd_t) / h2, i_d, i_q)

        b.rhs_term(epsq, -1.0 / g.td0_t, epsq)
        b.rhs_term(epsq, -(g.xd - g.xd_t) / g.td0_t, i_d)
        b.rhs_term(epsq, 1.0 / g.td0_t, avr)
        b.rhs_term(epsd, -1.0 / g.tq0_t, epsd)
        b.rhs_term(epsd, (g.xq - g.xq_t) / g.tq0_t, i_q)

        b.rhs_term(avr, g.avr_ka * self.state.mach[gid].v_ref / g.avr_ta)
        # an alpha build has no |V| unknown: it freezes the AVR
        b.rhs_term(avr, -g.avr_ka / g.avr_ta, self.vmslots.get(g.bus))
        b.rhs_term(avr, -1.0 / g.avr_ta, avr)

        b.rhs_term(gov, -1.0 / (g.gov_r * g.gov_t1), omega)
        b.rhs_term(gov, -1.0 / g.gov_t1, gov)

        if g.agc_tg > 0 and isl.machines:
            h_tot = sum(self.case.gen_by_id[m].h for m in isl.machines)
            k_agc = self.case.f_nominal / g.agc_tg
            for mid in isl.machines:
                gm = self.case.gen_by_id[mid]
                b.rhs_term(agc, -k_agc * gm.h / h_tot, s_[f"omega:{mid}"])

        ed = b.alg_eq(f"statord:{gid}")
        eq_ = b.alg_eq(f"statorq:{gid}")
        b.term(ed, g.ra, i_d)
        b.term(ed, -g.xq_t, i_q)
        b.term(ed, -1.0, epsd)
        b.term(ed, 1.0, vx, sind)
        b.term(ed, -1.0, vy, cosd)
        b.term(eq_, g.xd_t, i_d)
        b.term(eq_, g.ra, i_q)
        b.term(eq_, -1.0, epsq)
        b.term(eq_, 1.0, vx, cosd)
        b.term(eq_, 1.0, vy, sind)

        scale = self._scale(f"gen:{gid}")
        b.term(eqx, 1.0, scale, i_d, sind)
        b.term(eqx, 1.0, scale, i_q, cosd)
        b.term(eqy, -1.0, scale, i_d, cosd)
        b.term(eqy, 1.0, scale, i_q, sind)

    def _emit_qss_gen(self, g: GenSpec, isl: Island) -> None:
        """A machine as a PV bus.  P is the dispatch plus the AGC integrator
        (both frozen across a switch instant), scaled as the device is
        (alpha in the power flow), with droop frequency response where its
        island's slack bus is not pinned.  A reactive output at its limit
        is fixed; else the PV row holds |V|^2 at v_set^2, in the power flow
        blended from the flat profile's |V|^2 to the case's v_set^2."""
        b = self.b
        gid = g.gen_id
        eqx, eqy = self.balance[g.bus]
        wx, wy = self.wslots[g.bus]
        ms = self.state.mach[gid]
        df_slot = self.slots.get(f"df:{isl.index}")
        if df_slot is None and not self._pinned_slack(isl):
            df_slot = self.var(f"df:{isl.index}", "alg")
        pagc = self.var(f"pagc:{gid}", "state")
        pd = self.known(f"pdisp:{gid}")
        scale = self._scale(f"gen:{gid}")
        if df_slot is not None and g.agc_tg > 0:
            b.rhs_term(pagc, -1.0 / g.agc_tg, df_slot)
        for f in (pd, pagc):
            b.term(eqx, 1.0, f, scale, wx)
            b.term(eqy, -1.0, f, scale, wy)
        if df_slot is not None:
            kf = g.k_freq / self.case.f_nominal  # pu per Hz
            b.term(eqx, -kf, df_slot, wx)
            b.term(eqy, kf, df_slot, wy)
        if ms.q_fixed is not None:  # a power-flow placeholder has none
            b.term(eqx, -ms.q_fixed, wy)
            b.term(eqy, -ms.q_fixed, wx)
            return
        qg = self.var(f"qg:{gid}", "alg")
        b.term(eqx, -1.0, qg, wy)
        b.term(eqy, -1.0, qg, wx)
        vx, vy = self.vslots[g.bus]
        eq = b.alg_eq(f"pv:{gid}")
        b.term(eq, 1.0, vx, vx)
        b.term(eq, 1.0, vy, vy)
        if self.pf:
            vsl = abs(island_flat_voltage(self.case, isl))
            b.term(eq, -(vsl * vsl))
            b.term(eq, -(g.v_set ** 2 - vsl * vsl), self.alpha_slot)
        else:
            b.term(eq, -ms.v_set ** 2)

    def _pinned_slack(self, isl: Island) -> bool:
        """An island whose slack bus is pinned has no frequency unknown
        and no angle pin: the pin holds both."""
        return self.case.gen_by_id[isl.slack].bus in self.pinned

    def _emit_island_frequency(self, isl: Island) -> None:
        """One angle pin per island, at its slack's bus, closes the
        frequency unknown."""
        if self._pinned_slack(isl):
            return
        ref = self.case.gen_by_id[isl.slack]
        bi = self.case.bus_index[ref.bus]
        v0 = self.state.v[bi]
        th0 = cmath.phase(v0) if abs(v0) > 0 else 0.0
        eq = self.b.alg_eq(f"anglepin:{isl.index}")
        vx, vy = self.vslots[ref.bus]
        self.b.term(eq, math.sin(th0), vx)
        self.b.term(eq, -math.cos(th0), vy)


def build_system(case: GridCase, state: SystemState,
                 mods: Optional[AlphaMods] = None) -> Built:
    """The state's system in its mode; with ``mods`` an alpha build."""
    return _Assembler(case, state, mods).run()


# --------------------------------------------------------------------------
# state <-> unknowns: the name-kind table
# --------------------------------------------------------------------------

# Unknowns are named "<kind>:<key>", the key a bus, generator, load or
# island.  These tables are the only place that knows which state field
# holds a kind of unknown or known input.


def _voltage(st, bus):
    return st.v[st.case.bus_index[bus]]


def _unit_conj(v):
    return v.conjugate() / abs(v)  # |V| * W


def _stator(st, gid):
    """(id, iq) from the stator equations at the state's terminal voltage."""
    g, m = st.case.gen_by_id[gid], st.mach[gid]
    return stator_currents(g, m.delta, m.eps_d, m.eps_q, _voltage(st, g.bus))


def _motor(st, lid):
    """Magnetizing voltage, stator and rotor current of the T-circuit, as
    (real, imaginary) parts in the order of _MOTOR_KINDS."""
    l = st.case.load_by_id[lid]
    z = motor_circuit(l.motor, _voltage(st, l.bus), st.slip[lid])
    return [part for zi in z for part in (zi.real, zi.imag)]


_MACHINE_FIELDS = {"delta": "delta", "omega": "omega", "epsq": "eps_q",
                   "epsd": "eps_d", "avr": "avr", "gov": "gov", "agc": "agc",
                   "pagc": "agc", "qg": "q_g"}
_MOTOR_KINDS = ("mex", "mey", "misx", "misy", "mirx", "miry")
_NUMBERED = {"vx", "vy", "wx", "wy", "vm", "ux", "uy", "df"}  # int keys

# kind -> (state, key) -> the unknown's anchor value
_READ = {
    "vx": lambda st, bus: _voltage(st, bus).real,
    "vy": lambda st, bus: _voltage(st, bus).imag,
    "wx": lambda st, bus: (1.0 / _voltage(st, bus)).real,
    "wy": lambda st, bus: (1.0 / _voltage(st, bus)).imag,
    "vm": lambda st, bus: abs(_voltage(st, bus)),
    "ux": lambda st, bus: _unit_conj(_voltage(st, bus)).real,
    "uy": lambda st, bus: _unit_conj(_voltage(st, bus)).imag,
    **{kind: lambda st, gid, f=f: getattr(st.mach[gid], f)
       for kind, f in _MACHINE_FIELDS.items()},
    "sind": lambda st, gid: math.sin(st.mach[gid].delta),
    "cosd": lambda st, gid: math.cos(st.mach[gid].delta),
    "id": lambda st, gid: _stator(st, gid)[0],
    "iq": lambda st, gid: _stator(st, gid)[1],
    **{kind: lambda st, lid, i=i: _motor(st, lid)[i]
       for i, kind in enumerate(_MOTOR_KINDS)},
    "slip": lambda st, lid: st.slip[lid],
    "df": lambda st, i: st.df[i],
}

# kind -> (state, key, value) stores a solved value; only the fundamental
# kinds are stored, the others are derived from them when next read
_STORE = {
    "vx": lambda st, bus, x: setitem(st.v.real, st.case.bus_index[bus], x),
    "vy": lambda st, bus, x: setitem(st.v.imag, st.case.bus_index[bus], x),
    **{kind: lambda st, gid, x, f=f: setattr(st.mach[gid], f, x)
       for kind, f in _MACHINE_FIELDS.items()},
    "slip": lambda st, lid, x: setitem(st.slip, lid, x),
    "df": lambda st, i, x: setitem(st.df, i, x),
}

# known input kind -> (state, key, t0) -> its first two series coefficients
_KNOWN = {
    "alpha": lambda st, key, t0: (0.0, 1.0),
    "one_minus_alpha": lambda st, key, t0: (1.0, -1.0),
    "scale": lambda st, lid, t0: st.ramped(f"load:{lid}", st.load_scale[lid],
                                           t0),
    "pdisp": lambda st, gid, t0: st.ramped(f"gen:{gid}", st.mach[gid].p_disp,
                                           t0),
}


def _kind_key(name: str) -> tuple:
    kind, _, key = name.partition(":")
    return kind, int(key) if kind in _NUMBERED else key


def write_back(built: Built, values: np.ndarray, state: SystemState) -> None:
    """Copy solved values into the runtime state (fundamental quantities)."""
    for (kind, key), x in zip(built.keys, values):
        if kind in _STORE:
            _STORE[kind](state, key, x)


def refine_state(built: Built, state: SystemState,
                 values: Optional[np.ndarray] = None) -> np.ndarray:
    """Newton-polish the algebraic unknowns of ``values`` (a segment's end
    values, else the anchors read from the state) with each rotor angle's
    sine and cosine re-read from the angle, as ``anchors`` reads them;
    write the state once and return the vector, the next anchor."""
    if values is None:
        x = built.anchors(state)
    else:
        x = np.array(values, dtype=float)
        sin, cos, delta = built.angle_slots
        angles = x[delta].tolist()
        x[sin] = [math.sin(a) for a in angles]
        x[cos] = [math.cos(a) for a in angles]
    x = built.system.newton_refine(x, built.knowns(state, state.t)[:, 0])
    write_back(built, x, state)
    return x


# --------------------------------------------------------------------------
# injection bookkeeping
# --------------------------------------------------------------------------


def load_current(l: LoadSpec, v: complex, scale: float,
                 slip: Optional[float]) -> complex:
    """Total current drawn by a load device at terminal voltage v."""
    s = complex(l.p, l.q)
    i = 0.0 + 0.0j
    if scale != 0.0:
        if l.f_z > 0:
            i += scale * (s * l.f_z).conjugate() * v
        if l.f_p > 0:
            i += scale * (s * l.f_p).conjugate() / v.conjugate()
        if l.f_i > 0:
            i += scale * (s * l.f_i).conjugate() * abs(v) / v.conjugate()
    if l.motor is not None and slip is not None:
        _, i_s, _ = motor_circuit(l.motor, v, slip)
        i += i_s
    return i


def required_injection(case: GridCase, state: SystemState, bus: int) -> complex:
    """Current a generator at this bus must inject for the network balance."""
    series, charging = build_admittance(case, state.branch_online,
                                        state.branch_overrides)
    i = case.bus_index[bus]
    row = np.array([series.get((bus, b.bus), 0j) for b in case.buses])
    shunt = charging.get(bus, 0j) + state.extra_shunts.get(bus, 0.0)
    inet = row @ state.v + shunt * state.v[i]
    for l in case.loads_at(bus):
        if l.load_id in state.load_online:
            inet += load_current(l, state.v[i], state.scale_now(l.load_id),
                                 state.slip.get(l.load_id))
    return inet


# --------------------------------------------------------------------------
# machine (back-)initialization
# --------------------------------------------------------------------------


def machine_init_from_terminal(g: GenSpec, v: complex, s_inj: complex,
                               df_hz: float, pdisp_now: float,
                               f_nominal: float) -> MachineState:
    """Steady machine state consistent with terminal (V, S) and frequency.

    Classic two-axis initialization: the q axis points along
    V + (ra + j xq) I; dq projections give the internal potentials and field
    voltage, and torque balance closes governor and AGC states so the
    dynamic residual vanishes at the instant.
    """
    i = (s_inj / v).conjugate()
    delta = cmath.phase(v + complex(g.ra, g.xq) * i)
    s, c = math.sin(delta), math.cos(delta)
    vd = v.real * s - v.imag * c
    vq = v.real * c + v.imag * s
    id_ = i.real * s - i.imag * c
    iq_ = i.real * c + i.imag * s
    eps_d = vd + g.ra * id_ - g.xq_t * iq_
    eps_q = vq + g.ra * iq_ + g.xd_t * id_
    efd = eps_q + (g.xd - g.xd_t) * id_
    omega = df_hz / f_nominal
    te = eps_d * id_ + eps_q * iq_ + (g.xq_t - g.xd_t) * id_ * iq_
    tm0_total = te + g.d * omega + omega / g.gov_r
    return MachineState(
        delta=delta, omega=omega, eps_q=eps_q, eps_d=eps_d, avr=efd,
        gov=-omega / g.gov_r, agc=tm0_total - pdisp_now,
        v_ref=abs(v) + efd / g.avr_ka, p_disp=pdisp_now,
        q_g=s_inj.imag, v_set=abs(v),
    )


# --------------------------------------------------------------------------
# mode switching
# --------------------------------------------------------------------------


def _machines_to_pv(case: GridCase, state: SystemState) -> None:
    """Turn every machine into a PV bus that holds its terminal voltage and
    output; an island without a source takes its frequency deviation from
    the machines' center of inertia."""
    for isl in state.islands:
        df = 0.0 if isl.sources else case.f_nominal * coi_speed(
            case, state, isl)
        state.df[isl.index] = df
        for gid in isl.machines:
            g = case.gen_by_id[gid]
            ms = state.mach[gid]
            v = state.v[case.bus_index[g.bus]]
            s_term = v * machine_injection(g, ms.delta, ms.eps_d, ms.eps_q,
                                           v).conjugate()
            ms.v_set = abs(v)
            ms.q_g = s_term.imag
            ms.agc = (s_term.real + (g.k_freq / case.f_nominal) * df
                      - state.pdisp_now(gid))
            ms.q_fixed = None


def _machines_from_pv(case: GridCase, state: SystemState) -> None:
    """Back-initialize every machine from its PV operating point, so the
    dynamic residual vanishes at the instant; it keeps its dispatch base."""
    for isl in state.islands:
        df = 0.0 if isl.sources else state.df[isl.index]
        for gid in isl.machines:
            g = case.gen_by_id[gid]
            ms = state.mach[gid]
            v = state.v[case.bus_index[g.bus]]
            p_inj = (state.pdisp_now(gid) + ms.agc
                     - (g.k_freq / case.f_nominal) * df)
            new = machine_init_from_terminal(g, v, complex(p_inj, ms.q_g), df,
                                             state.pdisp_now(gid),
                                             case.f_nominal)
            new.p_disp = ms.p_disp
            state.mach[gid] = new


def _enter_mode(case: GridCase, state: SystemState, mode: str) -> tuple:
    """Make ``mode`` the state's mode and its algebraic variables
    consistent with it at the instant.  Returns the mode's Built and the
    refined vector, the first segment's anchor."""
    state.mode = mode
    built = build_system(case, state)
    return built, refine_state(built, state)


def mode_switch(case: GridCase, state: SystemState, direction: str) -> tuple:
    """Convert every machine to its PV form (dyn->qss) or back-initialize
    it from its PV operating point (qss->dyn), and enter the new mode.

    This only converts; the scheduler decides when (dyn->qss after a
    passing steadiness verdict).  ``init_equilibrium`` leaves the power
    flow through the same conversions.  Returns the new mode's Built and
    its refined anchor (see ``_enter_mode``).
    """
    if direction == "dyn->qss":
        _machines_to_pv(case, state)
        return _enter_mode(case, state, QSS)
    if direction == "qss->dyn":
        _machines_from_pv(case, state)
        return _enter_mode(case, state, DYNAMIC)
    raise ValueError(f"unknown direction {direction!r}")


def fix_q_limits(case: GridCase, state: SystemState) -> list:
    """PV->PQ: fix each PV machine's reactive output that left its limits
    at the limit it crossed.  Returns (gen id, q) of every machine fixed."""
    fixed = []
    for isl in state.islands:
        for gid in isl.machines:
            g = case.gen_by_id[gid]
            ms = state.mach[gid]
            if ms.q_fixed is None and not (g.q_min <= ms.q_g <= g.q_max):
                ms.q_fixed = min(max(ms.q_g, g.q_min), g.q_max)
                fixed.append((gid, ms.q_fixed))
    return fixed


# --------------------------------------------------------------------------
# power flow and equilibrium initialization
# --------------------------------------------------------------------------


def solve_powerflow(case: GridCase) -> SystemState:
    """Holomorphic-embedding power flow from the no-load flat start, on a
    fresh state: an alpha build of the QSS model.

    Every machine is a PV bus and each island's slack bus is pinned.
    Injections and shunts are scaled with alpha and each PV row is blended
    from the flat |V|^2 to its v_set^2; at alpha = 0 the network floats at
    the slack voltage, at alpha = 1 the loaded solution is reached (or
    NoConvergenceAtAlpha1 if none exists).  The state starts at the flat
    profile: every energized bus at its island's flat voltage, every online
    motor there at its equilibrium slip, and every online machine a
    placeholder that dispatches its p_set with no reactive output.  It is
    left in QSS mode, each machine at its PV point: a pinned slack machine
    at S = V conj(I), I what its bus requires, the others at (p_set, q_g).
    """
    state = fresh_state(case)
    refresh_islands(case, state)
    live = [isl for isl in state.islands if isl.energized]
    if not live:
        return state  # everything is dark; nothing to solve
    for isl in live:
        vflat = island_flat_voltage(case, isl)
        for bus in isl.buses:
            state.v[case.bus_index[bus]] = vflat
        for gid in isl.machines:
            state.mach[gid] = MachineState(p_disp=case.gen_by_id[gid].p_set)
        for l in case.loads:
            if (l.motor is not None and l.load_id in state.load_online
                    and l.bus in isl.buses):
                state.slip[l.load_id] = motor_equilibrium_slip(l.motor, vflat)
    state.mode = QSS
    _alpha_solve(case, state, AlphaMods(kind=ALPHA_POWERFLOW))
    for isl in live:  # a pinned slack machine injects what its bus needs
        if isl.slack in isl.machines:
            bus = case.gen_by_id[isl.slack].bus
            s = _voltage(state, bus) * required_injection(
                case, state, bus).conjugate()
            ms = state.mach[isl.slack]
            ms.p_disp, ms.q_g = s.real, s.imag
    return state


def init_equilibrium(case: GridCase, mode: str = DYNAMIC) -> SystemState:
    """Power flow, left through ``_machines_from_pv`` (and ``_machines_to_pv``
    for a QSS start), so the mode's residual vanishes at t = 0."""
    try:
        state = solve_powerflow(case)
    except NoConvergenceAtAlpha1 as exc:
        raise PowerFlowInfeasible(str(exc)) from exc
    _machines_from_pv(case, state)
    if mode == QSS:
        _machines_to_pv(case, state)
    _enter_mode(case, state, mode)
    return state


# --------------------------------------------------------------------------
# switch operations (alpha-embedded instant events)
# --------------------------------------------------------------------------


def _require_status(online: set, what: str, key: str, adding: bool) -> None:
    """Adding an online element or cutting an offline one fails."""
    if (key in online) == adding:
        raise HesimError(f"{what} {key} is already "
                         f"{'online' if adding else 'offline'}")


def _alpha_solve(case: GridCase, state: SystemState, mods: AlphaMods) -> None:
    built = build_system(case, state, mods)
    # every known input is affine in alpha: two coefficients hold it all
    values = solve_alpha_problem(built.system, built.anchors(state),
                                 built.knowns(state, state.t),
                                 kind=mods.kind)
    write_back(built, values, state)


def apply_add_shunt(case: GridCase, state: SystemState, bus: int,
                    y: complex) -> None:
    """Connect a shunt admittance (also how faults are applied).

    A violent change (a bolted fault drives a voltage-magnitude auxiliary
    toward its branch point) takes several certified alpha stages.
    """
    _alpha_solve(case, state, AlphaMods(kind=ALPHA_PARAM, dy={(bus, bus): y}))
    state.extra_shunts[bus] = state.extra_shunts.get(bus, 0.0) + y
    if abs(state.extra_shunts[bus]) < 1e-14:
        del state.extra_shunts[bus]


def apply_branch_param(case: GridCase, state: SystemState, branch_id: str,
                       r: float, x: float,
                       b_sh: Optional[float] = None) -> None:
    """Instant change of a branch's parameters, alpha-blended from the old
    to the new admittance; without ``b_sh`` the branch keeps its present
    charging."""
    br = case.branch_by_id[branch_id]
    y0, b0 = branch_params(case, state.branch_overrides, branch_id)
    b_sh = b0 if b_sh is None else b_sh
    if branch_id in state.branch_online:
        _alpha_solve(case, state, AlphaMods(kind=ALPHA_PARAM, dy=branch_stamp(
            br.from_bus, br.to_bus, 1.0 / complex(r, x) - y0, b_sh - b0)))
    state.branch_overrides[branch_id] = (r, x, b_sh)


def _fade_out(case: GridCase, state: SystemState, what: str,
              draws: dict) -> None:
    """Fade a cut element out as the shunt draws[bus] / v, scaled by
    1 - alpha, at each bus it drew from that is still live."""
    dy_fade = {}
    for bus, i_draw in draws.items():
        if not state.energized[case.bus_index[bus]]:
            continue
        if abs(_voltage(state, bus)) < DEAD_VOLTAGE:
            raise ZeroBoundaryVoltage(f"{what} at bus {bus}")
        dy_fade[bus, bus] = i_draw / _voltage(state, bus)
    if dy_fade:
        _alpha_solve(case, state, AlphaMods(kind=ALPHA_CUT, dy_fade=dy_fade))


def _energize_through(case: GridCase, state: SystemState, branch_id: str,
                      live_bus: int, dead_bus: int) -> None:
    """Close a line into a de-energized island.

    The dead side reduces to a driving-point admittance at the live end
    (Schur complement of its passive network); that shunt is alpha-embedded,
    then the dead-side voltages follow from the passive solve.
    """
    y, b = branch_params(case, state.branch_overrides, branch_id)
    comp = next(isl.buses for isl in state.islands if dead_bus in isl.buses)
    pos = {bus: k for k, bus in enumerate(comp)}
    series, charging = build_admittance(case, state.branch_online,
                                        state.branch_overrides)
    ydd = np.diag([charging.get(bus, 0j) + state.extra_shunts.get(bus, 0.0)
                   for bus in comp])
    for (row, column), y_cell in series.items():
        if row in pos:
            ydd[pos[row], pos[column]] += y_cell
    d0 = pos[dead_bus]
    ydd[d0, d0] += y + 0.5j * b  # the new line seen from the dead end
    try:
        col = np.linalg.solve(ydd, np.eye(len(comp))[:, d0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceAtAlpha1(f"dead side of {branch_id}: {exc}") from exc
    y_eq = (y + 0.5j * b) - y * y * col[d0]
    _alpha_solve(case, state, AlphaMods(
        kind=ALPHA_ADD, dy={(live_bus, live_bus): y_eq}))
    v_live = state.v[case.bus_index[live_bus]]
    v_dead = np.linalg.solve(ydd, np.eye(len(comp))[:, d0] * y * v_live)
    for bus in comp:
        state.energized[case.bus_index[bus]] = True
        state.v[case.bus_index[bus]] = v_dead[pos[bus]]


def apply_add_branch(case: GridCase, state: SystemState,
                     branch_id: str) -> None:
    _require_status(state.branch_online, "branch", branch_id, True)
    br = case.branch_by_id[branch_id]
    f_live = state.energized[case.bus_index[br.from_bus]]
    t_live = state.energized[case.bus_index[br.to_bus]]
    if f_live and t_live:
        _alpha_solve(case, state, AlphaMods(kind=ALPHA_ADD, dy=branch_stamp(
            br.from_bus, br.to_bus,
            *branch_params(case, state.branch_overrides, branch_id))))
    elif f_live or t_live:
        live, dead = (br.from_bus, br.to_bus) if f_live \
            else (br.to_bus, br.from_bus)
        _energize_through(case, state, branch_id, live, dead)
    state.branch_online.add(branch_id)
    refresh_islands(case, state)


def apply_cut_branch(case: GridCase, state: SystemState,
                     branch_id: str) -> list:
    """Open a branch; source-less fragments collapse with the element.

    Returns the collapse log.
    """
    _require_status(state.branch_online, "branch", branch_id, False)
    br = case.branch_by_id[branch_id]
    y, b = branch_params(case, state.branch_overrides, branch_id)
    vf, vt = _voltage(state, br.from_bus), _voltage(state, br.to_bus)
    i_from = y * (vf - vt) + 0.5j * b * vf   # drawn into the element
    i_to = y * (vt - vf) + 0.5j * b * vt
    state.branch_online.discard(branch_id)
    collapsed = refresh_islands(case, state)
    _fade_out(case, state, f"branch {branch_id}",
              {br.from_bus: i_from, br.to_bus: i_to})
    return collapsed


def apply_add_load(case: GridCase, state: SystemState, load_id: str) -> None:
    _require_status(state.load_online, "load", load_id, True)
    l = case.load_by_id[load_id]
    if not state.energized[case.bus_index[l.bus]]:
        raise NoConvergenceAtAlpha1(f"bus {l.bus} is de-energized")
    state.load_online.add(load_id)
    if l.motor is not None:
        state.slip[load_id] = MOTOR_START_SLIP
    try:
        _alpha_solve(case, state, AlphaMods(
            kind=ALPHA_ADD, scale_devices={f"load:{load_id}"}))
    except NoConvergenceAtAlpha1:
        state.load_online.discard(load_id)
        state.slip.pop(load_id, None)
        raise


def apply_cut_load(case: GridCase, state: SystemState, load_id: str) -> None:
    _require_status(state.load_online, "load", load_id, False)
    l = case.load_by_id[load_id]
    v = _voltage(state, l.bus)
    if abs(v) < DEAD_VOLTAGE:
        # boundary voltage unusable for an equivalent shunt: fall back to
        # ramping the device's own current down with (1 - alpha)
        _alpha_solve(case, state, AlphaMods(
            kind=ALPHA_CUT, ramp_down_devices={f"load:{load_id}"}))
    else:
        i_draw = load_current(l, v, state.scale_now(load_id),
                              state.slip.get(load_id))
        state.load_online.discard(load_id)
        _fade_out(case, state, f"load {load_id}", {l.bus: i_draw})
    state.load_online.discard(load_id)
    state.slip.pop(load_id, None)


def apply_add_gen(case: GridCase, state: SystemState, gen_id: str) -> None:
    """Synchronize a machine at matched voltage (zero-exchange insertion)."""
    _require_status(state.gen_online, "generator", gen_id, True)
    g = case.gen_by_id[gen_id]
    bi = case.bus_index[g.bus]
    black_start = not state.energized[bi]
    if black_start:
        # the machine energizes its own bus, then closes its online
        # branches, all into dead buses, one by one
        ties = [br.branch_id for br in case.branches
                if br.branch_id in state.branch_online
                and g.bus in (br.from_bus, br.to_bus)]
        state.branch_online.difference_update(ties)
        state.v[bi], state.energized[bi] = g.v_set, True
    state.gen_online.add(gen_id)
    state.mach[gen_id] = machine_init_from_terminal(
        g, state.v[bi], 0.0 + 0.0j, 0.0, 0.0, case.f_nominal)
    refresh_islands(case, state)
    if black_start:
        for branch_id in ties:
            apply_add_branch(case, state, branch_id)
        return
    try:
        _alpha_solve(case, state, AlphaMods(
            kind=ALPHA_ADD, scale_devices={f"gen:{gen_id}"}))
    except NoConvergenceAtAlpha1:
        state.gen_online.discard(gen_id)
        state.mach.pop(gen_id, None)
        refresh_islands(case, state)
        raise


def apply_cut_gen(case: GridCase, state: SystemState, gen_id: str) -> list:
    _require_status(state.gen_online, "generator", gen_id, False)
    g = case.gen_by_id[gen_id]
    v = _voltage(state, g.bus)
    ms = state.mach.get(gen_id)
    i_inj = machine_injection(g, ms.delta, ms.eps_d, ms.eps_q, v) \
        if ms is not None else 0.0 + 0.0j
    state.gen_online.discard(gen_id)
    state.mach.pop(gen_id, None)
    collapsed = refresh_islands(case, state)
    _fade_out(case, state, f"generator {gen_id}", {g.bus: -i_inj})
    return collapsed
