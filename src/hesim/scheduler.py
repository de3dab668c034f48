"""Event-driven simulation: segments, events, and dynamic/QSS mode switching.

The loop alternates analytic segments with instantaneous events.  Segments
never straddle an event: timed events bound the step, condition-triggered
events are localized on the analytic trajectory (one scan of all pending
triggers per segment, a root solve only for the earliest bracket) and the
segment is truncated there.  After every dynamic segment in hybrid mode
the steady-state criteria run on the segment's coefficients, and a passing
verdict converts the machines to the QSS representation; any switching event
while in QSS converts back first.
"""

from __future__ import annotations

import logging
import math
import re
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model as mdl
from .bounds import SteadyStateVerdict, steady_state_check
from .engine import SegmentSolution, solve_segment
from .errors import (
    AnchorInconsistent,
    HesimError,
    NotSteady,
    NoValidRange,
    SegmentFailure,
    SingularJacobian,
)
from .grid import GridCase
from .model import (
    DYNAMIC,
    QSS,
    Built,
    SystemState,
    build_system,
    coi_speed,
    init_equilibrium,
    machine_terminal_power,
    refine_state,
    write_back,
)
from .series import batch_pade, bracketed_root

HYBRID = "hybrid"

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    mode: str = HYBRID            # hybrid | dynamic | qss
    order: int = 15               # series order N (4..40)
    eps_t: float = 1e-3           # steady-state threshold, per-unit/s
    tol_res: float = 1e-6         # residual certificate tolerance
    dt_out: float = 0.1
    t_end: float = 10.0
    event_tol: float = 1e-6       # conditional-event root tolerance
    dwell: float = 1.0            # min dynamic time before re-checking steadiness
    max_step_dyn: float = 1.0
    max_step_qss: float = 30.0
    step_safety: float = 0.8

    def __post_init__(self):
        if self.mode not in (HYBRID, DYNAMIC, QSS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.order < 4 or self.order > 40:
            raise ValueError("series order must be in 4..40")
        if self.eps_t <= 0:
            raise ValueError("eps_t must be positive")


# --------------------------------------------------------------------------
# events
# --------------------------------------------------------------------------

SWITCH_KINDS = {"add_branch", "cut_branch", "add_load", "cut_load",
                "add_gen", "cut_gen", "add_shunt", "param_branch"}
RAMP_KINDS = {"ramp_load", "ramp_stop_load", "ramp_gen", "ramp_stop_gen"}


@dataclass
class SimEvent:
    kind: str
    t_due: Optional[float] = None         # timed events
    condition: Optional["Condition"] = None   # condition-triggered events
    payload: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if (self.t_due is None) == (self.condition is None):
            raise ValueError("event needs exactly one of time or condition")
        if self.t_due is not None and not math.isfinite(self.t_due):
            raise ValueError("timed events need a finite due time")


@dataclass
class EventRecord:
    t: float
    kind: str
    label: str
    info: dict = field(default_factory=dict)


_COND_RE = re.compile(
    r"^\s*(?P<chan>[A-Za-z]+)\s*(\(\s*(?P<args>[-\w\s,\.]*)\s*\))?\s*"
    r"(?P<op>[<>]=?)\s*(?P<rhs>[-+0-9eE\.]+)\s*$")


@dataclass
class Condition:
    """Trigger h(x(t), y(t), p(t)) >= 0 built from a comparison expression.

    Channels: V(bus), I(from,to) or I(branch id), f, t, omega(gen).  The
    trigger fires when the comparison becomes true, so ``h(lhs)`` maps the
    channel's values lhs to lhs - rhs for '>' and rhs - lhs for '<'.
    """
    text: str
    channel: str
    args: tuple
    op: str
    rhs: float

    @classmethod
    def parse(cls, text: str) -> "Condition":
        m = _COND_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse condition {text!r}")
        chan = m.group("chan")
        raw = m.group("args")
        args: tuple = ()
        if raw:
            args = tuple(a.strip() for a in raw.split(",") if a.strip())
        return cls(text=text, channel=chan, args=args, op=m.group("op"),
                   rhs=float(m.group("rhs")))

    def h(self, lhs):
        return lhs - self.rhs if self.op.startswith(">") else self.rhs - lhs


# --------------------------------------------------------------------------
# trajectory
# --------------------------------------------------------------------------


@dataclass
class SegmentRecord:
    t0: float
    step: float
    mode: str
    sol: SegmentSolution
    built: Built
    case: GridCase
    branch_params: dict          # branch_id -> (y_series, b_sh) online snapshot

    @property
    def t1(self) -> float:
        return self.t0 + self.step

    def _val(self, name: str, tau):
        idx = self.built.system.index
        if name in idx:
            return self.sol.value(name, tau)
        return np.full_like(np.atleast_1d(np.asarray(tau, float)), np.nan) \
            if np.ndim(tau) else math.nan

    def channel(self, chan: str, args: tuple, tau):
        """Evaluate an output channel at segment-local time(s)."""
        case = self.case
        idx = self.built.system.index
        if chan == "t":
            return self.t0 + np.asarray(tau, float)
        if chan == "V":
            bus = int(args[0])
            if f"vx:{bus}" not in idx:
                return np.zeros_like(np.asarray(tau, float))
            vx = self.sol.value(f"vx:{bus}", tau)
            vy = self.sol.value(f"vy:{bus}", tau)
            return np.hypot(vx, vy)
        if chan == "I":
            br, f_bus, t_bus = case.branch_ends(args)
            if br.branch_id not in self.branch_params:  # offline: no current
                return np.zeros_like(np.asarray(tau, float))
            y, b = self.branch_params[br.branch_id]
            vf = (self.sol.value(f"vx:{f_bus}", tau)
                  + 1j * self.sol.value(f"vy:{f_bus}", tau))
            vt = (self.sol.value(f"vx:{t_bus}", tau)
                  + 1j * self.sol.value(f"vy:{t_bus}", tau))
            return np.abs(y * (vf - vt) + 0.5j * b * vf)
        if chan == "f":
            return self._frequency(tau)
        if chan == "omega":
            gid = args[0]
            if self.mode == QSS:
                isl = self._island_of_gen(gid)
                name = f"df:{isl.index}" if isl is not None else None
                if name and name in idx:
                    return self.sol.value(name, tau) / case.f_nominal
                return np.zeros_like(np.asarray(tau, float))
            return self._val(f"omega:{gid}", tau)
        if chan == "delta":
            return self._val(f"delta:{args[0]}", tau)
        if chan == "pg":
            return self._gen_power(args[0], tau)
        raise KeyError(f"unknown channel {chan!r}")

    def _island_of_gen(self, gid: str):
        for isl in self.built.islands:
            if gid in isl.machines or gid in isl.sources:
                return isl
        return None

    def _main_island(self):
        best = None
        for isl in self.built.islands:
            key = min([self.case.gen_by_id[g].bus
                       for g in isl.machines + isl.sources], default=10 ** 9)
            if best is None or key < best[0]:
                best = (key, isl)
        return best[1] if best else None

    def _frequency(self, tau):
        case = self.case
        isl = self._main_island()
        shape = np.zeros_like(np.asarray(tau, float))
        if isl is None:
            return shape + case.f_nominal
        if self.mode == QSS:
            name = f"df:{isl.index}"
            if name in self.built.system.index:
                return case.f_nominal + self.sol.value(name, tau)
            return shape + case.f_nominal
        if not isl.machines:
            return shape + case.f_nominal
        h_tot = sum(case.gen_by_id[g].h for g in isl.machines)
        acc = shape.copy()
        for gid in isl.machines:
            acc = acc + (case.gen_by_id[gid].h / h_tot) \
                * self.sol.value(f"omega:{gid}", tau)
        return case.f_nominal * (1.0 + acc)

    def _gen_power(self, gid: str, tau):
        case = self.case
        idx = self.built.system.index
        if self.mode == QSS:
            if f"pagc:{gid}" not in idx:
                return np.full_like(np.asarray(tau, float), np.nan)
            pagc = self.sol.value(f"pagc:{gid}", tau)
            kpos = dict((n, i) for i, (n, _) in
                        enumerate(self.built.known_specs))
            pd = 0.0
            if f"pdisp:{gid}" in kpos:
                krow = self.sol.kcoeffs[kpos[f"pdisp:{gid}"]]
                pd = np.polynomial.polynomial.polyval(
                    np.asarray(tau, float), krow)
            g = case.gen_by_id[gid]
            isl = self._island_of_gen(gid)
            dfv = 0.0
            if isl is not None and f"df:{isl.index}" in idx:
                dfv = self.sol.value(f"df:{isl.index}", tau)
            return pd + pagc - (g.k_freq / case.f_nominal) * dfv
        if f"id:{gid}" not in idx:
            return np.full_like(np.asarray(tau, float), np.nan)
        g = case.gen_by_id[gid]
        i_d = self.sol.value(f"id:{gid}", tau)
        i_q = self.sol.value(f"iq:{gid}", tau)
        s = self.sol.value(f"sind:{gid}", tau)
        c = self.sol.value(f"cosd:{gid}", tau)
        vx = self.sol.value(f"vx:{g.bus}", tau)
        vy = self.sol.value(f"vy:{g.bus}", tau)
        ix = i_d * s + i_q * c
        iy = -i_d * c + i_q * s
        return vx * ix + vy * iy


@dataclass
class Trajectory:
    case: GridCase
    segments: list = field(default_factory=list)
    events: list = field(default_factory=list)
    failure: Optional[str] = None
    wall_time: float = 0.0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0

    def qss_time(self) -> float:
        return sum(s.step for s in self.segments if s.mode == QSS)

    def qss_fraction(self) -> float:
        total = sum(s.step for s in self.segments)
        return self.qss_time() / total if total > 0 else 0.0

    def segment_counts(self) -> dict:
        out: dict = {}
        for s in self.segments:
            out[s.mode] = out.get(s.mode, 0) + 1
        return out

    def record_for(self, t: float) -> SegmentRecord:
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.segments[mid].t1 < t - 1e-12:
                lo = mid + 1
            else:
                hi = mid
        return self.segments[lo]

    def channel(self, chan: str, args: tuple, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ends = np.array([s.t1 for s in self.segments])
        ks = np.minimum(np.searchsorted(ends, ts - 1e-12), len(ends) - 1)
        return self.sample([(chan, args)], ts, ks)[0]

    def sample(self, chans: list, ts: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Channels x times, time i evaluated on segment ks[i].

        Times are grouped by segment, so each segment evaluates each
        channel once, for the vector of its local times.
        """
        out = np.full((len(chans), len(ts)), np.nan)
        for k in np.unique(ks):
            at = np.flatnonzero(ks == k)
            rec = self.segments[k]
            tau = np.clip(ts[at] - rec.t0, 0.0, rec.step)
            for c, (chan, args) in enumerate(chans):
                out[c, at] = rec.channel(chan, args, tau)
        return out

    def sample_times(self, dt: float) -> np.ndarray:
        n = int(math.floor(self.t_end / dt + 1e-9))
        ts = np.arange(n + 1) * dt
        if ts[-1] < self.t_end - 1e-9:
            ts = np.append(ts, self.t_end)
        return ts


# --------------------------------------------------------------------------
# conditional-event localization
# --------------------------------------------------------------------------


def locate_conditional_event(rec: SegmentRecord, conds: list,
                             window: float, tol: float = 1e-6):
    """Earliest trigger root on [0, window]: (index into conds, tau) or None.

    One scan finds every trigger's first sign change on 65 points; only the
    triggers bracketed in the earliest subinterval are refined (ITP, to
    ``tol``), as a later bracket holds no earlier root.  Ties go to the
    first in list order; NaN never brackets.
    """
    taus = np.linspace(0.0, window, 65)
    lhs = {key: rec.channel(*key, taus)
           for key in dict.fromkeys((c.channel, c.args) for c in conds)}
    hs = np.reshape([c.h(lhs[c.channel, c.args]) for c in conds], (-1, 65))
    a, b = hs[:, :-1], hs[:, 1:]
    brackets = ((a < 0.0) & (b >= 0.0)) | ((a > 0.0) & (b <= 0.0))
    first = np.where(brackets.any(axis=1), brackets.argmax(axis=1), 64)
    first[hs[:, 0] >= 0.0] = -1
    k = int(first.min(initial=64))
    if k == 64:
        return None
    rows = np.flatnonzero(first == k)
    best, refined = ((int(rows[0]), 0.0), 0) if k < 0 else (None, len(rows))
    for i in rows[:refined]:
        c = conds[i]
        tau = bracketed_root(
            lambda x: float(c.h(rec.channel(c.channel, c.args, x))),
            taus[k], taus[k + 1], xtol=tol)
        if best is None or tau < best[1]:
            best = (int(i), tau)
    log.info("conditional event at t=%.9g: %s (%d triggers scanned, "
             "%d refined)", rec.t0 + best[1], conds[best[0]].text,
             len(conds), refined)
    return best


# --------------------------------------------------------------------------
# mode switching
# --------------------------------------------------------------------------


def steadiness_verdict(case: GridCase, state: SystemState, built: Built,
                       seg: SegmentSolution, eps_t: float) -> SteadyStateVerdict:
    """Assemble the monitored-variable table and run the rate criteria.

    Monitored, over all islands: machine speeds, internal potentials, AVR
    and governor states (rows of the segment as solved), rotor angles
    relative to their island's reference angle (all angles drift together
    with the center of inertia even in steady state) and squared bus-voltage
    magnitudes.  The derived rows get their Pade in one call.
    """
    idx = built.system.index
    order = seg.C.shape[1] - 1
    half = order // 2
    plain = list(built.monitored_plain)
    angles, refs = [], []
    for isl in built.islands:
        ref = built.angle_ref.get(isl.index)
        for gid, name in built.monitored_angles.items():
            if gid not in isl.machines:
                continue
            if ref is None:  # no reference: the absolute angle
                plain.append(name)
            else:
                angles.append(name)
                refs.append(idx[ref])
    buses = [b for isl in built.islands for b in isl.buses
             if f"vx:{b}" in idx]
    vx = seg.C[[idx[f"vx:{b}"] for b in buses]]
    vy = seg.C[[idx[f"vy:{b}"] for b in buses]]
    # V^2 = vx^2 + vy^2 truncated at the series order, all buses at once
    vsq = np.zeros_like(vx)
    for j in range(order + 1):
        vsq[:, j:] += (vx[:, j, None] * vx[:, : order + 1 - j]
                       + vy[:, j, None] * vy[:, : order + 1 - j])
    derived = np.concatenate([seg.C[[idx[n] for n in angles]] - seg.C[refs],
                              vsq])
    nums, dens = batch_pade(derived, half, half)
    rows = [idx[n] for n in plain]
    names = plain + angles + [f"vsq:{b}" for b in buses]
    delta_ps, delta_pa, steady = steady_state_check(
        np.concatenate([seg.C[rows], derived]),
        np.concatenate([seg.pade_num[rows], nums]),
        np.concatenate([seg.pade_den[rows], dens]), seg.t_e, eps_t)
    verdict = SteadyStateVerdict(names, delta_ps, delta_pa, steady, eps_t)
    if not verdict.system_steady and log.isEnabledFor(logging.DEBUG):
        bad = np.flatnonzero(~steady)
        pa = ["undefined" if np.isnan(d) else f"{d:.3g}"
              for d in delta_pa[bad[:5]]]
        log.debug("not steady at t=%.9g: %d of %d rows: %s", state.t,
                  len(bad), len(names), ", ".join(
                      f"{names[i]} (PS {delta_ps[i]:.3g}, PA {p})"
                      for i, p in zip(bad, pa)))
    return verdict


def mode_switch(case: GridCase, state: SystemState, direction: str,
                verdict: Optional[SteadyStateVerdict] = None) -> None:
    """Convert machines to PV/QSS form (dyn->qss) or back (qss->dyn).

    dyn->qss demands a passing steady-state verdict; the reverse direction
    back-initializes every machine from its PV operating point so the
    dynamic residual vanishes at the instant.
    """
    if direction == "dyn->qss":
        if state.mode != DYNAMIC:
            raise HesimError("not in dynamic mode")
        if verdict is None or not verdict.system_steady:
            raise NotSteady("dynamic-to-QSS switch without a steady verdict")
        for isl in state.islands:
            if not isl.energized:
                continue
            df = 0.0 if isl.sources else case.f_nominal * coi_speed(
                case, state, isl)
            state.df[isl.index] = df
            for gid in isl.machines:
                g = case.gen_by_id[gid]
                ms = state.mach[gid]
                s_term = machine_terminal_power(case, state, gid)
                ms.v_set = abs(state.v[case.bus_index[g.bus]])
                ms.q_g = s_term.imag
                ms.agc = (s_term.real + (g.k_freq / case.f_nominal) * df
                          - state.pdisp_now(gid))
                ms.q_fixed = None
        state.mode = QSS
        state.bump()
        built = build_system(case, state, QSS)
        refine_state(built, case, state)
    elif direction == "qss->dyn":
        if state.mode != QSS:
            raise HesimError("not in QSS mode")
        for isl in state.islands:
            if not isl.energized:
                continue
            df = 0.0 if isl.sources else state.df.get(isl.index, 0.0)
            for gid in isl.machines:
                g = case.gen_by_id[gid]
                ms = state.mach[gid]
                ms.q_fixed = None  # the AVR takes over again
                v = state.v[case.bus_index[g.bus]]
                p_inj = (state.pdisp_now(gid) + ms.agc
                         - (g.k_freq / case.f_nominal) * df)
                s_inj = complex(p_inj, ms.q_g)
                base = ms.p_disp
                new = mdl.machine_init_from_terminal(
                    g, v, s_inj, df, state.pdisp_now(gid), case.f_nominal)
                new.p_disp = base
                new.v_set = ms.v_set
                state.mach[gid] = new
        state.mode = DYNAMIC
        state.last_dyn_entry = state.t
        state.bump()
        built = build_system(case, state, DYNAMIC)
        refine_state(built, case, state)
    else:
        raise ValueError(f"unknown direction {direction!r}")


# --------------------------------------------------------------------------
# the simulation driver
# --------------------------------------------------------------------------


def _execute_event(case, state, ev: SimEvent, t: float,
                   traj: Trajectory, config: RunConfig) -> bool:
    """Run one event at time t. Returns False when the run must stop."""
    info: dict = {}
    if ev.kind in SWITCH_KINDS and state.mode == QSS:
        mode_switch(case, state, "qss->dyn")
        traj.events.append(EventRecord(t, "mode_switch", "qss->dyn",
                                       {"cause": ev.kind}))
    p = ev.payload
    if ev.kind == "stop":
        traj.events.append(EventRecord(t, ev.kind, ev.label, info))
        return False
    if ev.kind == "record":
        pass
    elif ev.kind == "add_branch":
        mdl.apply_add_branch(case, state, p["branch"])
    elif ev.kind == "cut_branch":
        info["collapsed"] = mdl.apply_cut_branch(case, state, p["branch"])
    elif ev.kind == "add_load":
        mdl.apply_add_load(case, state, p["load"])
    elif ev.kind == "cut_load":
        mdl.apply_cut_load(case, state, p["load"])
    elif ev.kind == "add_gen":
        mdl.apply_add_gen(case, state, p["gen"])
    elif ev.kind == "cut_gen":
        info["collapsed"] = mdl.apply_cut_gen(case, state, p["gen"])
    elif ev.kind == "add_shunt":
        mdl.apply_add_shunt(case, state, int(p["bus"]),
                            complex(p["g"], p["b"]))
    elif ev.kind == "param_branch":
        mdl.apply_branch_param(case, state, p["branch"], p["r"], p["x"],
                             p.get("b", 0.0))
    elif ev.kind == "ramp_load":
        state.ramps.append(mdl.Ramp(f"load:{p['load']}", p["rate"], t))
    elif ev.kind == "ramp_stop_load":
        lid = p["load"]
        for r in list(state.ramps):
            if r.target == f"load:{lid}":
                state.load_scale[lid] += r.rate * (t - r.t_start)
                state.ramps.remove(r)
    elif ev.kind == "ramp_gen":
        state.ramps.append(mdl.Ramp(f"gen:{p['gen']}", p["rate"], t))
    elif ev.kind == "ramp_stop_gen":
        gid = p["gen"]
        for r in list(state.ramps):
            if r.target == f"gen:{gid}":
                state.mach[gid].p_disp += r.rate * (t - r.t_start)
                state.ramps.remove(r)
    else:
        raise ValueError(f"unknown event kind {ev.kind!r}")
    if ev.kind in SWITCH_KINDS:
        state.last_dyn_entry = t
    traj.events.append(EventRecord(t, ev.kind, ev.label, info))
    return True


def _solve_with_ladder(built, state, t, order, kind, tol_res, t_max):
    """Retry ladder: higher order, then two step halvings."""
    attempts = ((order, t_max), (order + 10, t_max),
                (order + 10, t_max / 2), (order + 10, t_max / 4))
    last = None
    for n, tm in attempts:
        try:
            return solve_segment(built.system, built.anchors(state),
                                 built.knowns(state, t, n + 1), n, kind,
                                 tol_res, tm)
        except (NoValidRange, SingularJacobian, AnchorInconsistent) as exc:
            last = exc
    raise SegmentFailure(f"segment at t={t:.6f}: {last}", time=t)


def run_simulation(case: GridCase, script: list, config: RunConfig,
                   state: Optional[SystemState] = None) -> Trajectory:
    """Event-driven extended-term simulation; returns the piecewise
    trajectory (partial, with a failure record, if a segment fails)."""
    wall0 = _time.perf_counter()
    traj = Trajectory(case)
    if state is None:
        start_mode = QSS if config.mode == QSS else DYNAMIC
        state = init_equilibrium(case, mode=start_mode)
    timed = sorted([e for e in script if e.t_due is not None],
                   key=lambda e: e.t_due)
    conditional = [e for e in script if e.condition is not None]
    built_cache: dict = {}

    def built_for(mode):
        key = (mode, state.epoch)
        if key not in built_cache:
            built_cache.clear()
            built_cache[key] = build_system(case, state, mode)
        return built_cache[key]

    t = 0.0
    state.t = 0.0
    running = True
    try:
        while running and t < config.t_end - 1e-9:
            while timed and timed[0].t_due <= t + 1e-9:
                ev = timed.pop(0)
                running = _execute_event(case, state, ev, t, traj, config)
                if not running:
                    break
            if not running:
                break
            t_next = min(config.t_end,
                         timed[0].t_due if timed else config.t_end)
            gap = t_next - t
            if gap <= 1e-9:
                continue
            mode = state.mode
            cap = config.max_step_dyn if mode == DYNAMIC else config.max_step_qss
            built = built_for(mode)
            seg = _solve_with_ladder(built, state, t, config.order,
                                     "TIME_DYNAMIC" if mode == DYNAMIC
                                     else "TIME_QSS", config.tol_res,
                                     min(gap, cap))
            step = gap if seg.t_e >= gap - 1e-12 else config.step_safety * seg.t_e
            step = min(step, gap)

            rec = SegmentRecord(
                t0=t, step=step, mode=mode, sol=seg, built=built, case=case,
                branch_params={bid: mdl._branch_params(case, state, bid)[1:]
                               for bid in state.branch_online},
            )

            hit = conditional and locate_conditional_event(
                rec, [ev.condition for ev in conditional], step,
                config.event_tol)
            if hit:
                step = rec.step = hit[1]

            traj.segments.append(rec)
            values = seg.values_at(step)
            write_back(built, values, case, state)
            t = t + step
            state.t = t
            try:
                refine_state(built, case, state)
            except (AnchorInconsistent, SingularJacobian) as exc:
                raise SegmentFailure(
                    f"state refinement at t={t:.6f}: {exc}", time=t) from exc

            if mode == QSS:
                # reactive limits are enforced by PV->PQ switching between
                # segments only, never inside one
                for isl in built.islands:
                    for gid in isl.machines:
                        g = case.gen_by_id[gid]
                        ms = state.mach[gid]
                        if ms.q_fixed is None and not \
                                (g.q_min <= ms.q_g <= g.q_max):
                            ms.q_fixed = min(max(ms.q_g, g.q_min), g.q_max)
                            state.bump()
                            traj.events.append(EventRecord(
                                t, "q_limit", gid, {"q": ms.q_fixed}))

            if hit:
                ev = conditional.pop(hit[0])
                traj.events.append(EventRecord(
                    t, "conditional", ev.condition.text, {"resolved_t": t}))
                running = _execute_event(case, state, ev, t, traj, config)
                continue

            if (config.mode == HYBRID and mode == DYNAMIC
                    and t - state.last_dyn_entry >= config.dwell - 1e-9
                    and any(isl.machines for isl in built.islands)):
                verdict = steadiness_verdict(case, state, built, seg,
                                             config.eps_t)
                if verdict.system_steady:
                    mode_switch(case, state, "dyn->qss", verdict)
                    traj.events.append(EventRecord(
                        t, "mode_switch", "dyn->qss",
                        {"verdict": verdict}))
    except SegmentFailure as exc:
        traj.failure = str(exc)
        traj.events.append(EventRecord(t, "failure", str(exc), {}))
    traj.wall_time = _time.perf_counter() - wall0
    return traj
