"""Event-driven simulation: segments, events, and when to switch between
dynamic and QSS mode.

The loop alternates analytic segments with instantaneous events.  Timed
events bound the step; condition-triggered events are localized on the
analytic trajectory, all pending triggers of a segment in one pass.
``record`` triggers are read off their segment in time order; the first
other trigger truncates the segment there.  After every dynamic segment
in hybrid mode the steady-state criteria run on its coefficients, and a
passing verdict switches to QSS; any switching event while in QSS switches
back first.  This module keeps time, events, triggers and the steadiness
policy; ``hesim.model`` makes every change of the runtime state (a switch,
a mode switch, a reactive limit, a ramp) and reads every output channel.
"""

from __future__ import annotations

import logging
import math
import re
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import model as mdl
from .bounds import SteadyStateVerdict, steady_state_check
from .engine import SegmentSolution, solve_segment
from .errors import HesimError
from .grid import GridCase
from .model import (
    CHANNEL_ARGS,
    DYNAMIC,
    QSS,
    Built,
    SystemState,
    build_system,
    init_equilibrium,
    mode_switch,
    refine_state,
)
from .series import batch_pade, bracketed_roots, diagonal_orders

HYBRID = "hybrid"
DWELL = 1.0          # least dynamic time before steadiness is checked again
MAX_STEP_DYN = 1.0   # longest dynamic segment, s
MAX_STEP_QSS = 30.0  # longest QSS segment, s
EVENT_TOL = 1e-6     # conditional-event root tolerance, s

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    mode: str = HYBRID            # hybrid | dynamic | qss
    order: int = 20               # series order N (4..40)
    eps_t: float = 1e-3           # steady-state threshold, per-unit/s
    tol_res: float = 1e-6         # residual certificate tolerance
    dt_out: float = 0.1
    t_end: float = 10.0

    def __post_init__(self):
        if self.mode not in (HYBRID, DYNAMIC, QSS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.order < 4 or self.order > 40:
            raise ValueError("series order must be in 4..40")
        for name in ("eps_t", "tol_res", "dt_out", "t_end"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")


# --------------------------------------------------------------------------
# events
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EventKind:
    """One scripted event kind.  ``needs`` and ``optional`` are its payload
    keys: a bus, branch, load or gen key names an element of the case, any
    other key is a number.  A ``switch`` changes the network through an
    alpha continuation, which runs in dynamic mode.  ``action(case, state,
    payload, t)`` applies the event and may return its record's info."""
    needs: tuple = ()
    optional: tuple = ()
    switch: bool = False
    action: Optional[Callable] = None


EVENTS = {
    "add_branch": EventKind(("branch",), switch=True, action=lambda c, s, p, t:
                            mdl.apply_add_branch(c, s, p["branch"])),
    "cut_branch": EventKind(("branch",), switch=True, action=lambda c, s, p, t:
                            {"collapsed": mdl.apply_cut_branch(
                                c, s, p["branch"])}),
    "param_branch": EventKind(("branch", "r", "x"), ("b",), switch=True,
                              action=lambda c, s, p, t: mdl.apply_branch_param(
                                  c, s, p["branch"], p["r"], p["x"],
                                  p.get("b"))),
    "add_shunt": EventKind(("bus", "g", "b"), switch=True,
                           action=lambda c, s, p, t: mdl.apply_add_shunt(
                               c, s, int(p["bus"]), complex(p["g"], p["b"]))),
    "add_load": EventKind(("load",), switch=True, action=lambda c, s, p, t:
                          mdl.apply_add_load(c, s, p["load"])),
    "cut_load": EventKind(("load",), switch=True, action=lambda c, s, p, t:
                          mdl.apply_cut_load(c, s, p["load"])),
    "add_gen": EventKind(("gen",), switch=True, action=lambda c, s, p, t:
                         mdl.apply_add_gen(c, s, p["gen"])),
    "cut_gen": EventKind(("gen",), switch=True, action=lambda c, s, p, t:
                         {"collapsed": mdl.apply_cut_gen(c, s, p["gen"])}),
    "ramp_load": EventKind(("load", "rate"), action=lambda c, s, p, t:
                           s.start_ramp("load", p["load"], p["rate"], t)),
    "ramp_stop_load": EventKind(("load",), action=lambda c, s, p, t:
                                s.stop_ramps("load", p["load"], t)),
    "ramp_gen": EventKind(("gen", "rate"), action=lambda c, s, p, t:
                          s.start_ramp("gen", p["gen"], p["rate"], t)),
    "ramp_stop_gen": EventKind(("gen",), action=lambda c, s, p, t:
                               s.stop_ramps("gen", p["gen"], t)),
    "record": EventKind(),
    "stop": EventKind(),
}

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
        if self.kind not in EVENTS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        kind = EVENTS[self.kind]
        for key in kind.needs:
            if key not in self.payload:
                raise ValueError(f"{self.kind} needs {key}=")
        for key in self.payload:
            if key not in kind.needs + kind.optional:
                raise ValueError(f"{self.kind} takes no {key}=")

    def __str__(self) -> str:
        """The event as its case-file line names it: kind, payload, name."""
        name = (f" name={self.label}" if self.label not in ("", self.kind)
                else "")
        return " ".join([self.kind] + [f"{k}={v}" for k, v in
                                       self.payload.items()]) + name


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

    Channels: V(bus), I(from,to) or I(branch id), f, t, omega(gen),
    delta(gen) and pg(gen).  The trigger fires when the comparison becomes
    true, so ``h(lhs)`` maps the channel's values lhs to lhs - rhs for '>'
    and rhs - lhs for '<'.
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
        if chan not in CHANNEL_ARGS:
            raise ValueError(f"unknown channel {chan!r}")
        need = CHANNEL_ARGS[chan]
        if need is not None and len(args) != len(need):
            raise ValueError(f"{chan} takes {len(need)} argument(s), "
                             f"not {len(args)}")
        rhs = float(m.group("rhs"))
        if not math.isfinite(rhs):
            raise ValueError(f"threshold {m.group('rhs')!r} is not finite")
        return cls(text=text, channel=chan, args=args, op=m.group("op"),
                   rhs=rhs)

    def h(self, lhs):
        return lhs - self.rhs if self.op.startswith(">") else self.rhs - lhs


# --------------------------------------------------------------------------
# trajectory
# --------------------------------------------------------------------------


@dataclass
class SegmentRecord:
    t0: float
    step: float  # the certified range, end point probed, or up to a trigger
    sol: SegmentSolution
    built: Built
    limiter: str  # what ended the step: gap, residual, cap, pole or trigger

    @property
    def mode(self) -> str:
        return self.built.mode

    @property
    def t1(self) -> float:
        return self.t0 + self.step

    def channels(self, chans: tuple, tau) -> np.ndarray:
        """Channels x times (tau 1-D, segment-local) from one evaluation."""
        return self.built.channel_map.apply(
            chans, self.sol.evaluate(tau), self.t0 + tau)

    def channel(self, chan: str, args: tuple, tau):
        """Evaluate an output channel at segment-local time(s)."""
        tt = np.asarray(tau, dtype=float)
        out = self.channels(((chan, tuple(args)),), tt.reshape(-1))[0]
        return out.reshape(tt.shape)[()]


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

    def segment_index(self, ts):
        """The segment each time reads: the last one starting at or before
        it (else the first), so an event instant reads the segment after
        the event.  The written trajectory and ``hesim compare`` sample
        through ``sample`` with this rule."""
        starts = np.array([s.t0 for s in self.segments])
        return np.clip(np.searchsorted(starts, np.asarray(ts) + 1e-12) - 1,
                       0, len(starts) - 1)

    def sample(self, chans: list, ts: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Channels x times, time i evaluated on segment ks[i].

        Times are grouped by segment, so each segment evaluates its rows
        once, for the vector of its local times.
        """
        chans = tuple((chan, tuple(args)) for chan, args in chans)
        out = np.full((len(chans), len(ts)), np.nan)
        for k in sorted(set(ks.tolist())):
            at = np.flatnonzero(ks == k)
            rec = self.segments[k]
            out[:, at] = rec.channels(
                chans, np.clip(ts[at] - rec.t0, 0.0, rec.step))
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
                             tol: float = EVENT_TOL) -> list:
    """Every trigger's first root on [0, rec.step], in time order: a list
    of (index into conds, tau), ties in list order.  A trigger already true
    at 0 fires there; NaN never brackets.  One scan of 65 points finds each
    trigger's first sign change, and one batched ITP solve, started from the
    scan's values at its ends, refines every bracket to ``tol``.
    """
    taus = np.linspace(0.0, rec.step, 65)
    keys = tuple(dict.fromkeys((c.channel, c.args) for c in conds))
    col = np.array([keys.index((c.channel, c.args)) for c in conds], int)
    sign, th = np.array([(1.0 if c.op.startswith(">") else -1.0, c.rhs)
                         for c in conds]).reshape(-1, 2).T

    def h(k, x):  # Condition.h's bits at points x: -(l - r) == r - l
        return sign[k] * (rec.channels(keys, x)[col[k], range(len(x))] - th[k])
    hs = h(np.arange(len(conds))[:, None], taus)
    a, b = hs[:, :-1], hs[:, 1:]
    brackets = ((a < 0.0) & (b >= 0.0)) | ((a > 0.0) & (b <= 0.0))
    first = np.where(brackets.any(axis=1), brackets.argmax(axis=1), 64)
    first[hs[:, 0] >= 0.0] = -1
    tau = np.zeros(len(conds))
    rows = np.flatnonzero((first >= 0) & (first < 64))
    if len(rows):
        ends = first[rows] + np.array([[0], [1]])  # scan points, 2 x brackets
        tau[rows] = bracketed_roots(lambda i, x: h(rows[i], x), *taus[ends],
                                    tol, hs[rows, ends])
    hits = np.flatnonzero(first < 64)
    return [(int(i), float(tau[i]))
            for i in hits[np.argsort(tau[hits], kind="stable")]]


# --------------------------------------------------------------------------
# steadiness verdict
# --------------------------------------------------------------------------


def steadiness_verdict(state: SystemState, built: Built, seg: SegmentSolution,
                       C: np.ndarray, eps_t: float) -> SteadyStateVerdict:
    """Run the rate criteria on the monitored rows of (seg, C), in two stages.

    Monitored, over all islands (``Built.monitored``): machine speeds,
    internal potentials, AVR and governor states (rows as solved, with their
    Pade), rotor angles relative to their island's reference angle (all
    angles drift together with the center of inertia even in steady state)
    and squared bus-voltage magnitudes.  Stage 2 builds these derived rows
    and their Pade only when stage 1 finds every plain row steady; else the
    verdict, not steady either way, holds the plain rows only.
    """
    rows = built.monitored
    plain = rows.plain  # none when every machine sits at a source's bus
    checks = [steady_state_check(C[plain], seg.pade_num[plain],
                                 seg.pade_den[plain], seg.t_e, eps_t)
              ] if len(plain) else []
    derived_built = all(steady.all() for *_, steady in checks)
    if derived_built:
        order = C.shape[1] - 1
        vx, vy = C[rows.vx], C[rows.vy]
        # V^2 = vx^2 + vy^2 truncated at the series order, all buses at once
        vsq = np.zeros_like(vx)
        for j in range(order + 1):
            vsq[:, j:] += (vx[:, j, None] * vx[:, : order + 1 - j]
                           + vy[:, j, None] * vy[:, : order + 1 - j])
        derived = np.concatenate([C[rows.angles] - C[rows.refs], vsq])
        checks.append(steady_state_check(
            derived, *batch_pade(derived, *diagonal_orders(order)), seg.t_e,
            eps_t))
    delta_ps, delta_pa, steady = (np.concatenate(a) for a in zip(*checks))
    names = rows.names[: len(steady)]
    verdict = SteadyStateVerdict(names, delta_ps, delta_pa, steady)
    if not verdict.system_steady and log.isEnabledFor(logging.DEBUG):
        bad = np.flatnonzero(~steady)
        pa = ["undefined" if np.isnan(d) else f"{d:.3g}"
              for d in delta_pa[bad[:5]]]
        log.debug("not steady at t=%.9g: %d of %d rows%s: %s", state.t,
                  len(bad), len(names), "" if derived_built else
                  " (plain rows; the derived rows were not built)", ", ".join(
                      f"{names[i]} (PS {delta_ps[i]:.3g}, PA {p})"
                      for i, p in zip(bad, pa)))
    return verdict


# --------------------------------------------------------------------------
# the simulation driver
# --------------------------------------------------------------------------


def _execute_event(case, state, ev: SimEvent, t: float,
                   traj: Trajectory) -> bool:
    """Run one event at time t, a triggered one logged with its condition
    first. Returns False when the run must stop."""
    kind = EVENTS[ev.kind]
    if ev.condition is not None:
        log.info("conditional event at t=%.9g: %s", t, ev.condition.text)
        traj.events.append(EventRecord(t, "conditional", ev.condition.text))
    if kind.switch and state.mode == QSS:
        mode_switch(case, state, "qss->dyn")
        traj.events.append(EventRecord(t, "mode_switch", "qss->dyn",
                                       {"cause": ev.kind}))
    info = kind.action(case, state, ev.payload, t) if kind.action else None
    traj.events.append(EventRecord(t, ev.kind, ev.label, info or {}))
    return ev.kind != "stop"


def run_simulation(case: GridCase, script: list,
                   config: RunConfig) -> Trajectory:
    """Event-driven extended-term simulation; returns the piecewise
    trajectory.  A HesimError from an event, a mode switch or a segment
    ends the run: the trajectory up to it is kept, and ``failure`` names
    the step that failed, its time and the reason."""
    wall0 = _time.perf_counter()
    traj = Trajectory(case)
    timed = sorted([e for e in script if e.t_due is not None],
                   key=lambda e: e.t_due)
    conditional = [e for e in script if e.condition is not None]
    # (Built, next anchor) of the state's mode: a refine hands its vector
    # over and a dyn->qss switch seeds the pair.  A switch event or a
    # Q-limit fix drops it, so the next segment builds and reads afresh.
    handoff = None
    dyn_from = 0.0  # the last switch event; the verdict waits DWELL after it

    t = 0.0
    running = True
    doing = "initialization"  # the step under way, named by a failure
    try:
        state = init_equilibrium(case,
                                 mode=QSS if config.mode == QSS else DYNAMIC)
        while running and t < config.t_end - 1e-9:
            while timed and timed[0].t_due <= t + 1e-9:
                ev = timed.pop(0)
                doing = str(ev)
                running = _execute_event(case, state, ev, t, traj)
                if EVENTS[ev.kind].switch:
                    handoff, dyn_from = None, t
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
            doing = f"{mode} segment"
            cap = MAX_STEP_DYN if mode == DYNAMIC else MAX_STEP_QSS
            if handoff is None:
                built = build_system(case, state)
                handoff = built, built.anchors(state)
            built, anchors = handoff
            # every known input is affine in t: two coefficients hold it all
            seg, C = solve_segment(built.system, anchors,
                                   built.knowns(state, t), config.order,
                                   config.tol_res, min(gap, cap))
            rec = SegmentRecord(t, seg.t_e, seg, built, limiter=(
                "gap" if seg.t_e == gap else "residual" if seg.t_e < seg.t_cap
                else "cap" if seg.t_cap >= min(gap, cap) else "pole"))

            # record triggers are read off the segment in time order; the
            # first trigger that changes the system ends it at its root
            hit, done = None, set()
            for i, tau in (locate_conditional_event(
                    rec, [ev.condition for ev in conditional])
                    if conditional else []):
                done.add(i)
                if conditional[i].kind != "record":
                    hit, rec.step, rec.limiter = conditional[i], tau, "trigger"
                    break
                _execute_event(case, state, conditional[i], t + tau, traj)
            conditional = [ev for i, ev in enumerate(conditional)
                           if i not in done]
            log.debug("segment at t=%.9g: %s, order %d, t_e %.6g, step %.6g, "
                      "limited by %s, %d record triggers fired, %d rows "
                      "refitted", rec.t0, rec.mode, C.shape[1] - 1,
                      seg.t_e, rec.step, rec.limiter,
                      len(done) - (hit is not None), seg.refit)

            traj.segments.append(rec)
            t = t + rec.step
            state.t = t
            doing = "state refinement"
            handoff = built, refine_state(built, state,
                                          seg.values_at(rec.step))

            if mode == QSS:
                # reactive limits are enforced by PV->PQ switching between
                # segments only, never inside one
                for gid, q in mdl.fix_q_limits(case, state):
                    handoff = None  # the machine's bus is PQ now
                    traj.events.append(EventRecord(t, "q_limit", gid,
                                                   {"q": q}))

            if hit:
                doing = str(hit)
                running = _execute_event(case, state, hit, t, traj)
                if EVENTS[hit.kind].switch:
                    handoff, dyn_from = None, t
                continue

            # no switch to QSS where a timed switch event is due at once:
            # it would switch straight back
            if (config.mode == HYBRID and mode == DYNAMIC
                    and t - dyn_from >= DWELL - 1e-9
                    and any(isl.machines for isl in built.islands)
                    and not any(EVENTS[ev.kind].switch for ev in timed
                                if ev.t_due <= t + 1e-9)):
                doing = "dyn->qss switch"
                verdict = steadiness_verdict(state, built, seg, C,
                                             config.eps_t)
                if verdict.system_steady:
                    handoff = mode_switch(case, state, "dyn->qss")
                    traj.events.append(EventRecord(
                        t, "mode_switch", "dyn->qss",
                        {"verdict": verdict}))
    except HesimError as exc:
        traj.failure = f"{doing} at t={t:.6f}: {exc}"
        traj.events.append(EventRecord(t, "failure", traj.failure, {}))
    traj.wall_time = _time.perf_counter() - wall0
    return traj
