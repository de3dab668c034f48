"""Case and trajectory text formats, plus the built-in study cases.

Case files are line-oriented, section-tagged, '#'-commented text; all
electrical quantities are per-unit on a common system base, angles are in
degrees.  Trajectory files are comma-separated samples of the canonical
output channels with the executed-event log appended as comment rows.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .grid import (
    DYN4,
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
    MotorSpec,
)
from .scheduler import CHANNEL_ARGS, Condition, SimEvent, Trajectory

_GEN_KEYS = {
    "p": "p_set", "v": "v_set", "h": "h", "d": "d", "ra": "ra",
    "xd": "xd", "xq": "xq", "xdt": "xd_t", "xqt": "xq_t",
    "td0": "td0_t", "tq0": "tq0_t", "ka": "avr_ka", "ta": "avr_ta",
    "rdroop": "gov_r", "t1": "gov_t1", "t2": "gov_t2", "tg": "agc_tg",
    "qmin": "q_min", "qmax": "q_max",
}


def _split_kv(tokens, line_no):
    pos, kv = [], {}
    for tok in tokens:
        if "=" in tok:
            k, _, v = tok.partition("=")
            kv[k] = v
        elif kv:
            raise ParseError(line_no, f"positional field {tok!r} after options")
        else:
            pos.append(tok)
    return pos, kv


def _int(s, line_no, what):
    try:
        return int(s)
    except ValueError:
        raise ParseError(line_no, f"{what}: {s!r} is not an integer") from None


def _num(s, line_no, what):
    try:
        v = float(s)
    except ValueError:
        raise ParseError(line_no, f"{what}: {s!r} is not a number") from None
    if not math.isfinite(v):
        raise ParseError(line_no, f"{what}: {s!r} is not finite")
    return v


# event keys that name an element of the case; every other key is a number
_NAMED = ("bus", "branch", "load", "gen")


def _check_event(case: GridCase, ev: SimEvent, line_no: int) -> None:
    """Every bus, branch, load and generator the event names must exist."""
    named = list(ev.payload.items())
    if ev.condition is not None:
        chan, args = ev.condition.channel, ev.condition.args
        if chan == "I":
            try:
                case.branch_ends(args)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        else:
            named += zip(CHANNEL_ARGS[chan], args)
    elements = {"bus": case.bus_index, "branch": case.branch_by_id,
                "load": case.load_by_id, "gen": case.gen_by_id}
    for what, name in named:
        key = _int(name, line_no, what) if what == "bus" else name
        if what in elements and key not in elements[what]:
            raise ParseError(line_no, f"no {what} {name!r}")


def parse_case(text: str):
    """Parse a case file into (GridCase, event script)."""
    name = "unnamed"
    fnom = 60.0
    buses, branches, gens, loads = [], [], [], []
    events: list[SimEvent] = []
    checked = []                 # (line, event) of EVENT lines
    seen_any = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        # quoted condition expressions may contain spaces
        parts: list[str] = []
        buf = ""
        quoted = False
        for ch in line:
            if ch == '"':
                quoted = not quoted
            elif ch.isspace() and not quoted:
                if buf:
                    parts.append(buf)
                    buf = ""
            else:
                buf += ch
        if quoted:
            raise ParseError(line_no, "unterminated quote")
        if buf:
            parts.append(buf)
        tag, *rest = parts

        if tag == "CASE":
            pos, kv = _split_kv(rest, line_no)
            if pos:
                name = pos[0]
            if "fnom" in kv:
                fnom = _num(kv["fnom"], line_no, "fnom")
        elif tag == "BUS":
            pos, kv = _split_kv(rest, line_no)
            if len(pos) != 1:
                raise ParseError(line_no, "BUS needs exactly one id")
            buses.append(BusSpec(
                bus=_int(pos[0], line_no, "bus id"),
                base_kv=_num(kv.get("kv", "1"), line_no, "kv"),
                v_init=_num(kv.get("v", "1"), line_no, "v"),
                angle_init=math.radians(
                    _num(kv.get("angle", "0"), line_no, "angle")),
            ))
        elif tag == "BRANCH":
            pos, kv = _split_kv(rest, line_no)
            if len(pos) != 3:
                raise ParseError(line_no, "BRANCH needs id, from, to")
            if "r" not in kv or "x" not in kv:
                raise ParseError(line_no, "BRANCH needs r= and x=")
            branches.append(BranchSpec(
                branch_id=pos[0], from_bus=_int(pos[1], line_no, "from bus"),
                to_bus=_int(pos[2], line_no, "to bus"),
                r=_num(kv["r"], line_no, "r"),
                x=_num(kv["x"], line_no, "x"),
                b_sh=_num(kv.get("b", "0"), line_no, "b"),
                status=_int(kv.get("status", "1"), line_no, "status"),
            ))
        elif tag == "GEN":
            pos, kv = _split_kv(rest, line_no)
            if len(pos) != 2:
                raise ParseError(line_no, "GEN needs id and bus")
            fields = {"gen_id": pos[0], "bus": _int(pos[1], line_no, "bus"),
                      "kind": kv.pop("kind", DYN4),
                      "status": _int(kv.pop("status", "1"), line_no, "status")}
            for k, v in kv.items():
                if k not in _GEN_KEYS:
                    raise ParseError(line_no, f"unknown GEN option {k!r}")
                fields[_GEN_KEYS[k]] = _num(v, line_no, k)
            gens.append(GenSpec(**fields))
        elif tag == "LOAD":
            pos, kv = _split_kv(rest, line_no)
            if len(pos) != 2:
                raise ParseError(line_no, "LOAD needs id and bus")
            motor = None
            if "motor" in kv:
                vals = [_num(x, line_no, "motor") for x in
                        kv.pop("motor").split(",")]
                if len(vals) != 7:
                    raise ParseError(
                        line_no, "motor= needs h,r1,x1,xm,r2,x2,torque")
                motor = MotorSpec(*vals)
            loads.append(LoadSpec(
                load_id=pos[0], bus=_int(pos[1], line_no, "bus"),
                p=_num(kv.get("p", "0"), line_no, "p"),
                q=_num(kv.get("q", "0"), line_no, "q"),
                f_z=_num(kv.get("fz", "0"), line_no, "fz"),
                f_i=_num(kv.get("fi", "0"), line_no, "fi"),
                f_p=_num(kv.get("fp", "1"), line_no, "fp"),
                motor=motor,
                status=_int(kv.get("status", "1"), line_no, "status"),
                scale=_num(kv.get("scale", "1"), line_no, "scale"),
            ))
        elif tag == "EVENT":
            if len(rest) < 2:
                raise ParseError(line_no, "EVENT needs a time and a kind")
            t_due = None
            condition = None
            if rest[0] == "cond":
                if len(rest) < 3:
                    raise ParseError(line_no, "conditional EVENT needs "
                                     "an expression and a kind")
                try:
                    condition = Condition.parse(rest[1])
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
                kind = rest[2]
                opts = rest[3:]
            else:
                t_due = _num(rest[0], line_no, "event time")
                kind = rest[1]
                opts = rest[2:]
            _, kv = _split_kv(opts, line_no)
            label = kv.pop("name", kind)
            payload = {k: v if k in _NAMED else _num(v, line_no, k)
                       for k, v in kv.items()}
            try:
                events.append(SimEvent(kind=kind, t_due=t_due,
                                       condition=condition,
                                       payload=payload, label=label))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            checked.append((line_no, events[-1]))
        elif tag == "STOP":
            pos, _ = _split_kv(rest, line_no)
            if len(pos) != 1:
                raise ParseError(line_no, "STOP needs a time")
            events.append(SimEvent(kind="stop",
                                   t_due=_num(pos[0], line_no, "stop time"),
                                   label="stop"))
        else:
            raise ParseError(line_no, f"unknown section tag {tag!r}")

    if not seen_any:
        raise ParseError(0, "empty case file")
    case = GridCase(name=name, f_nominal=fnom, buses=buses,
                    branches=branches, gens=gens, loads=loads)
    for line_no, ev in checked:
        _check_event(case, ev, line_no)
    return case, events


def _fmt(x: float) -> str:
    return repr(float(x))


def write_case(case: GridCase, events: Optional[list] = None) -> str:
    """Canonical emission; parse(write_case(parse(x))) == parse(x)."""
    out = [f"CASE {case.name} fnom={_fmt(case.f_nominal)}"]
    for b in case.buses:
        out.append(f"BUS {b.bus} kv={_fmt(b.base_kv)} v={_fmt(b.v_init)} "
                   f"angle={_fmt(math.degrees(b.angle_init))}")
    for br in case.branches:
        out.append(f"BRANCH {br.branch_id} {br.from_bus} {br.to_bus} "
                   f"r={_fmt(br.r)} x={_fmt(br.x)} b={_fmt(br.b_sh)} "
                   f"status={br.status}")
    rev = {v: k for k, v in _GEN_KEYS.items()}
    for g in case.gens:
        opts = " ".join(f"{rev[f]}={_fmt(getattr(g, f))}"
                        for f in rev if hasattr(g, f))
        out.append(f"GEN {g.gen_id} {g.bus} kind={g.kind} {opts} "
                   f"status={g.status}")
    for l in case.loads:
        motor = ""
        if l.motor is not None:
            m = l.motor
            motor = (" motor=" + ",".join(_fmt(v) for v in
                     (m.h, m.r1, m.x1, m.xm, m.r2, m.x2, m.torque)))
        out.append(f"LOAD {l.load_id} {l.bus} p={_fmt(l.p)} q={_fmt(l.q)} "
                   f"fz={_fmt(l.f_z)} fi={_fmt(l.f_i)} fp={_fmt(l.f_p)} "
                   f"scale={_fmt(l.scale)}{motor} status={l.status}")
    for ev in events or []:
        opts = " ".join(f"{k}={v if isinstance(v, str) else _fmt(v)}"
                        for k, v in ev.payload.items())
        head = (f"EVENT cond \"{ev.condition.text}\""
                if ev.condition is not None else f"EVENT {_fmt(ev.t_due)}")
        name = f" name={ev.label}" if ev.label != ev.kind else ""
        out.append(f"{head} {ev.kind} {opts}".rstrip() + name)
    return "\n".join(out) + "\n"


def load_case(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read())


def builtin_case(name: str):
    """Load one of the shipped cases: twobus, fourbus, ne39."""
    text = resources.files("hesim.cases").joinpath(f"{name}.case").read_text()
    return parse_case(text)


# --------------------------------------------------------------------------
# trajectory files
# --------------------------------------------------------------------------


def trajectory_channels(case: GridCase):
    """Canonical output columns for a case."""
    chans = [("f", ())]
    for b in case.buses:
        chans.append(("V", (str(b.bus),)))
    for g in case.gens:
        if g.kind == DYN4:
            chans += [("omega", (g.gen_id,)), ("delta", (g.gen_id,)),
                      ("pg", (g.gen_id,))]
    return chans


def _chan_name(chan, args):
    return chan if not args else f"{chan}:{','.join(args)}"


def write_trajectory(traj: Trajectory, dt: float = 0.1) -> str:
    """Sample the analytic segments on a dt grid.

    Values are evaluated from the stored series/Pade representations, never
    re-integrated; event rows are appended as comments.
    """
    if not traj.segments:
        raise ValidationError("cannot write an empty trajectory")
    case = traj.case
    chans = trajectory_channels(case)
    ts = traj.sample_times(dt)
    ks = traj.segment_index(ts)
    cols = traj.sample(chans, ts, ks)

    header = ["time", "mode"] + [_chan_name(c, a) for c, a in chans]
    lines = [f"# hesim trajectory v1",
             f"# case: {case.name}",
             ",".join(header)]
    for t, k, row in zip(ts.tolist(), ks.tolist(), cols.T.tolist()):
        lines.append(",".join([repr(t), traj.segments[k].mode,
                               *map(repr, row)]))
    for ev in traj.events:
        lines.append(f"# event,{_fmt(ev.t)},{ev.kind},{ev.label}")
    return "\n".join(lines) + "\n"


def parse_trajectory(text: str):
    """Read a trajectory file back: (names, times, mode tags, data, events)."""
    names = None
    rows = []
    modes = []
    events = []
    last_t = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("event,"):
                _, t, kind, label = body.split(",", 3)
                events.append((float(t), kind, label))
            continue
        parts = line.split(",")
        if names is None:
            names = parts
            continue
        if len(parts) != len(names):
            raise ParseError(line_no, "column count changed")
        t = float(parts[0])
        if last_t is not None and t <= last_t:
            raise ParseError(line_no, "times must be strictly increasing")
        last_t = t
        modes.append(parts[1])
        rows.append([t] + [float(x) for x in parts[2:]])
    if names is None:
        raise ParseError(0, "empty trajectory file")
    data = np.array(rows)
    return names, data[:, 0], modes, data[:, 1:], events
