"""Case and trajectory text formats, plus the built-in study cases.

Case files are line-oriented, section-tagged, '#'-commented text; all
electrical quantities are per-unit on a common system base.  Trajectory files are comma-separated samples of the canonical
output channels with the executed-event log appended as comment rows.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from importlib import resources
from typing import get_type_hints

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
from .model import CHANNEL_ARGS
from .scheduler import Condition, SimEvent, Trajectory


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


def _takes(tag, pos, kv, n_pos, keys, line_no):
    """Reject a positional token past the first n_pos, or a key not in keys."""
    if len(pos) > n_pos:
        raise ParseError(line_no, f"{tag} takes no {pos[n_pos]!r}")
    for k in kv:
        if k not in keys:
            raise ParseError(line_no, f"{tag} takes no {k}=")


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


def _motor(s, line_no, what):
    vals = [_num(x, line_no, what) for x in s.split(",")]
    if len(vals) != 7:
        raise ParseError(line_no, "motor= needs h,r1,x1,xm,r2,x2,torque")
    return MotorSpec(*vals)


# a field is read by its type (int, str, else a number), except motor=
_BY_NAME = {"motor": _motor}
_BY_TYPE = {int: _int, str: lambda s, n, what: s}


class _Section:
    """One element section: the spec class it builds, the GridCase list it
    fills, the fields its positional tokens set and the field each key=
    sets.  Defaults come from the spec class."""

    def __init__(self, spec, fills, pos, keys):
        self.spec, self.fills, self.pos, self.keys = spec, fills, pos, keys
        hints = get_type_hints(spec)
        self.read = {f: _BY_NAME.get(f) or _BY_TYPE.get(hints[f], _num)
                     for f in (*pos, *keys.values())}
        self.labels = [f.replace("_", " ") for f in pos]
        required = {f.name for f in fields(spec) if f.default is MISSING}
        self.needs = [k for k, f in keys.items() if f in required]


_SECTIONS = {
    "BUS": _Section(BusSpec, "buses", ("bus",), {}),
    "BRANCH": _Section(BranchSpec, "branches",
                       ("branch_id", "from_bus", "to_bus"),
                       {"r": "r", "x": "x", "b": "b_sh", "status": "status"}),
    "GEN": _Section(GenSpec, "gens", ("gen_id", "bus"), {
        "kind": "kind", "p": "p_set", "v": "v_set", "h": "h", "d": "d",
        "ra": "ra", "xd": "xd", "xq": "xq", "xdt": "xd_t", "xqt": "xq_t",
        "td0": "td0_t", "tq0": "tq0_t", "ka": "avr_ka", "ta": "avr_ta",
        "rdroop": "gov_r", "t1": "gov_t1", "t2": "gov_t2", "tg": "agc_tg",
        "qmin": "q_min", "qmax": "q_max", "status": "status"}),
    "LOAD": _Section(LoadSpec, "loads", ("load_id", "bus"), {
        "p": "p", "q": "q", "fz": "f_z", "fi": "f_i", "fp": "f_p",
        "scale": "scale", "motor": "motor", "status": "status"}),
}


def _element(tag, pos, kv, line_no):
    """The spec of one BUS, BRANCH, GEN or LOAD line."""
    sec = _SECTIONS[tag]
    _takes(tag, pos, kv, len(sec.pos), sec.keys, line_no)
    if len(pos) < len(sec.pos):
        raise ParseError(line_no, f"{tag} needs " + ", ".join(sec.labels))
    if any(k not in kv for k in sec.needs):
        raise ParseError(line_no, f"{tag} needs "
                         + " and ".join(f"{k}=" for k in sec.needs))
    read, out = sec.read, {}
    for f, what, s in zip(sec.pos, sec.labels, pos):
        out[f] = read[f](s, line_no, what)
    for k, s in kv.items():
        out[sec.keys[k]] = read[sec.keys[k]](s, line_no, k)
    return sec.spec(**out)


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


def _quoted_tokens(line: str, line_no: int) -> list[str]:
    """Tokens of a line whose quoted condition expressions may contain
    spaces; the quotes are dropped."""
    parts, buf, quoted = [], "", False
    for ch in line + " ":  # the space ends the last token
        if ch == '"':
            quoted = not quoted
        elif ch.isspace() and not quoted:
            parts += [buf] if buf else []
            buf = ""
        else:
            buf += ch
    if quoted:
        raise ParseError(line_no, "unterminated quote")
    return parts


def parse_case(text: str):
    """Parse a case file into (GridCase, event script)."""
    name, fnom = "unnamed", 60.0
    elements = {sec.fills: [] for sec in _SECTIONS.values()}
    events: list[SimEvent] = []
    checked = []                 # (line, event) of EVENT lines
    seen_any = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        tag, *rest = (_quoted_tokens(line, line_no) if '"' in line
                      else line.split())

        if tag in _SECTIONS:
            elements[_SECTIONS[tag].fills].append(
                _element(tag, *_split_kv(rest, line_no), line_no))
        elif tag == "CASE":
            pos, kv = _split_kv(rest, line_no)
            _takes(tag, pos, kv, 1, ("fnom",), line_no)
            if pos:
                name = pos[0]
            if "fnom" in kv:
                fnom = _num(kv["fnom"], line_no, "fnom")
        elif tag == "EVENT":
            if len(rest) < 2:
                raise ParseError(line_no, "EVENT needs a time and a kind")
            t_due = condition = None
            if rest[0] == "cond":
                if len(rest) < 3:
                    raise ParseError(line_no, "conditional EVENT needs "
                                     "an expression and a kind")
                try:
                    condition = Condition.parse(rest[1])
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
                kind, opts = rest[2], rest[3:]
            else:
                t_due = _num(rest[0], line_no, "event time")
                kind, opts = rest[1], rest[2:]
            pos, kv = _split_kv(opts, line_no)
            _takes(kind, pos, {}, 0, (), line_no)
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
            pos, kv = _split_kv(rest, line_no)
            if not pos:
                raise ParseError(line_no, "STOP needs a time")
            _takes(tag, pos, kv, 1, (), line_no)
            events.append(SimEvent(kind="stop",
                                   t_due=_num(pos[0], line_no, "stop time"),
                                   label="stop"))
        else:
            raise ParseError(line_no, f"unknown section tag {tag!r}")

    if not seen_any:
        raise ParseError(0, "empty case file")
    case = GridCase(name=name, f_nominal=fnom, **elements)
    for line_no, ev in checked:
        _check_event(case, ev, line_no)
    return case, events


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
        lines.append(f"# event,{float(ev.t)!r},{ev.kind},{ev.label}")
    return "\n".join(lines) + "\n"
