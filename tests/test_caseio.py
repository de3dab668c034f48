"""Case/trajectory text formats and the built-in fixtures."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hesim.caseio import (
    _SECTIONS,
    _element,
    _quoted_tokens,
    builtin_case,
    parse_case,
    trajectory_channels,
    write_trajectory,
)
from hesim.errors import ParseError, ValidationError
from hesim.grid import MotorSpec
from hesim.scheduler import RunConfig, Trajectory, run_simulation


def test_builtin_twobus_parameters():
    case, script = builtin_case("twobus")
    assert case.gens[0].v_set == 1.01
    br = case.branches[0]
    assert (br.r, br.x) == (0.01, 0.05)
    load = case.loads[0]
    assert (load.p, load.q) == (0.1, 0.3)
    ramps = [e for e in script if e.kind == "ramp_load"]
    assert ramps and ramps[0].payload["rate"] == 1.0
    conds = [e for e in script if e.condition is not None]
    assert conds and conds[0].condition.text == "I(1,2) > 3.0"
    assert conds[0].condition.rhs == 3.0


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        parse_case("")
    with pytest.raises(ParseError):
        parse_case("# only a comment\n")


def test_branch_to_unknown_bus_names_it():
    text = """CASE bad
BUS 1
BRANCH b 1 7 r=0.01 x=0.05
GEN g 1
"""
    with pytest.raises(ValidationError, match="7"):
        parse_case(text)


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match="WIRE"):
        parse_case("CASE x\nWIRE 1 2\n")


def test_nonnumeric_field_rejected():
    with pytest.raises(ParseError, match="not a number"):
        parse_case("CASE x\nBUS 1\nBUS 2\nBRANCH b 1 2 r=abc x=0.1\n")


def test_parse_line_numbers_in_errors():
    try:
        parse_case("CASE x\nBUS 1\nBRANCH b 1\n")
    except ParseError as exc:
        assert exc.line_no == 3
    else:
        raise AssertionError("expected ParseError")


def test_unterminated_quote_is_a_parse_error_at_its_line():
    with pytest.raises(ParseError, match="unterminated quote") as exc:
        parse_case('CASE x\nBUS 1\nEVENT cond "V(1) < 0.5 record\n')
    assert exc.value.line_no == 3


def test_builtin_lines_tokenize_alike_on_both_paths():
    # parse_case splits a line without a quote with str.split and walks
    # only quoted lines; on every other line the walker must agree
    from importlib import resources
    checked = 0
    for name in ("twobus", "fourbus", "ne39"):
        text = resources.files("hesim.cases").joinpath(
            f"{name}.case").read_text()
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line and '"' not in line:
                assert _quoted_tokens(line, line_no) == line.split()
                checked += 1
    assert checked > 100


# a sample token per field read by name or by a type other than a number
_SAMPLE = {"motor": ("1,2,3,4,5,6,7", MotorSpec(1, 2, 3, 4, 5, 6, 7)),
           "kind": ("source", "source"), "status": ("0", 0)}
_POSITIONAL = {"bus": ("3", 3), "from_bus": ("3", 3), "to_bus": ("4", 4)}


@pytest.mark.parametrize("tag", list(_SECTIONS))
def test_each_section_key_sets_its_field_and_the_rest_keep_defaults(tag):
    sec = _SECTIONS[tag]
    pos = [_POSITIONAL.get(f, ("X", "X")) for f in sec.pos]
    fixed = dict(zip(sec.pos, [want for _, want in pos]))
    needs = {k: "0.5" for k in sec.needs}
    fixed.update({sec.keys[k]: 0.5 for k in sec.needs})
    assert len(set(sec.keys.values())) == len(sec.keys)
    for i, (key, field) in enumerate(sec.keys.items()):
        tok, want = _SAMPLE.get(field, (repr(2.5 + i), 2.5 + i))
        got = _element(tag, [t for t, _ in pos], {**needs, key: tok}, 1)
        assert got == sec.spec(**{**fixed, field: want}), key
        assert getattr(got, field) == want


def test_readme_lists_each_section_option_key():
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Case file format", 1)[1]
    block = block.split("```", 2)[1]
    listed, tag = {}, None
    for line in block.splitlines():
        if line and not line[0].isspace():
            tag = line.split()[0]
        if tag:
            listed.setdefault(tag, set()).update(re.findall(r"(\w+)=", line))
    for tag, sec in _SECTIONS.items():
        assert listed[tag] == set(sec.keys), tag
    assert listed["CASE"] == {"fnom"}


def _fourbus_with_trigger(expr: str) -> str:
    from importlib import resources

    text = resources.files("hesim.cases").joinpath("fourbus.case").read_text()
    return text.replace("STOP 500.0", f'EVENT cond "{expr}" record\nSTOP 500.0')


def test_current_trigger_on_parallel_circuits_rejected():
    # fourbus joins buses 2 and 3 by L23A and L23B: I(2,3) names neither
    text = _fourbus_with_trigger("I(3,2) > 0.5")
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    line = text.splitlines().index('EVENT cond "I(3,2) > 0.5" record') + 1
    assert exc.value.line_no == line
    assert "L23A" in exc.value.reason and "L23B" in exc.value.reason
    # a branch id names one circuit
    _, script = parse_case(_fourbus_with_trigger("I(L23B) > 0.5"))
    assert script[-2].condition.args == ("L23B",)


@pytest.mark.parametrize("rhs", ["1e999", "-1e999"])
def test_non_finite_trigger_threshold_rejected_at_its_line(rhs):
    # like every other number of a case file; inf would fire at t = 0
    expr = f"V(2) < {rhs}"
    text = _fourbus_with_trigger(expr)
    with pytest.raises(ParseError, match="not finite") as exc:
        parse_case(text)
    line = f'EVENT cond "{expr}" record'
    assert exc.value.line_no == text.splitlines().index(line) + 1


def test_unknown_event_key_rejected_at_its_line():
    # a misspelt key must not drop silently: bsh= would leave b = 0
    from importlib import resources

    line = "EVENT 30.0 param_branch branch=L12 r=0.01 x=0.08 bsh=0.5"
    text = resources.files("hesim.cases").joinpath("fourbus.case").read_text()
    text = text.replace("STOP 500.0", f"{line}\nSTOP 500.0")
    with pytest.raises(ParseError, match="param_branch takes no bsh=") as exc:
        parse_case(text)
    assert exc.value.line_no == text.splitlines().index(line) + 1
    # b= is the optional key of the kind
    _, script = parse_case(text.replace("bsh=", "b="))
    assert script[-2].payload == {"branch": "L12", "r": 0.01, "x": 0.08,
                                  "b": 0.5}


def test_current_trigger_without_branch_rejected():
    with pytest.raises(ParseError, match="no branch joins buses 1 and 3"):
        parse_case(_fourbus_with_trigger("I(1,3) > 0.5"))
    with pytest.raises(ParseError, match="names no branch"):
        parse_case(_fourbus_with_trigger("I(L99) > 0.5"))


def _twobus_text(old, new):
    from importlib import resources

    text = resources.files("hesim.cases").joinpath("twobus.case").read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("old, new, reason", [
    ("STOP 15.0", "STOP", "STOP needs a time"),
    ("BRANCH L12 1 2", "BRANCH L12 1 two", "to bus: 'two' is not an integer"),
    ("GEN S1 1", "GEN S1 one", "bus: 'one' is not an integer"),
    ("LOAD LD2 2", "LOAD LD2 b2", "bus: 'b2' is not an integer"),
    ("b=0.0", "b=0.0 status=on", "status: 'on' is not an integer"),
    # a token the line does not take
    ("CASE twobus fnom=60.0", "CASE x fnom=50 fnmo=60", "CASE takes no fnmo="),
    ("CASE twobus fnom=60.0", "CASE x y", "CASE takes no 'y'"),
    ("BUS 1", "BUS 1 V=1.05 angel=3", "BUS takes no V="),
    ("BUS 2", "BUS 2 3", "BUS takes no '3'"),
    # a BUS line takes its number only: no start voltage, angle or base kV
    ("BUS 1", "BUS 1 v=1.05", "BUS takes no v="),
    ("BUS 2", "BUS 2 angle=30", "BUS takes no angle="),
    ("BUS 2", "BUS 2 kv=230", "BUS takes no kv="),
    ("BRANCH L12 1 2 r=0.01 x=0.05 b=0.0", "BRANCH b 1 2 r=0.01 x=0.1 B=0.5",
     "BRANCH takes no B="),
    ("v=1.01", "v=1.01 H=4.0", "GEN takes no H="),
    ("LOAD LD2 2 p=0.1 q=0.3", "LOAD LD2 2 P=1.0 q=0.2", "LOAD takes no P="),
    ("STOP 15.0", "EVENT 3.0 stop now", "stop takes no 'now'"),
    ("STOP 15.0", "STOP 5 at=3", "STOP takes no at="),
], ids=["stop-without-time", "branch-bus", "gen-bus", "load-bus",
        "status-on", "case-key", "case-positional", "bus-key",
        "bus-positional", "bus-v", "bus-angle", "bus-kv", "branch-key",
        "gen-key", "load-key", "event-positional", "stop-key"])
def test_malformed_line_is_a_parse_error_at_its_line(old, new, reason):
    text = _twobus_text(old, new)
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert exc.value.reason == reason
    assert new in text.splitlines()[exc.value.line_no - 1]


@pytest.mark.parametrize("old, new, reason", [
    ("ramp_load load=LD2", "explode", "unknown event kind 'explode'"),
    ("ramp_load load=LD2", "ramp_load", "ramp_load needs load="),
    ("ramp_load load=LD2", "ramp_load load=LD9", "no load 'LD9'"),
    ("I(1,2) > 3.0", "X(1) > 3", "unknown channel 'X'"),
    ("I(1,2) > 3.0", "V(abc) < 0.5", "bus: 'abc' is not an integer"),
    ("I(1,2) > 3.0", "V() < 0.5", "V takes 1 argument(s), not 0"),
    ("I(1,2) > 3.0", "V(9) < 0.5", "no bus '9'"),
    ("I(1,2) > 3.0", "omega(G9) < -0.01", "no gen 'G9'"),
    ("I(1,2) > 3.0", "V(1,2) < 0.5", "V takes 1 argument(s), not 2"),
], ids=["unknown-kind", "ramp-without-load", "no-such-load",
        "unknown-channel", "bus-not-an-integer", "no-argument",
        "no-such-bus", "no-such-gen", "two-arguments"])
def test_event_that_does_not_fit_the_case_is_a_parse_error(old, new, reason):
    text = _twobus_text(old, new)
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert exc.value.reason == reason
    assert new in text.splitlines()[exc.value.line_no - 1]


def test_event_checks_accept_bus_voltage_and_frequency_triggers():
    _, script = parse_case(_twobus_text(
        "I(1,2) > 3.0", "V(2) < 0.5\" record\nEVENT cond \"f > 60.1"))
    assert [e.condition.channel for e in script if e.condition] == ["V", "f"]


# --- trajectory files --------------------------------------------------------------

def _read_trajectory(text):
    """(names, times, modes, data, events) of a written trajectory."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    data = np.array([[float(x) for x in r[2:]] for r in rows[1:]])
    events = [line.split(",", 3)[1:] for line in lines
              if line.startswith("# event,")]
    return (rows[0], np.array([float(r[0]) for r in rows[1:]]),
            [r[1] for r in rows[1:]], data,
            [(float(t), kind, label) for t, kind, label in events])


@pytest.fixture(scope="module")
def small_run():
    case, script = builtin_case("twobus")
    traj = run_simulation(case, script, RunConfig(mode="qss", t_end=3.0))
    return traj


def test_flat_run_constant_columns():
    case, _ = builtin_case("twobus")
    traj = run_simulation(case, [], RunConfig(mode="qss", t_end=2.0))
    text = write_trajectory(traj, 0.5)
    names, ts, modes, data, events = _read_trajectory(text)
    for j in range(data.shape[1]):
        col = data[:, j]
        assert np.all(col == col[0])


# --- the sampler against a per-name reference ------------------------------
#
# The reference evaluates one variable at a time with its own two Horner
# passes, and each channel from scalar values, as the per-channel sampler
# did before one value matrix per segment replaced it.


def _horner(c, t):
    out = c[-1] + 0.0 * t
    for ck in c[-2::-1]:
        out = out * t + ck
    return out


def _value(rec, name, tau):
    """One variable at a scalar tau (NaN where its denominator is below
    1e-12 in magnitude), or None when the segment's Built lacks it."""
    i = rec.built.system.index.get(name)
    if i is None:
        return None
    den = _horner(rec.sol.pade_den[i], tau)
    return float(_horner(rec.sol.pade_num[i], tau)
                 / (den if abs(den) >= 1e-12 else math.nan))


def _island_of(rec, gid):
    return next((isl for isl in rec.built.islands
                 if gid in isl.machines or gid in isl.sources), None)


def _ref_channel(rec, chan, args, tau):
    """One output channel at one scalar segment-local time."""
    case, val = rec.built.case, (lambda name: _value(rec, name, tau))
    nan = math.nan
    if chan == "t":
        return rec.t0 + tau
    if chan == "V":
        vx = val(f"vx:{int(args[0])}")
        return 0.0 if vx is None else float(
            np.hypot(vx, val(f"vy:{int(args[0])}")))
    if chan == "I":
        br, f_bus, t_bus = case.branch_ends(args)
        if br.branch_id not in rec.built.branch_params:
            return 0.0
        y, b = rec.built.branch_params[br.branch_id]
        vf = val(f"vx:{f_bus}") + 1j * val(f"vy:{f_bus}")
        vt = val(f"vx:{t_bus}") + 1j * val(f"vy:{t_bus}")
        return float(np.abs(y * (vf - vt) + 0.5j * b * vf))
    if chan == "f":
        isl = min(rec.built.islands, default=None, key=lambda i: min(
            [case.gen_by_id[g].bus for g in i.machines + i.sources],
            default=10 ** 9))
        if isl is None:
            return case.f_nominal
        if rec.mode == "qss":
            df = val(f"df:{isl.index}")
            return case.f_nominal + (0.0 if df is None else df)
        h_tot = sum(case.gen_by_id[g].h for g in isl.machines)
        acc = 0.0
        for g in isl.machines:
            acc = acc + (case.gen_by_id[g].h / h_tot) * val(f"omega:{g}")
        return case.f_nominal * (1.0 + acc)
    gid = args[0]
    if rec.mode == "qss" and chan in ("omega", "pg"):
        isl = _island_of(rec, gid)
        df = None if isl is None else val(f"df:{isl.index}")
        df = 0.0 if df is None else df
        if chan == "omega":
            return df / case.f_nominal
        pagc = val(f"pagc:{gid}")
        if pagc is None:
            return nan
        kpos = rec.built.system.known_names
        pd = 0.0
        if f"pdisp:{gid}" in kpos:
            pd = float(np.polynomial.polynomial.polyval(
                tau, rec.sol.kcoeffs[kpos.index(f"pdisp:{gid}")]))
        k = case.gen_by_id[gid].k_freq
        return pd + pagc - (k / case.f_nominal) * df
    if chan in ("omega", "delta"):
        v = val(f"{chan}:{gid}")
        return nan if v is None else v
    if chan == "pg":
        if val(f"id:{gid}") is None:
            return nan
        i_d, i_q = val(f"id:{gid}"), val(f"iq:{gid}")
        s, c = val(f"sind:{gid}"), val(f"cosd:{gid}")
        bus = case.gen_by_id[gid].bus
        return (val(f"vx:{bus}") * (i_d * s + i_q * c)
                + val(f"vy:{bus}") * (-i_d * c + i_q * s))
    raise KeyError(chan)


def _ref_at(rec, chan, args, t):
    """The reference at absolute time t on segment rec."""
    return _ref_channel(rec, chan, args, min(max(t - rec.t0, 0.0), rec.step))


def test_write_samples_match_segment_eval(small_run):
    text = write_trajectory(small_run, 0.25)
    names, ts, modes, data, events = _read_trajectory(text)
    j = names.index("V:2") - 2  # columns after time, mode
    for k, t in enumerate(ts):
        rec = small_run.segments[small_run.segment_index(t)]
        expect = _ref_at(rec, "V", ("2",), t)
        assert data[k, j] == expect


def _starting_at(traj, t):
    """The last segment starting at or before t (else the first)."""
    starts = [s.t0 for s in traj.segments]
    k = int(np.searchsorted(starts, t + 1e-12) - 1)
    return traj.segments[max(0, min(k, len(starts) - 1))]


def _per_sample_trajectory(traj, dt):
    """write_trajectory evaluated one sample time and one channel at a time."""
    chans = trajectory_channels(traj.case)
    ts = traj.sample_times(dt)
    name = lambda c, a: c if not a else f"{c}:{','.join(a)}"
    lines = ["# hesim trajectory v1", f"# case: {traj.case.name}",
             ",".join(["time", "mode"] + [name(c, a) for c, a in chans])]
    for t in ts:
        rec = _starting_at(traj, t)
        row = [repr(float(t)), rec.mode]
        row += [repr(float(_ref_at(rec, c, a, t))) for c, a in chans]
        lines.append(",".join(row))
    for ev in traj.events:
        lines.append(f"# event,{float(ev.t)!r},{ev.kind},{ev.label}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fourbus_40():
    # 0-40 s: dynamic start, QSS, the load step at 30 s and its transient
    case, script = builtin_case("fourbus")
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=40.0))
    assert traj.failure is None and len(traj.segments) > 10
    assert {s.mode for s in traj.segments} == {"dynamic", "qss"}
    return traj


def test_sampler_matches_per_sample_evaluation(fourbus_40):
    traj = fourbus_40
    assert write_trajectory(traj, 0.1) == _per_sample_trajectory(traj, 0.1)
    # Trajectory.sample reads the file's rule at any time, on or off grid
    ts = np.linspace(0.0, traj.t_end, 173)
    chans = [("f", ()), ("V", ("3",)), ("pg", ("G1",))]
    want = [[_ref_at(_starting_at(traj, t), chan, args, t) for t in ts]
            for chan, args in chans]
    assert np.array_equal(traj.sample(chans, ts, traj.segment_index(ts)),
                          want)


def test_channel_reads_the_written_row_at_an_event_instant(fourbus_40):
    # the load step at 30 s: both readers take the segment after the event
    traj = fourbus_40
    names, ts, _, data, _ = _read_trajectory(write_trajectory(traj, 0.1))
    row = data[int(np.flatnonzero(ts == 30.0)[0]), names.index("V:2") - 2]
    ts = np.array([30.0])
    assert traj.sample([("V", ("2",))], ts, traj.segment_index(ts))[
        0, 0] == row
    assert row == pytest.approx(0.94815, abs=5e-6)


@pytest.fixture(scope="module")
def ne39_20():
    # offline branches and machines, de-energized buses, alpha switches
    case, script = builtin_case("ne39")
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=20.0))
    assert traj.failure is None
    return traj


def _all_channels(case):
    chans = [("t", ()), ("f", ())]
    chans += [("V", (str(b.bus),)) for b in case.buses] + [("V", ("999",))]
    chans += [("I", (br.branch_id,)) for br in case.branches]
    for gid in [g.gen_id for g in case.gens] + ["GX"]:
        chans += [("omega", (gid,)), ("delta", (gid,)), ("pg", (gid,))]
    return chans


@pytest.mark.parametrize("run", ["fourbus_40", "ne39_20", "small_run"])
def test_every_channel_matches_per_name_reference(request, run):
    """t, V, I, f, omega, delta and pg in both modes, against the per-name
    reference written as the trajectory file writes them; "GX" and bus 999
    are names absent from every Built."""
    traj = request.getfixturevalue(run)
    chans = _all_channels(traj.case)
    ts = traj.sample_times(0.05)
    starts = np.array([s.t0 for s in traj.segments])
    ks = np.clip(np.searchsorted(starts, ts + 1e-12) - 1,
                 0, len(traj.segments) - 1)
    got = traj.sample(chans, ts, ks)
    for j, (t, k) in enumerate(zip(ts, ks)):
        want = [repr(float(_ref_at(traj.segments[k], c, a, t)))
                for c, a in chans]
        assert [repr(float(x)) for x in got[:, j]] == want, t
        # one time per call, as a trigger's root solve evaluates
        one = traj.sample(chans, ts[j:j + 1], ks[j:j + 1])[:, 0]
        assert [repr(float(x)) for x in one] == want, t
    offline = [br.branch_id for br in traj.case.branches
               if any(br.branch_id not in rec.built.branch_params
                      for rec in traj.segments)]
    assert offline or run != "ne39_20"
    if run == "fourbus_40":  # QSS machine power reads its pdisp known
        assert all(f"pdisp:{g}" in rec.built.system.known_names
                   for rec in traj.segments if rec.mode == "qss"
                   for g in ("G1", "G2"))
    if run == "small_run":  # the source S1 has no rotor angle
        assert np.isnan(got[chans.index(("delta", ("S1",)))]).all()


def test_frequency_sums_many_machines_in_order():
    """f is the H-weighted speed sum added machine by machine from 0.0, at
    one time or many: a pairwise sum would round differently from eight
    machines on."""
    from hesim.engine import SystemBuilder
    from hesim.grid import BusSpec, GenSpec, GridCase
    from hesim.model import Built, Island

    gids = [f"G{i}" for i in range(11)]
    case = GridCase(name="many", f_nominal=60.0,
                    buses=[BusSpec(i) for i in range(len(gids))],
                    branches=[], loads=[],
                    gens=[GenSpec(g, i, h=1.0 + 0.37 * i)
                          for i, g in enumerate(gids)])
    b = SystemBuilder()
    for g in gids:
        b.state(f"omega:{g}")
    built = Built(system=b.compile(), case=case, mode="dynamic",
                  islands=[Island(0, list(range(len(gids))), [], gids,
                                  gids[0])])
    chan_map = built.channel_map
    h_tot = sum(case.gen_by_id[g].h for g in gids)
    rng = np.random.default_rng(5)
    for n in [1] * 200 + [2, 7]:
        omega = rng.normal(size=(len(gids), n))
        acc = np.zeros(n)
        for i, g in enumerate(gids):
            acc = acc + (case.gen_by_id[g].h / h_tot) * omega[i]
        got = chan_map.apply((("f", ()),), (omega, np.zeros((0, n))),
                             np.zeros(n))[0]
        assert np.array_equal(got, 60.0 * (1.0 + acc))


def test_sampled_channel_is_nan_where_its_denominator_vanishes(small_run):
    """The one near-zero-denominator rule: a sampled variable whose Pade
    denominator is below 1e-12 in magnitude reads NaN, and so does every
    channel built from it."""
    rec = small_run.segments[0]
    assert rec.step >= 1.0
    i = rec.built.system.index["vx:2"]
    den = rec.sol.pade_den.copy()  # a finished segment's rows are read-only
    den[i] = 0.0
    den[i, :2] = [1.0, -2.0]  # 1 - 2 tau: 0 at tau = 0.5
    rec = dataclasses.replace(rec, sol=dataclasses.replace(rec.sol,
                                                           pade_den=den))
    traj = Trajectory(small_run.case, segments=[rec])
    taus = np.array([0.25, 0.5, 0.5 + 1e-14, 0.75])
    chans = [("V", ("2",)), ("I", ("L12",)), ("V", ("1",))]
    got = traj.sample(chans, rec.t0 + taus, np.zeros(4, dtype=int))
    assert np.isnan(got[:2, 1:3]).all()
    assert np.isfinite(got[:2, [0, 3]]).all() and np.isfinite(got[2]).all()


def test_trajectory_rewrite_byte_identical(small_run):
    text = write_trajectory(small_run, 0.5)
    names, ts, modes, data, events = _read_trajectory(text)
    # rebuild the exact same content from parsed values
    lines = text.splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    rebuilt = lines[: header_idx + 1]
    for k in range(len(ts)):
        row = [repr(float(ts[k])), modes[k]]
        row += [repr(float(x)) for x in data[k]]
        rebuilt.append(",".join(row))
    for t, kind, label in events:
        rebuilt.append(f"# event,{repr(float(t))},{kind},{label}")
    assert "\n".join(rebuilt) + "\n" == text
