"""Event orchestration, conditional events, mode switching, islanding."""

import collections
import dataclasses
import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import (
    make_smib,
    make_twobus_case,
    monitored_names,
    padded,
    run_from,
    twobus_ramp_thresholds,
)
from hesim import scheduler
from hesim.bounds import SteadyStateVerdict, steady_state_check
from hesim.caseio import builtin_case
from hesim.grid import (
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
)
from hesim.model import DYNAMIC, QSS, build_system, init_equilibrium
from hesim.engine import solve_segment
from hesim.reference import TwoBusCase, two_bus_current_sq, two_bus_event_time
from hesim.scheduler import (
    Condition,
    RunConfig,
    SimEvent,
    locate_conditional_event,
    mode_switch,
    run_simulation,
    steadiness_verdict,
)
from hesim.series import batch_pade, bracketed_roots


def _twobus_script(extra=()):
    return [SimEvent(kind="ramp_load", t_due=0.0,
                     payload={"load": "LD2", "rate": 1.0})] + list(extra)


# --- conditions -----------------------------------------------------------------

def test_condition_parsing():
    c = Condition.parse("I(1,2) > 3.0")
    assert c.channel == "I" and c.args == ("1", "2") and c.rhs == 3.0
    c2 = Condition.parse("V(4)<0.9")
    assert c2.channel == "V" and c2.op == "<"
    with pytest.raises(ValueError):
        Condition.parse("what even is this")


def test_event_needs_time_or_condition():
    with pytest.raises(ValueError):
        SimEvent(kind="record")
    with pytest.raises(ValueError):
        SimEvent(kind="record", t_due=1.0, condition=Condition.parse("t>1"))


@pytest.mark.parametrize("make, reason", [
    (lambda: SimEvent(kind="explode", t_due=1.0), "unknown event kind"),
    (lambda: SimEvent(kind="param_branch", t_due=1.0,
                      payload={"branch": "L12", "r": 0.1}), "needs x="),
    (lambda: SimEvent(kind="param_branch", t_due=1.0,
                      payload={"branch": "L12", "r": 0.01, "x": 0.08,
                               "bsh": 0.5}), "param_branch takes no bsh="),
    (lambda: Condition.parse("X(1) > 3"), "unknown channel 'X'"),
    (lambda: Condition.parse("f(1) > 60.1"), "f takes 0 argument"),
    (lambda: Condition.parse("omega() > 0.01"), "omega takes 1 argument"),
], ids=["unknown-kind", "missing-key", "unknown-key", "unknown-channel",
        "f-with-argument", "omega-without-argument"])
def test_events_and_triggers_are_checked_when_built(make, reason):
    with pytest.raises(ValueError, match=reason):
        make()


# --- conditional localization -------------------------------------------------------

def test_no_crossing_returns_none():
    case = make_twobus_case()
    traj = run_simulation(case, _twobus_script(),
                          RunConfig(mode="qss", t_end=2.0))
    rec = traj.segments[0]
    cond = Condition.parse("I(1,2) > 99.0")
    assert locate_conditional_event(rec, [cond]) == []


def test_affine_condition_half_second():
    case = make_twobus_case()
    traj = run_simulation(case, _twobus_script(),
                          RunConfig(mode="qss", t_end=2.0))
    rec = traj.segments[0]
    assert rec.step >= 1.0
    cond = Condition.parse("t > 0.5")
    [(index, hit)] = locate_conditional_event(rec, [cond], tol=1e-9)
    assert index == 0
    assert hit == pytest.approx(0.5 - rec.t0, abs=1e-6)


def _per_trigger_locate(rec, conds, window, tol):
    """The loop the batched kernel replaces: each trigger scanned on its own
    grid and its first bracket refined by a kernel call of its own; every
    first root, in time order (list order on ties)."""
    hits = []
    for i, c in enumerate(conds):
        taus = np.linspace(0.0, window, 65)
        hs = np.asarray(c.h(rec.channel(c.channel, c.args, taus)), float)
        hit = 0.0 if hs[0] >= 0.0 else None
        for k in range(64 if hit is None else 0):
            a, b = hs[k], hs[k + 1]
            if b != a and (a < 0.0 <= b or a > 0.0 >= b):
                hit = float(bracketed_roots(
                    lambda j, x: c.h(rec.channel(c.channel, c.args, x)),
                    [taus[k]], [taus[k + 1]], xtol=tol)[0])
                break
        if hit is not None:
            hits.append((i, hit))
    return sorted(hits, key=lambda h: h[1])


@pytest.fixture(scope="module")
def ramp_segment():
    """First qss segment of the twobus ramp: I(1,2) rises and V(2) falls
    through it, and delta(S1) is NaN (S1 is a source)."""
    traj = run_simulation(make_twobus_case(), _twobus_script(),
                          RunConfig(mode="qss", t_end=2.0))
    rec = traj.segments[0]

    def at(chan, args, x):
        """Channel value at grid position x (0..64, fractional)."""
        return float(rec.channel(chan, args, rec.step * x / 64))

    return rec, at


@pytest.mark.parametrize("case", ["mixed", "shared", "at_zero", "nan"])
def test_batched_locate_matches_per_trigger_loop(ramp_segment, case):
    rec, at = ramp_segment
    i_at = lambda x: at("I", ("1", "2"), x)
    v_at = lambda x: at("V", ("2",), x)
    t_at = lambda x: at("t", (), x)
    conds, expected = {
        # V <, I >, t > and a t < that never fires: t at 20.5 is earliest
        "mixed": ([f"I(1,2) > {i_at(40.5)!r}", f"V(2) < {v_at(30.2)!r}",
                   f"t > {t_at(20.5)!r}", f"t < {rec.t0 - 1.0!r}",
                   "delta(S1) > 0.0"], 2),
        # four first brackets in subinterval 12; the earliest root (V at
        # 12.3) is listed second and tied with the fourth
        "shared": ([f"I(1,2) > {i_at(12.8)!r}", f"V(2) < {v_at(12.3)!r}",
                    f"I(1,2) > {i_at(50.5)!r}", f"V(2) < {v_at(12.3)!r}",
                    f"t > {t_at(12.55)!r}"], 1),
        # true at 0 beats an earlier-listed bracket in subinterval 0
        "at_zero": ([f"I(1,2) > {i_at(0.5)!r}", "V(2) < 5.0", "t > -1.0"],
                    1),
        "nan": (["delta(S1) > 0.0", "delta(S1) < 0.0"], None),
    }[case]
    conds = [Condition.parse(c) for c in conds]
    got = locate_conditional_event(rec, conds, 1e-9)
    assert (got[0][0] if got else None) == expected
    if case == "at_zero":
        assert got[0][1] == 0.0
    for order in itertools.permutations(range(len(conds))):
        perm = [conds[i] for i in order]
        assert (locate_conditional_event(rec, perm, 1e-9)
                == _per_trigger_locate(rec, perm, rec.step, 1e-9))


def test_batched_locate_refines_only_the_earliest_brackets(ramp_segment,
                                                          monkeypatch):
    rec, at = ramp_segment
    taus = np.linspace(0.0, rec.step, 65)
    calls = []

    def counting_roots(f, lo, hi, xtol, y_ends=None):
        calls.append((list(lo), list(hi)))
        return bracketed_roots(f, lo, hi, xtol, y_ends)

    monkeypatch.setattr(scheduler, "bracketed_roots", counting_roots)
    conds = [Condition.parse(c) for c in (
        f"I(1,2) > {at('I', ('1', '2'), 44.5)!r}",
        f"I(1,2) > {at('I', ('1', '2'), 9.7)!r}",
        f"I(1,2) > {at('I', ('1', '2'), 60.5)!r}",
        f"t > {at('t', (), 9.2)!r}",
        f"V(2) < {at('V', ('2',), 30.5)!r}")]
    hits = locate_conditional_event(rec, conds, 1e-9)
    # one kernel call refines every trigger's first bracket, in list order
    first = [44, 9, 60, 9, 30]
    assert calls == [([taus[k] for k in first], [taus[k + 1] for k in first])]
    assert hits == _per_trigger_locate(rec, conds, rec.step, 1e-9)
    assert [i for i, _ in hits] == [3, 1, 4, 0, 2]


_CHANNELS = [("I", ("1", "2")), ("V", ("2",)), ("t", ())]


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.tuples(
    hst.sampled_from(_CHANNELS), hst.sampled_from(["<", ">"]),
    # a threshold at a grid position: on a scan point, between two, or
    # beyond the segment (never fires, or fires at 0)
    hst.one_of(hst.integers(0, 64).map(float), hst.floats(0.0, 64.0),
               hst.sampled_from([-1e3, 1e3]))), min_size=1, max_size=6))
def test_array_triggers_match_condition_h_bit_for_bit(ramp_segment,
                                                      triggers):
    # both directions on three channels: the same hits and the same root
    # bits as Condition.h per trigger with each bracket's ends evaluated
    rec, at = ramp_segment
    conds = []
    for (chan, args), op, x in triggers:
        value = x if abs(x) == 1e3 else at(chan, args, x)
        name = f"{chan}({','.join(args)})" if args else chan
        conds.append(Condition.parse(f"{name} {op} {value!r}"))
    got = locate_conditional_event(rec, conds, 1e-9)
    want = _per_trigger_locate(rec, conds, rec.step, 1e-9)
    assert [(i, tau.hex()) for i, tau in got] \
        == [(i, tau.hex()) for i, tau in want]


def test_twobus_events_locator_makes_15_segment_evaluations(monkeypatch):
    # the benchmark's twobus-events run, seed 1: 50 record triggers on the
    # ramp.  Each locate call evaluates its segment once for the scan and
    # once per ITP iteration; the bracket ends come from the scan, and no
    # trigger goes through Condition.h
    rng = random.Random(1)
    width = (15.18 - 0.61) / 50
    thresholds = [math.sqrt(two_bus_current_sq(
        TwoBusCase(), 0.61 + (k + rng.uniform(0.1, 0.9)) * width))
        for k in range(50)]
    evaluations, inside = [], []
    channels, locate = scheduler.SegmentRecord.channels, \
        scheduler.locate_conditional_event

    def counted(rec, chans, tau):
        evaluations.extend(inside)
        return channels(rec, chans, tau)

    def counted_locate(*args):
        inside.append(1)
        try:
            return locate(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(scheduler.SegmentRecord, "channels", counted)
    monkeypatch.setattr(scheduler, "locate_conditional_event",
                        counted_locate)
    monkeypatch.setattr(Condition, "h", None)  # never called here
    traj = run_simulation(make_twobus_case(), _twobus_script(
        _record_triggers([f"I(1,2) > {x!r}" for x in thresholds])),
        RunConfig(mode="qss", t_end=15.4))
    assert traj.failure is None
    assert len([e for e in traj.events if e.kind == "conditional"]) == 50
    assert len(traj.segments) == 2
    assert len(evaluations) == 15


def test_fired_event_logs_scan_counts(caplog):
    conds = ["t > 0.5", "t > 1.25", "V(2) < 0.1"]
    script = _twobus_script([SimEvent(kind="record", label=c,
                                      condition=Condition.parse(c))
                             for c in conds])
    with caplog.at_level(logging.DEBUG, logger="hesim.scheduler"):
        traj = run_simulation(make_twobus_case(), script,
                              RunConfig(mode="qss", t_end=2.0))
    assert [e.t for e in traj.events if e.kind == "conditional"] \
        == pytest.approx([0.5, 1.25], abs=1e-6)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "hesim.scheduler" and r.levelno == logging.INFO]
    assert len(lines) == 2
    assert lines[0].startswith("conditional event at t=0.5")
    assert lines[0].endswith(": t > 0.5")
    assert lines[1].startswith("conditional event at t=1.25")
    assert lines[1].endswith(": t > 1.25")
    debug = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG]
    assert len(debug) == len(traj.segments) == 1
    assert ", 2 record triggers fired," in debug[0]


def test_threshold_crossing_matches_closed_form(monkeypatch):
    monkeypatch.setattr(scheduler, "EVENT_TOL", 1e-10)
    case = make_twobus_case()
    cond = SimEvent(kind="record", condition=Condition.parse("I(1,2) > 4.0"),
                    label="th")
    traj = run_simulation(case, _twobus_script([cond]),
                          RunConfig(mode="qss", t_end=14.0))
    hit = [e for e in traj.events if e.kind == "conditional"][0]
    t_ref = two_bus_event_time(TwoBusCase(), 4.0)
    assert abs(hit.t - t_ref) < 1e-4


def _record_triggers(conds):
    return [SimEvent(kind="record", label=c, condition=Condition.parse(c))
            for c in conds]


def test_record_triggers_do_not_end_segments(caplog):
    tb = TwoBusCase()
    thresholds = twobus_ramp_thresholds()
    config = RunConfig(mode="qss", t_end=15.4)
    plain = run_simulation(make_twobus_case(), _twobus_script(), config)
    with caplog.at_level(logging.DEBUG, logger="hesim.scheduler"):
        traj = run_simulation(make_twobus_case(), _twobus_script(
            _record_triggers([f"I(1,2) > {x!r}" for x in thresholds])),
            config)
    assert traj.failure is None
    assert len(traj.segments) == len(plain.segments)
    fired = [e for e in traj.events if e.kind == "conditional"]
    assert len(fired) == 50
    for e, x in zip(fired, thresholds):
        assert e.label == f"I(1,2) > {x!r}"
        assert abs(e.t - two_bus_event_time(tb, x)) < 1e-4
    ts = [e.t for e in traj.events]
    assert ts == sorted(ts)
    lines = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG]
    assert len(lines) == len(traj.segments)
    assert sum(int(line.split(" record triggers fired")[0].split()[-1])
               for line in lines) == 50
    assert not any("limited by trigger" in line for line in lines)


def test_record_trigger_before_a_ramp_stop_in_one_segment(monkeypatch):
    # the record fires inside the segment, which still ends at the
    # ramp_stop_load root; V(2) then stays at the stopped load level
    monkeypatch.setattr(scheduler, "EVENT_TOL", 1e-10)
    tb = TwoBusCase()
    i_rec, i_stop = (math.sqrt(two_bus_current_sq(tb, t))
                     for t in (1.0, 3.0))
    script = _twobus_script(_record_triggers([f"I(1,2) > {i_rec!r}"]) + [
        SimEvent(kind="ramp_stop_load", payload={"load": "LD2"},
                 condition=Condition.parse(f"I(1,2) > {i_stop!r}"))])
    traj = run_simulation(make_twobus_case(), script,
                          RunConfig(mode="qss", t_end=6.0))
    assert traj.failure is None
    t_rec, t_stop = (e.t for e in traj.events if e.kind == "conditional")
    assert t_rec == pytest.approx(two_bus_event_time(tb, i_rec), abs=1e-6)
    assert t_stop == pytest.approx(two_bus_event_time(tb, i_stop), abs=1e-6)
    assert [e.kind for e in traj.events] == [
        "ramp_load", "conditional", "record", "conditional", "ramp_stop_load"]
    first = traj.segments[0]
    assert first.t0 < t_rec < first.t1 == t_stop
    expect = t_stop * math.hypot(tb.p, tb.q) / math.sqrt(
        two_bus_current_sq(tb, t_stop))
    ts = np.array([4.0, 5.9])
    assert traj.sample([("V", ("2",))], ts, traj.segment_index(ts))[
        0] == pytest.approx([expect] * 2, abs=1e-9)


def test_tied_and_initially_true_record_triggers(ramp_segment):
    # one threshold twice, and a trigger true from the start
    x = math.sqrt(two_bus_current_sq(TwoBusCase(), 0.75))
    traj = run_simulation(make_twobus_case(), _twobus_script(
        _record_triggers([f"I(1,2) > {x!r}", f"I(1,2) > {x!r}", "t > -1.0"])),
        RunConfig(mode="qss", t_end=2.0))
    fired = [e.t for e in traj.events if e.kind == "conditional"]
    assert fired[0] == 0.0
    assert fired[1:] == pytest.approx([0.75] * 2, abs=1e-6)
    assert abs(fired[1] - fired[2]) <= 1e-6
    # on one segment: the trigger true at 0 first, then ties in list order
    rec, at = ramp_segment
    x = at('I', ('1', '2'), 20.5)
    conds = [Condition.parse(c) for c in (
        f"I(1,2) > {x!r}", f"t > {at('t', (), 40.5)!r}", f"I(1,2) > {x!r}",
        "t > -1.0")]
    hits = locate_conditional_event(rec, conds, 1e-9)
    assert [i for i, _ in hits] == [3, 0, 2, 1]
    assert hits[0][1] == 0.0 and hits[1][1] == hits[2][1]
    assert hits[1][1] == pytest.approx(rec.step * 20.5 / 64, abs=1e-8)
    assert hits[3][1] == pytest.approx(rec.step * 40.5 / 64, abs=1e-8)


def test_record_rooted_after_a_system_change_waits_for_it(monkeypatch,
                                                          caplog):
    # at t = 1 a second ramp doubles the load's rate, so the load level is
    # 2t - 1 from there; the record's threshold (level 2) roots at t = 2 on
    # the first segment but is reached at t = 1.5, after the new ramp
    monkeypatch.setattr(scheduler, "EVENT_TOL", 1e-10)
    tb = TwoBusCase()
    x = math.sqrt(two_bus_current_sq(tb, 2.0))
    script = _twobus_script(_record_triggers([f"I(1,2) > {x!r}"]) + [
        SimEvent(kind="ramp_load", payload={"load": "LD2", "rate": 1.0},
                 condition=Condition.parse("t > 1.0"))])
    with caplog.at_level(logging.INFO, logger="hesim.scheduler"):
        traj = run_simulation(make_twobus_case(), script,
                              RunConfig(mode="qss", t_end=4.0))
    assert traj.failure is None
    assert traj.segments[0].t1 == pytest.approx(1.0, abs=1e-9)
    assert [e.kind for e in traj.events] == [
        "ramp_load", "conditional", "ramp_load", "conditional", "record"]
    t_ramp, t_rec = (e.t for e in traj.events if e.kind == "conditional")
    assert t_ramp == pytest.approx(1.0, abs=1e-6)
    assert t_rec == pytest.approx(1.5, abs=1e-6)
    # a root found but not fired is not logged
    assert len([r for r in caplog.records
                if r.levelno == logging.INFO]) == 2


def test_events_split_segments_and_order():
    case = make_twobus_case()
    ev = [SimEvent(kind="ramp_load", t_due=0.0,
                   payload={"load": "LD2", "rate": 1.0}),
          SimEvent(kind="ramp_stop_load", t_due=1.5, payload={"load": "LD2"}),
          SimEvent(kind="record", t_due=1.5, label="tag")]
    traj = run_simulation(case, ev, RunConfig(mode="qss", t_end=3.0))
    ts = [e.t for e in traj.events]
    assert ts == sorted(ts)
    # no segment straddles t = 1.5
    for s in traj.segments:
        assert not (s.t0 < 1.5 - 1e-9 < s.t1 - 1e-9)
    # ramp stopped: the load level stays at 1.5 afterwards
    ts = np.array([2.9])
    v_end = traj.sample([("V", ("2",))], ts, traj.segment_index(ts))[0, 0]
    tb = TwoBusCase()
    i_sq = two_bus_current_sq(tb, 1.5)
    # |V2| = lam*|S| / I
    expect = 1.5 * math.hypot(0.1, 0.3) / math.sqrt(i_sq)
    assert v_end == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("what, key", [("load", "LD2"), ("gen", "G1")])
def test_ramp_stop_folds_its_ramps_into_the_base_value(fourbus, what, key):
    # two ramps on the target and one on another: the stop at t = 2 adds
    # each ramp's rate * (2 - start) to the base and drops only its own
    case, _ = fourbus
    st = init_equilibrium(case)

    def base():
        return st.load_scale[key] if what == "load" else st.mach[key].p_disp

    other = {"load": "LD3", "gen": "G2"}[what]
    start = scheduler.EVENTS[f"ramp_{what}"].action
    for t0, rate, target in ((0.0, 0.5, key), (0.5, 0.1, other),
                             (1.0, -0.2, key)):
        start(case, st, {what: target, "rate": rate}, t0)
    before = base()
    scheduler.EVENTS[f"ramp_stop_{what}"].action(case, st, {what: key}, 2.0)
    assert base() == before + 0.5 * 2.0 + (-0.2) * 1.0
    assert [r.target for r in st.ramps] == [f"{what}:{other}"]


# a machine beside a source: cutting the machine leaves the source's island
_SOURCE_AND_MACHINE = """CASE cutgen fnom=60.0
BUS 1
BUS 2
BRANCH L12 1 2 r=0.01 x=0.08 b=0.04
GEN S1 1 kind=source v=1.02
GEN G1 2 p=0.3 v=1.01
LOAD LD2 2 p=0.5 q=0.1 fz=1.0 fi=0.0 fp=0.0
"""


def test_ramp_stop_of_a_cut_generator_drops_its_ramps():
    from hesim.caseio import parse_case

    case, script = parse_case(_SOURCE_AND_MACHINE + """
EVENT 1.0 ramp_gen gen=G1 rate=0.01
EVENT 2.0 cut_gen gen=G1
EVENT 3.0 ramp_stop_gen gen=G1
STOP 4.0
""")
    traj = run_simulation(case, script, RunConfig(mode="dynamic", t_end=4.0))
    assert traj.failure is None and traj.t_end == 4.0
    assert [e.kind for e in traj.events] == [
        "ramp_gen", "cut_gen", "ramp_stop_gen"]


def test_param_branch_without_b_keeps_the_present_charging():
    # fourbus L12 has b = 0.04: an omitted b= keeps the case value, or the
    # override's where an earlier event set one
    from importlib import resources

    from hesim.caseio import parse_case

    lines = ["EVENT 1.0 param_branch branch=L12 r=0.01 x=0.08",
             "EVENT 2.0 param_branch branch=L12 r=0.012 x=0.09 b=0.4",
             "EVENT 3.0 param_branch branch=L12 r=0.01 x=0.08"]
    text = resources.files("hesim.cases").joinpath("fourbus.case").read_text()
    case, script = parse_case(text.replace(
        "STOP 500.0", "\n".join(lines + ["STOP 500.0"])))
    st = init_equilibrium(case)
    v0 = st.v.copy()
    for ev, want in zip(script[-4:-1], [(0.01, 0.08, 0.04),
                                        (0.012, 0.09, 0.4),
                                        (0.01, 0.08, 0.4)]):
        scheduler.EVENTS[ev.kind].action(case, st, ev.payload, ev.t_due)
        assert st.branch_overrides["L12"] == want
        if ev.t_due == 1.0:  # the case's own parameters: nothing moves
            assert np.max(np.abs(st.v - v0)) < 1e-9


# --- hybrid mode behavior ----------------------------------------------------------

def test_empty_script_switches_to_qss_after_first_segment(fourbus):
    case, _ = fourbus
    traj = run_simulation(case, [], RunConfig(mode="hybrid", t_end=5.0))
    switches = [e for e in traj.events if e.kind == "mode_switch"]
    assert switches and switches[0].label == "dyn->qss"
    assert switches[0].t <= 2.0
    assert traj.segments[-1].mode == QSS
    assert "verdict" in switches[0].info
    assert switches[0].info["verdict"].system_steady


def test_every_switch_carries_steady_verdict(fourbus_hybrid):
    for ev in fourbus_hybrid.events:
        if ev.kind == "mode_switch" and ev.label == "dyn->qss":
            v = ev.info.get("verdict")
            assert isinstance(v, SteadyStateVerdict) and v.system_steady


def test_switch_events_revert_to_dynamic_first(fourbus_hybrid):
    evs = fourbus_hybrid.events
    for i, ev in enumerate(evs):
        if ev.kind in ("add_load", "cut_load") and ev.t > 1.0:
            prev = [e for e in evs[:i] if e.t == ev.t
                    and e.kind == "mode_switch" and e.label == "qss->dyn"]
            seg_mode = fourbus_hybrid.segments[
                fourbus_hybrid.segment_index(ev.t - 1e-6)].mode
            if seg_mode == QSS:
                assert prev, f"event at {ev.t} did not revert first"


def test_finished_records_are_read_only(fourbus_hybrid):
    # evaluate reads one table built with the segment; a write into its
    # rows would leave that table stale
    for rec in (fourbus_hybrid.segments[0], fourbus_hybrid.segments[-1]):
        for rows in (rec.sol.pade_den, rec.sol.pade_num, rec.sol.kcoeffs):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0


def test_finished_records_hold_only_their_table(fourbus_hybrid):
    # the series goes to the verdict and no further: every array a finished
    # segment keeps is its evaluation table or a view of it
    for rec in fourbus_hybrid.segments:
        arrays = [v for v in vars(rec.sol).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 4
        assert all(np.shares_memory(a, rec.sol.table) for a in arrays)


def test_event_log_times_nondecreasing(fourbus_hybrid):
    ts = [e.t for e in fourbus_hybrid.events]
    assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))


def test_qss_fraction_and_fidelity(fourbus_hybrid, fourbus_dynamic):
    assert fourbus_hybrid.qss_fraction() > 0.7
    ts = np.arange(0.0, 500.0001, 0.5)
    f_h, f_d = (traj.sample([("f", ())], ts, traj.segment_index(ts))[0]
                for traj in (fourbus_hybrid, fourbus_dynamic))
    assert np.max(np.abs(f_h - f_d)) < 0.02


# --- mode switch state mapping -----------------------------------------------------

def _equilibrium_segment(case, st):
    """(built, segment, its series) of one segment from st."""
    built = build_system(case, st)
    seg, C = solve_segment(built.system, built.anchors(st),
                           built.knowns(st, st.t), 15, 1e-8, 1.0)
    return built, seg, C


def _equilibrium_verdict(case, st):
    return steadiness_verdict(st, *_equilibrium_segment(case, st), 1e-3)


def test_roundtrip_dyn_qss_dyn_at_equilibrium(fourbus):
    case, _ = fourbus
    st = init_equilibrium(case)
    before_v = st.v.copy()
    before = {g: (m.delta, m.omega, m.eps_q, m.eps_d, m.avr, m.gov, m.agc)
              for g, m in st.mach.items()}
    verdict = _equilibrium_verdict(case, st)
    assert verdict.system_steady
    mode_switch(case, st, "dyn->qss")
    assert st.mode == QSS
    assert np.max(np.abs(st.v - before_v)) < 1e-6  # PV conversion consistency
    mode_switch(case, st, "qss->dyn")
    assert st.mode == DYNAMIC
    assert np.max(np.abs(st.v - before_v)) < 1e-8
    for g, vals in before.items():
        after = st.mach[g]
        got = (after.delta, after.omega, after.eps_q, after.eps_d,
               after.avr, after.gov, after.agc)
        assert np.max(np.abs(np.array(got) - np.array(vals))) < 1e-8


def test_each_segment_logs_one_debug_line(caplog):
    # a timed load step bounds one step by its gap
    script = [SimEvent(kind="cut_load", t_due=1.5, payload={"load": "LD2"})]
    config = RunConfig(mode="dynamic", t_end=4.0)
    with caplog.at_level(logging.INFO, logger="hesim.scheduler"):
        run_simulation(make_smib(), script, config)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="hesim.scheduler"):
        traj = run_simulation(make_smib(), script, config)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "hesim.scheduler"]
    assert len(lines) == len(traj.segments) > 2
    for line, rec in zip(lines, traj.segments):
        assert line.startswith(f"segment at t={rec.t0:.9g}: dynamic, "
                               f"order {config.order}, t_e ")
        assert f", step {rec.step:.6g}, limited by " in line
        assert line.endswith(" rows refitted")
    limits = {line.split("limited by ")[1].split(",")[0] for line in lines}
    assert "gap" in limits and limits <= {"gap", "cap", "pole", "residual",
                                          "trigger"}


def test_each_record_keeps_the_limiter_its_debug_line_names(fourbus,
                                                            caplog):
    case, script = fourbus
    with caplog.at_level(logging.DEBUG, logger="hesim.scheduler"):
        traj = run_simulation(case, script,
                              RunConfig(mode="hybrid", t_end=75.0))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("segment at ")]
    assert traj.failure is None and len(lines) == len(traj.segments)
    assert [rec.limiter for rec in traj.segments] == [
        line.split("limited by ")[1].split(",")[0] for line in lines]
    counts = {}
    for rec in traj.segments:
        counts.setdefault(rec.mode, collections.Counter())[rec.limiter] += 1
    assert {mode: c.total() for mode, c in counts.items()} \
        == traj.segment_counts()
    assert set(counts) == {DYNAMIC, QSS} and len(counts[DYNAMIC]) > 1


def _failing_speed_segment(steady_seg, C, built):
    """(segment, series) with one speed row out of the verdict: PS reads
    0.5, and its denominator 1 - 2t/t_e turns negative, so PA is
    undefined."""
    i = built.system.index["omega:G1"]
    C = C.copy()
    C[i, 1:] = 0.0
    C[i, 1] = 0.5
    den = steady_seg.pade_den.copy()
    den[i, 1:] = 0.0
    den[i, 1] = -2.0 / steady_seg.t_e
    return dataclasses.replace(steady_seg, pade_den=den), C


def _drifting(C, row):
    """The series with one row drifting at 0.5 per second."""
    C = C.copy()
    C[row, 1] += 0.5
    return C


def _non_reference_angle(built):
    """(row, verdict name) of the first rotor angle that is not its own
    island's reference."""
    rows = built.monitored
    k = np.flatnonzero(rows.angles != rows.refs)[0]
    return rows.angles[k], rows.names[len(rows.plain) + k]


def test_failing_verdict_logs_one_debug_line(fourbus, caplog):
    case, _ = fourbus
    st = init_equilibrium(case)
    st.t = 12.5
    built, steady_seg, steady_C = _equilibrium_segment(case, st)
    seg, C = _failing_speed_segment(steady_seg, steady_C, built)
    with caplog.at_level(logging.INFO, logger="hesim.scheduler"):
        assert not steadiness_verdict(st, built, seg, C, 1e-3).system_steady
    assert not caplog.records
    row, angle = _non_reference_angle(built)
    with caplog.at_level(logging.DEBUG, logger="hesim.scheduler"):
        assert steadiness_verdict(st, built, steady_seg, steady_C,
                                  1e-3).system_steady
        verdict = steadiness_verdict(st, built, seg, C, 1e-3)
        full = steadiness_verdict(st, built, steady_seg,
                                  _drifting(steady_C, row), 1e-3)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "hesim.scheduler"]
    # a plain row decides at stage 1; a relative angle only at stage 2
    assert len(verdict.names) == len(built.monitored.plain)
    assert len(full.names) == len(built.monitored.names)
    assert lines[0] == (
        f"not steady at t=12.5: 1 of {len(verdict.names)} rows (plain rows; "
        "the derived rows were not built): omega:G1 (PS 0.5, PA undefined)")
    assert len(lines) == 2 and lines[1].startswith(
        f"not steady at t=12.5: 1 of {len(full.names)} rows: {angle} (PS 0.5")


def test_derived_rows_decide_when_every_plain_row_is_steady(fourbus):
    # stage 2: every plain row steady, but one relative rotor angle (and,
    # separately, one bus voltage's V^2) drifts; neither is a plain row
    case, _ = fourbus
    st = init_equilibrium(case)
    built, steady_seg, steady_C = _equilibrium_segment(case, st)
    rows = built.monitored
    n_plain, n_angles = len(rows.plain), len(rows.angles)
    for row, name in (_non_reference_angle(built),
                      (rows.vx[0], rows.names[n_plain + n_angles])):
        verdict = steadiness_verdict(st, built, steady_seg,
                                     _drifting(steady_C, row), 1e-3)
        assert verdict.steady[:n_plain].all()
        assert not verdict.system_steady
        assert verdict.names == rows.names
        assert [verdict.names[i] for i in np.flatnonzero(~verdict.steady)] \
            == [name]


@pytest.mark.parametrize("name, t_end", [("fourbus", 0.0), ("ne39", 62.0)])
def test_no_angle_is_checked_against_itself(name, t_end, monkeypatch):
    # ne39 starts with one machine; its restoration adds G31 at 60 s
    case, script = builtin_case(name)
    st = init_equilibrium(case)
    if t_end:
        run_from(monkeypatch, case, script,
                 RunConfig(mode="hybrid", t_end=t_end), st)
    built = build_system(case, st)
    rows = built.monitored
    assert len(rows.angles) and not np.any(rows.angles == rows.refs)
    # each island's reference angle is neither a pair nor a plain row
    _, angles = monitored_names(built)
    refs = {built.system.index[ref] for ref, _ in angles.values()}
    assert refs.isdisjoint(rows.plain)
    assert len(rows.angles) == sum(len(n) for _, n in angles.values()) \
        - len(refs)


def test_no_switch_to_qss_where_a_timed_switch_is_due():
    # ne39's restoration steps are timed switches; a dyn->qss switch at one
    # of them would switch straight back and back-initialize every machine
    case, script = builtin_case("ne39")
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=56.0))
    assert traj.failure is None
    due = [ev.t_due for ev in script
           if ev.t_due is not None and scheduler.EVENTS[ev.kind].switch]
    to_qss = [ev.t for ev in traj.events
              if ev.kind == "mode_switch" and ev.label == "dyn->qss"]
    assert due and to_qss
    assert not [t for t in to_qss if any(abs(t - d) <= 1e-9 for d in due)]


def test_failing_plain_row_builds_no_derived_rows(fourbus, monkeypatch):
    case, _ = fourbus
    st = init_equilibrium(case)
    built, steady_seg, steady_C = _equilibrium_segment(case, st)
    calls = []

    def counted(*args):
        calls.append(args)
        return batch_pade(*args)

    monkeypatch.setattr(scheduler, "batch_pade", counted)
    seg, C = _failing_speed_segment(steady_seg, steady_C, built)
    assert not steadiness_verdict(st, built, seg, C, 1e-3).system_steady
    assert calls == []
    assert steadiness_verdict(st, built, steady_seg, steady_C,
                              1e-3).system_steady
    assert len(calls) == 1


def _one_table_verdict(built, seg, C, eps_t):
    """The verdict as one table: every monitored row, the derived rows (angles
    relative to their island's reference, V^2) Pade'd in one call."""
    idx = built.system.index
    order = C.shape[1] - 1
    names, angles = monitored_names(built)
    plain = [idx[n] for n in names]
    # the reference against itself is zero
    derived = [C[idx[name]] - C[idx[ref]]
               for ref, isl_angles in angles.values()
               for name in isl_angles if name != ref]
    for isl in built.islands:
        for b in isl.buses:
            if f"vx:{b}" in idx:
                vx, vy = C[idx[f"vx:{b}"]], C[idx[f"vy:{b}"]]
                derived.append((np.convolve(vx, vx)
                                + np.convolve(vy, vy))[: order + 1])
    d_num, d_den = batch_pade(np.array(derived), order // 2, order // 2)
    return steady_state_check(np.vstack([C[plain], derived]),
                              np.vstack([padded(seg.pade_num[plain],
                                                d_num.shape[1]), d_num]),
                              np.vstack([padded(seg.pade_den[plain],
                                                d_den.shape[1]), d_den]),
                              seg.t_e, eps_t)


def test_two_stage_verdict_matches_one_table_reference(fourbus, monkeypatch):
    # fourbus hybrid 0-40 s: a passing verdict at 1.8 s, then twenty failing
    # ones after the load step at 30 s
    case, script = fourbus
    seen = []

    def verdict(state, built, seg, C, eps_t):
        out = steadiness_verdict(state, built, seg, C, eps_t)
        seen.append((built, seg, C, eps_t, out))
        return out

    monkeypatch.setattr(scheduler, "steadiness_verdict", verdict)
    run_simulation(case, script, RunConfig(mode="hybrid", t_end=40.0))
    outcomes = [out.system_steady for *_, out in seen]
    assert outcomes.count(True) >= 2 and outcomes.count(False) >= 10
    for built, seg, C, eps_t, out in seen:
        delta_ps, delta_pa, steady = _one_table_verdict(built, seg, C, eps_t)
        assert out.system_steady == bool(steady.all())
        # the plain rows bit for bit; the derived rows' V^2 is summed in
        # another order here
        n = len(built.monitored.plain)
        assert len(out.steady) in (n, len(steady))
        assert np.array_equal(out.delta_ps[:n], delta_ps[:n])
        assert np.array_equal(out.delta_pa[:n], delta_pa[:n], equal_nan=True)
        assert np.allclose(out.delta_ps[n:], delta_ps[n: len(out.steady)],
                           rtol=1e-6, atol=1e-15)


def test_qss_to_dyn_then_flat(fourbus, monkeypatch):
    case, _ = fourbus
    st = init_equilibrium(case, mode=QSS)
    mode_switch(case, st, "qss->dyn")
    traj = run_from(monkeypatch, case, [],
                    RunConfig(mode="dynamic", t_end=5.0), st)
    assert traj.failure is None
    ts = np.linspace(0, 5, 26)
    f, *vs = traj.sample([("f", ())] + [("V", (b,)) for b in "1234"], ts,
                         traj.segment_index(ts))
    assert np.max(np.abs(f - 60.0)) < 1e-6
    for v in vs:
        assert np.max(np.abs(v - v[0])) < 1e-6


# --- islanding and collapse -----------------------------------------------------------

def _two_island_case():
    return GridCase(
        name="tie", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2), BusSpec(3), BusSpec(4)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.05),
                  BranchSpec("tie", 2, 3, 0.01, 0.08),
                  BranchSpec("b", 3, 4, 0.01, 0.05)],
        gens=[GenSpec("g1", 1, p_set=0.4, v_set=1.02)],
        loads=[LoadSpec("l2", 2, 0.2, 0.05, 0, 0, 1),
               LoadSpec("l4", 4, 0.15, 0.05, 0.5, 0, 0.5)],
    )


@pytest.mark.parametrize("make, events, t, reason", [
    ("fourbus", ["add_load load=LD2"], 1.0, "load LD2 is already online"),
    ("fourbus", ["add_gen gen=G1"], 1.0, "generator G1 is already online"),
    ("fourbus", ["add_branch branch=L12"], 1.0,
     "branch L12 is already online"),
    ("fourbus", ["cut_load load=LX2"], 1.0, "load LX2 is already offline"),
    ("fourbus", ["cut_branch branch=L23B"] * 2, 2.0,
     "branch L23B is already offline"),
    ("machine", ["cut_gen gen=G1"] * 2, 2.0,
     "generator G1 is already offline"),
    ("tie", ["cut_branch branch=tie", "cut_load load=l4"], 2.0,
     "load l4 is already offline"),  # l4 collapsed with its island
], ids=["add-online-load", "add-online-gen", "add-online-branch",
        "cut-offline-load", "cut-offline-branch", "cut-offline-gen",
        "cut-collapsed-load"])
def test_switch_to_the_status_an_element_has_fails_by_name(make, events, t,
                                                           reason):
    # a switch must change its element's status; the failure names the
    # element and its status before any continuation runs
    from hesim.caseio import parse_case

    case = {"fourbus": lambda: builtin_case("fourbus")[0],
            "machine": lambda: parse_case(_SOURCE_AND_MACHINE)[0],
            "tie": _two_island_case}[make]()
    script = []
    for k, line in enumerate(events):
        kind, arg = line.split()
        key, value = arg.split("=")
        script.append(SimEvent(kind=kind, t_due=1.0 + k,
                               payload={key: value}))
    traj = run_simulation(case, script, RunConfig(mode="dynamic", t_end=3.0))
    assert traj.failure == f"{events[-1]} at t={t:.6f}: {reason}"
    assert traj.t_end == t


def test_cut_tie_collapses_sourceless_island():
    case = _two_island_case()
    script = [SimEvent(kind="cut_branch", t_due=1.0,
                       payload={"branch": "tie"})]
    traj = run_simulation(case, script,
                          RunConfig(mode="dynamic", t_end=4.0))
    assert traj.failure is None
    cut = [e for e in traj.events if e.kind == "cut_branch"][0]
    assert "load:l4" in cut.info["collapsed"]
    # the surviving island keeps running
    ts = np.array([3.9])
    (v2,), (v4,) = traj.sample([("V", ("2",)), ("V", ("4",))], ts,
                               traj.segment_index(ts))
    assert 0.9 < v2 < 1.1
    assert v4 == 0.0


@pytest.mark.parametrize("mode", ["dynamic", "hybrid"])
def test_black_start_closes_its_online_branches(mode):
    # the collapse leaves L12 online; the restarted machine closes it into
    # the dead bus 2 instead of treating that bus as grounded
    case = GridCase(
        name="blackstart", f_nominal=60.0, buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.08, 0.04)],
        gens=[GenSpec("G1", 1, p_set=0.3, v_set=1.02)],
        loads=[LoadSpec("LD2", 2, 0.3, 0.1, 1.0, 0.0, 0.0)])
    script = [SimEvent(kind="cut_gen", t_due=1.0, payload={"gen": "G1"}),
              SimEvent(kind="add_gen", t_due=2.0, payload={"gen": "G1"})]
    traj = run_simulation(case, script, RunConfig(mode=mode, t_end=4.0))
    assert traj.failure is None
    ts = np.array([1.5, 3.9])
    v1, v2 = traj.sample([("V", ("1",)), ("V", ("2",))], ts,
                         traj.segment_index(ts))
    assert v1[0] == v2[0] == 0.0
    assert 0.95 < v1[1] < 1.05 and abs(v2[1] - v1[1]) < 0.01


def test_q_limit_converts_pv_to_pq():
    case = GridCase(
        name="qlim", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.08)],
        gens=[GenSpec("g", 1, p_set=0.5, v_set=1.05, q_max=0.2)],
        loads=[LoadSpec("l", 2, 0.5, 0.3, 0, 0, 1),
               LoadSpec("lx", 2, 0.0, 0.25, 0, 0, 1, status=0)],
    )
    script = [SimEvent(kind="add_load", t_due=2.0, payload={"load": "lx"})]
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=30.0))
    assert traj.failure is None
    hits = [e for e in traj.events if e.kind == "q_limit"]
    assert hits, "expected the reactive limit to engage"
    # PV magnitude released: terminal voltage drops below the setpoint
    ts = np.array([traj.t_end - 0.1])
    v1 = traj.sample([("V", ("1",))], ts, traj.segment_index(ts))[0, 0]
    assert v1 < 1.05 - 1e-4


def test_q_limit_fix_drops_the_built_of_the_qss_segments(monkeypatch):
    # qss 0-60 s: the machine's reactive output is above its limit, so the
    # fix at the end of the first 30 s segment makes its bus PQ, and the
    # next segment builds the system afresh (it then starts from the PV
    # state and fails: ROADMAP item 6)
    case = GridCase(
        name="qlim", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("a", 1, 2, 0.01, 0.08)],
        gens=[GenSpec("g", 1, p_set=0.5, v_set=1.05, q_max=0.2)],
        loads=[LoadSpec("l", 2, 0.5, 0.3, 0, 0, 1)],
    )
    built_at, build = [], scheduler.build_system

    def building(case, st, mods=None):
        built_at.append((st.t, st.mach["g"].q_fixed))
        return build(case, st, mods)

    monkeypatch.setattr(scheduler, "build_system", building)
    traj = run_simulation(case, [], RunConfig(mode="qss", t_end=60.0))
    assert [e.t for e in traj.events if e.kind == "q_limit"] == [30.0]
    assert built_at == [(0.0, None), (30.0, 0.2)]


# --- qualitative trajectory shapes ---------------------------------------------------

def test_frequency_shows_agc_restoration_shape(fourbus_hybrid):
    # after each load pickup the frequency sags, then the AGC pulls it back
    # toward nominal before the next event
    ts_dip = np.linspace(30.0, 36.0, 61)
    ts_rec = np.linspace(56.0, 59.9, 20)
    f_dip, f_rec = (fourbus_hybrid.sample(
        [("f", ())], ts, fourbus_hybrid.segment_index(ts))[0]
        for ts in (ts_dip, ts_rec))
    assert f_dip.min() < 59.9          # visible sag
    assert np.all(np.abs(f_rec - 60.0) < 0.01)  # restored before the cut


def test_speed_envelope_decays_on_small_signal_case(monkeypatch):
    # positive damping: successive |omega| peaks shrink monotonically
    case = make_smib()
    st = init_equilibrium(case)
    st.mach["G1"].delta += 0.02
    built = build_system(case, st)
    from hesim.model import refine_state
    refine_state(built, st)
    traj = run_from(monkeypatch, case, [],
                    RunConfig(mode="dynamic", t_end=6.0), st)
    ts = np.linspace(0.0, 6.0, 1200)
    w = np.abs(traj.sample([("omega", ("G1",))], ts,
                           traj.segment_index(ts))[0])
    peaks = [w[i] for i in range(1, len(w) - 1)
             if w[i] >= w[i - 1] and w[i] >= w[i + 1] and w[i] > 1e-9]
    assert len(peaks) >= 3
    assert all(b < a * 1.001 for a, b in zip(peaks, peaks[1:]))


def test_fault_apply_and_clear_rides_through():
    # bolted-ish fault at the machine bus for 100 ms, then cleared: the
    # machine swings and settles back near the pre-fault point
    case = make_smib()
    script = [
        SimEvent(kind="add_shunt", t_due=1.0,
                 payload={"bus": "1", "g": 0.0, "b": -30.0}, label="fault"),
        SimEvent(kind="add_shunt", t_due=1.1,
                 payload={"bus": "1", "g": 0.0, "b": 30.0}, label="clear"),
    ]
    traj = run_simulation(case, script, RunConfig(mode="dynamic", t_end=9.0))
    assert traj.failure is None
    ts = np.array([1.05, 8.9])
    (v1, v_end), (_, w_end) = traj.sample(
        [("V", ("1",)), ("omega", ("G1",))], ts, traj.segment_index(ts))
    assert v1 < 0.6                      # depressed during the fault
    assert abs(w_end) < 2e-4             # settled afterwards
    assert v_end == pytest.approx(1.02, abs=0.01)


def test_conditional_event_trips_branch(fourbus):
    case, _ = fourbus
    script = [
        SimEvent(kind="add_load", t_due=5.0, payload={"load": "LX2"}),
        SimEvent(kind="cut_branch", payload={"branch": "L23B"},
                 condition=Condition.parse("I(L23A) > 0.04"), label="trip"),
    ]
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=20.0))
    assert traj.failure is None
    trips = [e for e in traj.events if e.kind == "cut_branch"]
    # the load step pushes the corridor current through the threshold at the
    # event instant itself, so the trigger resolves right there
    assert trips and trips[0].t >= 5.0
    conds = [e for e in traj.events if e.kind == "conditional"]
    assert conds and conds[0].t == trips[0].t
    # the corridor now runs on one circuit: per-branch current doubles
    ts = np.array([19.9])
    i_end = traj.sample([("I", ("L23A",))], ts, traj.segment_index(ts))[0, 0]
    assert i_end > 0.075


def test_hybrid_run_is_deterministic(fourbus):
    from hesim.caseio import write_trajectory

    case, script = fourbus
    texts = []
    for _ in range(2):
        traj = run_simulation(case, script,
                              RunConfig(mode="hybrid", t_end=70.0))
        texts.append(write_trajectory(traj, 0.5))
    assert texts[0] == texts[1]


# --- the anchor handoff ---------------------------------------------------------------

def _handoff_run(monkeypatch, name, mode, t_end):
    """Run a built-in case from an initialized state, with spies on every
    time build and its anchor reads (by (mode, epoch) at the call), every
    refine and every segment solve.  An epoch is the stretch between two
    state changes, counted by spies too: a switch event, a Q-limit fix or
    a mode entry.  A refine's handed vector and a segment's anchor are
    compared with the anchors read from the state."""
    from hesim import model as mdl

    case, script = builtin_case(name)
    state = init_equilibrium(case)  # its mode entry is not the run's
    epoch = [0]
    builds, reads = collections.Counter(), collections.Counter()
    refines, starts = [], []  # max |diff|; (from a refine?, max |diff|)
    builts, handed = {}, {}  # id(system) -> time Built; last handed vector
    build, read = mdl.build_system, mdl.Built.anchors
    refine, solve = mdl.refine_state, scheduler.solve_segment
    enter, fix, execute = (mdl._enter_mode, mdl.fix_q_limits,
                           scheduler._execute_event)

    def entering(case, st, mode):
        epoch[0] += 1
        return enter(case, st, mode)

    def fixing(case, st):
        fixed = fix(case, st)
        epoch[0] += bool(fixed)
        return fixed

    def executing(case, st, ev, *args):
        running = execute(case, st, ev, *args)
        epoch[0] += scheduler.EVENTS[ev.kind].switch
        return running

    def building(case, st, mods=None):
        built = build(case, st, mods)
        if mods is None:
            builds[st.mode, epoch[0]] += 1
            builts[id(built.system)] = built  # alive, so ids stay unique
        return built

    def reading(self, st):
        if id(self.system) in builts:
            reads[self.mode, epoch[0]] += 1
        return read(self, st)

    def refining(built, st, *args, **kwargs):
        x = refine(built, st, *args, **kwargs)
        handed[id(built.system)] = x
        refines.append(np.max(np.abs(x - read(built, st)), initial=0.0))
        return x

    def solving(system, anchors, *args, **kwargs):
        diff = anchors - read(builts[id(system)], state)
        starts.append((handed.get(id(system)) is anchors,
                       np.max(np.abs(diff), initial=0.0)))
        return solve(system, anchors, *args, **kwargs)

    for owner in (mdl, scheduler):
        monkeypatch.setattr(owner, "build_system", building)
        monkeypatch.setattr(owner, "refine_state", refining)
    monkeypatch.setattr(mdl, "_enter_mode", entering)
    monkeypatch.setattr(mdl, "fix_q_limits", fixing)
    monkeypatch.setattr(scheduler, "_execute_event", executing)
    monkeypatch.setattr(mdl.Built, "anchors", reading)
    monkeypatch.setattr(scheduler, "solve_segment", solving)
    traj = run_from(monkeypatch, case, script,
                    RunConfig(mode=mode, t_end=t_end), state)
    assert traj.failure is None
    return traj, builds, reads, refines, starts


def test_each_epoch_is_built_once_and_read_from_the_state_once(monkeypatch):
    # fourbus hybrid 0-100 s: a mode entry seeds its epoch with the Built it
    # refined; each segment starts from the vector the last refine handed
    # over, so only an epoch no refine touched is read from the state
    traj, builds, reads, _, _ = _handoff_run(monkeypatch, "fourbus",
                                             "hybrid", 100.0)
    switches = [e for e in traj.events if e.kind == "mode_switch"]
    assert len(switches) >= 4 and len(traj.segments) >= 40
    assert max(builds.values()) == 1 and max(reads.values()) == 1
    assert set(reads) == set(builds)


@pytest.mark.parametrize("name, mode, t_end", [
    ("fourbus", "hybrid", 75.0), ("fourbus", "dynamic", 75.0),
    ("ne39", "hybrid", 56.0), ("ne39", "dynamic", 56.0)])
def test_refined_vector_is_the_anchors_of_the_state(monkeypatch, name, mode,
                                                    t_end):
    # the handed vector stands for the state it wrote: its rotor-angle sines
    # and cosines re-read, its algebraic unknowns polished to one root; and
    # no change to what the anchors read leaves a stale pair in the cache
    traj, _, _, refines, starts = _handoff_run(monkeypatch, name, mode, t_end)
    assert len(refines) >= len(traj.segments)
    assert max(refines) <= 1e-9
    assert max(diff for _, diff in starts) <= 1e-9


def test_segment_after_an_event_starts_from_the_new_epochs_anchors(
        monkeypatch):
    # fourbus hybrid 0-75 s: the load steps at 30 s and 60 s each end an
    # epoch with an alpha solve that no refine follows
    traj, _, _, _, starts = _handoff_run(monkeypatch, "fourbus", "hybrid",
                                         75.0)
    read = [diff for handed, diff in starts if not handed]
    assert len(read) == 3  # the start and the two load steps
    assert read == [0.0] * 3
    assert len(starts) == len(traj.segments)


@pytest.mark.parametrize("name, t_end", [("fourbus", 75.0), ("ne39", 56.0)])
def test_verdict_waits_the_dwell_after_the_start_and_each_switch(
        monkeypatch, name, t_end):
    # hybrid: steadiness is checked no sooner than DWELL after the run start
    # or the last switch event, and the rule binds
    case, script = builtin_case(name)
    at, verdict = [], scheduler.steadiness_verdict

    def judging(state, *args):
        at.append(state.t)
        return verdict(state, *args)

    monkeypatch.setattr(scheduler, "steadiness_verdict", judging)
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=t_end))
    assert traj.failure is None
    kinds = scheduler.EVENTS
    switches = [e.t for e in traj.events
                if e.kind in kinds and kinds[e.kind].switch]
    assert switches and len(at) >= 20
    gaps = [t - max([0.0] + [s for s in switches if s <= t + 1e-12])
            for t in at]
    assert min(gaps) >= scheduler.DWELL - 1e-9
    assert any(abs(g - scheduler.DWELL) <= 1e-9 for g in gaps)


# --- random event scripts -------------------------------------------------------

_FOURBUS_EVENTS = (
    [(kind, {"branch": b}) for kind in ("add_branch", "cut_branch")
     for b in ("L12", "L23A", "L23B", "L34")]
    + [(kind, {"load": ld}) for kind in ("add_load", "cut_load")
       for ld in ("LD2", "LD3", "LX2", "LX3")]
    + [(kind, {"gen": g}) for kind in ("add_gen", "cut_gen")
       for g in ("G1", "G2")]
    + [("param_branch", {"branch": "L23A", "r": 0.02, "x": 0.15}),
       ("add_shunt", {"bus": "3", "g": 0.0, "b": 0.2}),
       ("ramp_load", {"load": "LD2", "rate": 0.005}),
       ("ramp_gen", {"gen": "G1", "rate": 0.005})])
_RUN_STEPS = ("initialization", "dynamic segment", "qss segment",
              "state refinement", "dyn->qss switch")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode=hst.sampled_from(["hybrid", "dynamic", "qss"]),
       events=hst.lists(hst.tuples(hst.sampled_from(_FOURBUS_EVENTS),
                                   hst.floats(0.5, 29.5)),
                        min_size=2, max_size=5))
def test_random_fourbus_scripts_fail_by_name_and_certify_every_segment(
        mode, events):
    # most scripts fail (an element already online, or a generator or its
    # tie lost): a failure must name its step, and every segment the run
    # kept must hold its range certificate and sample finite
    case, _ = builtin_case("fourbus")
    script = [SimEvent(kind=kind, t_due=t, payload=dict(payload))
              for (kind, payload), t in events]
    config = RunConfig(mode=mode, t_end=30.0)
    traj = run_simulation(case, script, config)
    if traj.failure is not None:
        steps = _RUN_STEPS + tuple(map(str, script))
        assert traj.failure.startswith(
            tuple(f"{step} at t=" for step in steps)), traj.failure
    for rec in traj.segments:
        worst = np.max(rec.sol.residual_max_at(
            np.linspace(0.0, rec.step, 64)))
        assert worst <= config.tol_res, (rec.mode, rec.t0, rec.step, worst)
    if traj.segments:
        ts = traj.sample_times(config.dt_out)
        chans = [("f", ())] + [("V", (str(b.bus),)) for b in case.buses]
        assert np.all(np.isfinite(traj.sample(chans, ts,
                                              traj.segment_index(ts))))
