"""Case/trajectory text formats and the built-in fixtures."""

import numpy as np
import pytest

from hesim.caseio import (
    builtin_case,
    parse_case,
    parse_trajectory,
    trajectory_channels,
    write_case,
    write_trajectory,
)
from hesim.errors import ParseError, ValidationError
from hesim.scheduler import RunConfig, run_simulation


def test_builtin_twobus_parameters():
    case, script = builtin_case("twobus")
    assert case.gens[0].v_set == 1.01
    br = case.branches[0]
    assert (br.r, br.x) == (0.01, 0.05)
    load = case.loads[0]
    assert (load.p, load.q) == (0.1, 0.3)
    ramps = [e for e in script if e.kind == "ramp_load"]
    assert ramps and ramps[0].payload["rate"] == 1.0


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
        parse_case("CASE x\nBUS 1 v=abc\n")


def test_parse_line_numbers_in_errors():
    try:
        parse_case("CASE x\nBUS 1\nBRANCH b 1\n")
    except ParseError as exc:
        assert exc.line_no == 3
    else:
        raise AssertionError("expected ParseError")


def test_case_roundtrip_semantic_identity():
    for name in ("twobus", "fourbus", "ne39"):
        case, script = builtin_case(name)
        text = write_case(case, script)
        case2, script2 = parse_case(text)
        assert case2.buses == case.buses
        assert case2.branches == case.branches
        assert case2.gens == case.gens
        assert case2.loads == case.loads
        assert len(script2) == len(script)
        for a, b in zip(script, script2):
            assert (a.kind, a.t_due, a.payload) == (b.kind, b.t_due, b.payload)
        # canonical emission is a fixed point
        assert write_case(case2, script2) == text


def test_conditional_event_roundtrip():
    case, script = builtin_case("twobus")
    conds = [e for e in script if e.condition is not None]
    assert conds and conds[0].condition.text == "I(1,2) > 3.0"
    text = write_case(case, script)
    _, script2 = parse_case(text)
    conds2 = [e for e in script2 if e.condition is not None]
    assert conds2[0].condition.rhs == 3.0


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


def test_current_trigger_without_branch_rejected():
    with pytest.raises(ParseError, match="no branch joins buses 1 and 3"):
        parse_case(_fourbus_with_trigger("I(1,3) > 0.5"))
    with pytest.raises(ParseError, match="names no branch"):
        parse_case(_fourbus_with_trigger("I(L99) > 0.5"))


# --- trajectory files --------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run():
    case, script = builtin_case("twobus")
    traj = run_simulation(case, script, RunConfig(mode="qss", t_end=3.0))
    return traj


def test_flat_run_constant_columns():
    case, _ = builtin_case("twobus")
    traj = run_simulation(case, [], RunConfig(mode="qss", t_end=2.0))
    text = write_trajectory(traj, 0.5)
    names, ts, modes, data, events = parse_trajectory(text)
    for j in range(data.shape[1]):
        col = data[:, j]
        assert np.all(col == col[0])


def test_write_samples_match_segment_eval(small_run):
    text = write_trajectory(small_run, 0.25)
    names, ts, modes, data, events = parse_trajectory(text)
    j = names.index("V:2") - 2  # columns after time, mode
    for k, t in enumerate(ts):
        rec = small_run.record_for(t)
        tau = min(max(t - rec.t0, 0.0), rec.step)
        expect = rec.channel("V", ("2",), tau)
        assert data[k, j] == float(np.atleast_1d(expect)[0])


def _per_sample_trajectory(traj, dt):
    """write_trajectory evaluated one sample time and one channel at a time."""
    chans = trajectory_channels(traj.case)
    ts = traj.sample_times(dt)
    starts = np.array([s.t0 for s in traj.segments])
    name = lambda c, a: c if not a else f"{c}:{','.join(a)}"
    lines = ["# hesim trajectory v1", f"# case: {traj.case.name}",
             ",".join(["time", "mode"] + [name(c, a) for c, a in chans])]
    for t in ts:
        k = int(np.searchsorted(starts, t + 1e-12) - 1)
        rec = traj.segments[max(0, min(k, len(traj.segments) - 1))]
        tau = min(max(t - rec.t0, 0.0), rec.step)
        row = [repr(float(t)), rec.mode]
        row += [repr(float(np.atleast_1d(rec.channel(c, a, tau))[0]))
                for c, a in chans]
        lines.append(",".join(row))
    for ev in traj.events:
        lines.append(f"# event,{float(ev.t)!r},{ev.kind},{ev.label}")
    return "\n".join(lines) + "\n"


def test_sampler_matches_per_sample_evaluation():
    # 0-40 s: dynamic start, QSS, the load step at 30 s and its transient
    case, script = builtin_case("fourbus")
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=40.0))
    assert traj.failure is None and len(traj.segments) > 10
    assert write_trajectory(traj, 0.1) == _per_sample_trajectory(traj, 0.1)
    # Trajectory.channel assigns a boundary time to the segment ending there
    ts = np.linspace(0.0, traj.t_end, 173)
    for chan, args in (("f", ()), ("V", ("3",)), ("pg", ("G1",))):
        want = []
        for t in ts:
            rec = traj.record_for(t)
            tau = min(max(t - rec.t0, 0.0), rec.step)
            want.append(float(np.atleast_1d(rec.channel(chan, args, tau))[0]))
        assert np.array_equal(traj.channel(chan, args, ts), want)


def test_trajectory_rewrite_byte_identical(small_run):
    text = write_trajectory(small_run, 0.5)
    names, ts, modes, data, events = parse_trajectory(text)
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


def test_trajectory_times_strictly_increasing_enforced():
    bad = "time,mode,f\n0.0,qss,60.0\n0.0,qss,60.0\n"
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_trajectory(bad)


def test_trajectory_column_count_enforced():
    bad = "time,mode,f\n0.0,qss,60.0\n1.0,qss\n"
    with pytest.raises(ParseError, match="column count"):
        parse_trajectory(bad)


def test_event_aligned_sampling(small_run):
    text = write_trajectory(small_run, event_aligned=True)
    names, ts, modes, data, events = parse_trajectory(text)
    starts = sorted({s.t0 for s in small_run.segments}
                    | {small_run.segments[-1].t1})
    assert np.allclose(ts, starts)
