"""Command-line interface: exit codes, outputs, determinism."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

import hesim
from hesim.cli import main


def run_cli(argv):
    return main(argv)


def test_simulate_twobus_qss(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    summ = tmp_path / "run.sum"
    rc = run_cli(["simulate", "builtin:twobus", "--mode", "qss",
                  "--out", str(out), "--summary", str(summ)])
    assert rc == 0
    assert out.exists() and summ.exists()
    kv = dict(line.split("=", 1)
              for line in summ.read_text().splitlines())
    assert kv["mode"] == "qss"
    assert float(kv["qss_fraction"]) == 1.0
    assert kv["failure"] == ""


def test_simulate_reports_summary_keys(capsys):
    rc = run_cli(["simulate", "builtin:twobus", "--mode", "qss",
                  "--t-end", "2.0"])
    assert rc == 0
    text = capsys.readouterr().out
    for key in ("qss_time", "qss_fraction", "event_count",
                "segments_qss", "wall_time_s"):
        assert key + "=" in text


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "builtin:twobus", "--mode", "warp"])
    assert exc.value.code == 2


def test_missing_case_exits_1(capsys):
    rc = run_cli(["simulate", "/no/such.case"])
    assert rc == 1


def test_compare_same_mode_is_zero(tmp_path, capsys):
    rc = run_cli(["compare", "builtin:twobus", "--runs", "qss,qss",
                  "--t-end", "3.0", "--dt-out", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("qss|qss,"):
            parts = line.split(",")
            assert float(parts[2]) == 0.0 and float(parts[3]) == 0.0


def test_determinism_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        summ = tmp_path / f"{tag}.sum"
        rc = run_cli(["simulate", "builtin:twobus", "--mode", "qss",
                      "--out", str(out), "--summary", str(summ)])
        assert rc == 0
        body = summ.read_text()
        stable = "\n".join(l for l in body.splitlines()
                           if not l.startswith("wall_time_s="))
        outs.append((out.read_bytes(), stable))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def _child_env():
    # the child imports hesim from where this process found it, installed
    # or not (pytest's pythonpath setting does not reach subprocesses)
    root = os.path.dirname(os.path.dirname(hesim.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "hesim.cli", "simulate", "builtin:twobus",
         "--mode", "qss", "--t-end", "1.0"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "qss_fraction=" in proc.stdout


_NO_SCIPY = """
import sys
import hesim.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, ("import", loaded)
rc = hesim.cli.main(["simulate", "builtin:fourbus", "--mode", "hybrid",
                     "--t-end", "40", "--out", sys.argv[1]])
assert rc == 0, rc
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, ("simulate", loaded)
"""


def test_simulate_never_imports_scipy(tmp_path):
    # a fresh interpreter: this process has scipy loaded by other tests
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "traj.csv")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "traj.csv").exists()


_NO_ORACLES = """
import sys
import hesim.cli
assert "hesim.reference" not in sys.modules
"""


def test_cli_import_leaves_the_oracles_unloaded():
    # a fresh interpreter: the package top level re-exports nothing, so
    # importing the command line does not load the test oracles
    proc = subprocess.run([sys.executable, "-c", _NO_ORACLES],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


_NO_NUMPY_MA = """
import sys
import hesim.cli
rc = hesim.cli.main(["simulate", "builtin:twobus", "--mode", "qss",
                     "--out", sys.argv[1]])
assert rc == 0, rc
assert "numpy.ma" not in sys.modules
"""


def test_simulate_never_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, which costs milliseconds in a fresh
    # interpreter
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA, str(tmp_path / "traj.csv")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


_OFFLINE_SCRIPTS = {
    # both corridor circuits cut, then a trigger on one of them
    "branch-id": ("", "EVENT 5.0 cut_branch branch=L23A\n"
                  "EVENT 6.0 cut_branch branch=L23B\n"
                  'EVENT cond "I(L23A) > 50.0" record\n', ("L23A",)),
    # the corridor as one circuit, named by its buses
    "bus-pair": ("BRANCH L23B 2 3 r=0.02 x=0.12 b=0.03\n",
                 "EVENT 5.0 cut_branch branch=L23A\n"
                 'EVENT cond "I(2,3) > 50.0" record\n', ("2", "3")),
}


@pytest.mark.parametrize("variant", sorted(_OFFLINE_SCRIPTS))
def test_trigger_on_offline_branch_runs_to_completion(tmp_path, variant):
    from importlib import resources

    from hesim.caseio import parse_case
    from hesim.scheduler import RunConfig, run_simulation

    drop, events, args = _OFFLINE_SCRIPTS[variant]
    text = resources.files("hesim.cases").joinpath("fourbus.case").read_text()
    text = text.replace(drop, "").replace("STOP 500.0", events + "STOP 10.0")
    case_file = tmp_path / "offline.case"
    case_file.write_text(text)
    out, summ = tmp_path / "traj.csv", tmp_path / "run.sum"
    rc = run_cli(["simulate", str(case_file), "--t-end", "10.0",
                  "--out", str(out), "--summary", str(summ)])
    assert rc == 0
    assert out.exists() and "failure=\n" in summ.read_text()
    # an offline branch carries no current, like a dead bus has no voltage
    traj = run_simulation(*parse_case(text), RunConfig(t_end=10.0))
    ts = np.array([4.0, 8.0])
    before, after = traj.sample([("I", args)], ts, traj.segment_index(ts))[0]
    assert before > 0.0 and after == 0.0


@pytest.mark.parametrize("flags", [
    ["--dt-out", "0"], ["--dt-out", "-1"], ["--dt-out", "nan"],
    ["--tol", "0"], ["--t-end", "-5"]])
def test_invalid_run_settings_exit_2_before_the_run(tmp_path, capsys,
                                                    flags):
    out = tmp_path / "traj.csv"
    rc = run_cli(["simulate", "builtin:twobus", "--mode", "qss",
                  "--out", str(out)] + flags)
    assert rc == 2
    io = capsys.readouterr()
    assert io.err.startswith("error: ") and io.out == ""
    assert not out.exists()
    rc = run_cli(["compare", "builtin:twobus", "--runs", "qss,dynamic"]
                 + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field", ["tol_res", "dt_out", "t_end", "eps_t"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_run_config_rejects_non_positive_or_non_finite(field, bad):
    from hesim.scheduler import RunConfig

    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: bad})


def test_run_flags_default_to_run_config():
    import argparse

    from hesim.cli import _add_run_flags, _config
    from hesim.scheduler import RunConfig

    parser = argparse.ArgumentParser()
    _add_run_flags(parser)
    assert _config(parser.parse_args(["builtin:twobus"]), []) == RunConfig()


def test_methods_baseline_event_times(tmp_path, capsys):
    # the fixed-step baselines read I(1,2) through the segments' channel map
    text = (_builtin_text("twobus").replace(
        "STOP 15.0", 'EVENT cond "V(2) < 0.97" record name=dip\nSTOP 15.0'))
    case_file = tmp_path / "twobus_dip.case"
    case_file.write_text(text)
    rc = run_cli(["compare", str(case_file), "--runs", "qss",
                  "--methods", "me,trap", "--mode", "qss"])
    assert rc == 0
    times = {}
    for line in capsys.readouterr().out.splitlines():
        run, _, rest = line.partition(",")
        if run in ("qss", "me", "trap"):  # the condition text has commas
            cond, t, _ = rest.rsplit(",", 2)
            times[run, cond] = float(t)
    for cond in ("I(1,2) > 3.0", "V(2) < 0.97"):
        for method in ("me", "trap"):
            assert abs(times[method, cond] - times["qss", cond]) < 1e-4


def test_unknown_method_exits_2_before_any_run(capsys, monkeypatch):
    import hesim.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    monkeypatch.setattr(cli, "_method_event_times", no_run)
    rc = run_cli(["compare", "builtin:twobus", "--runs", "qss",
                  "--methods", "me,foo,trap"])
    io = capsys.readouterr()
    assert rc == 2
    assert io.err == ("error: unknown --methods foo (choose from me, trap, "
                      "adaptive)\n")
    assert io.out == ""


def test_compare_out_file_holds_both_tables(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_cli(["compare", "builtin:twobus", "--runs", "qss,dynamic",
                  "--methods", "me", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    lines = out.read_text().splitlines()
    assert lines[0] == "pair,channel,max_abs_diff,mean_abs_diff"
    pairs = [line for line in lines if line.startswith("qss|dynamic,")]
    assert [line.split(",")[1] for line in pairs] == ["f", "V:1", "V:2"]
    assert pairs == [line for line in printed
                     if line.startswith("qss|dynamic,")]
    # each event row as printed, without its difference column
    events = ["event," + line.rsplit(",", 1)[0] for line in printed
              if line.split(",")[0] in ("qss", "dynamic", "me")]
    assert [line.split(",")[1] for line in events] == ["qss", "dynamic", "me"]
    assert lines[1 + len(pairs):] == events
    assert all("I(1,2) > 3.0" in line for line in events)


def _builtin_text(name):
    from importlib import resources

    return resources.files("hesim.cases").joinpath(f"{name}.case").read_text()


_UNREPLAYABLE = {
    # the analytic runs stop the ramp at 5 s and never reach 3 pu
    "ramp-stop": [("STOP 15.0", "EVENT 5.0 ramp_stop_load load=LD2\n"
                                "STOP 15.0")],
    # a ramp from 2 s: only the analytic runs start it late
    "late-ramp": [("EVENT 0.0 ramp_load", "EVENT 2.0 ramp_load"),
                  ("STOP 15.0", 'EVENT cond "V(2) > 1.0101" record\n'
                                "STOP 15.0")],
}


@pytest.mark.parametrize("variant", sorted(_UNREPLAYABLE))
def test_methods_reject_scripts_they_cannot_replay(tmp_path, capsys,
                                                   variant):
    text = _builtin_text("twobus")
    for old, new in _UNREPLAYABLE[variant]:
        text = text.replace(old, new)
    case_file = tmp_path / "twobus_script.case"
    case_file.write_text(text)
    rc = run_cli(["compare", str(case_file), "--runs", "qss,dynamic",
                  "--methods", "me,trap"])
    io = capsys.readouterr()
    assert rc == 1
    assert io.err.startswith("error: --methods cannot replay ")
    assert io.out == ""  # rejected before any run


def test_failed_event_keeps_the_partial_trajectory(tmp_path, capsys):
    # picking up a 40 pu load at 30 s has no post-switch state
    text = _builtin_text("fourbus").replace(
        "LOAD LX2 2 p=0.15 q=0.05", "LOAD LX2 2 p=40 q=20")
    case_file = tmp_path / "heavy.case"
    case_file.write_text(text)
    out, summ = tmp_path / "traj.csv", tmp_path / "run.sum"
    rc = run_cli(["simulate", str(case_file), "--t-end", "40",
                  "--out", str(out), "--summary", str(summ)])
    assert rc == 1
    rows = [line for line in out.read_text().splitlines()
            if line[:1].isdigit()]
    assert float(rows[-1].split(",")[0]) == 30.0
    kv = dict(line.split("=", 1) for line in summ.read_text().splitlines())
    assert float(kv["t_end"]) == 30.0
    failure = kv["failure"]
    assert failure.startswith("add_load load=LX2 at t=30.000000: ")
    assert capsys.readouterr().err == f"error: {failure}\n"


def test_infeasible_start_fails_through_the_summary(tmp_path, capsys):
    # a 5 + j2 pu load is past the nose of a line with x = 0.2 pu: the power
    # flow has no solution, and the run fails as initialization
    case_file = tmp_path / "infeasible.case"
    case_file.write_text("CASE infeasible\nBUS 1\nBUS 2\n"
                         "BRANCH L12 1 2 r=0.01 x=0.2\n"
                         "GEN S1 1 kind=source v=1.0\n"
                         "LOAD LD2 2 p=5.0 q=2.0 fz=0 fi=0 fp=1\nSTOP 1.0\n")
    out, summ = tmp_path / "traj.csv", tmp_path / "run.sum"
    rc = run_cli(["simulate", str(case_file), "--out", str(out),
                  "--summary", str(summ)])
    assert rc == 1
    assert not out.exists()  # an empty trajectory is not written
    kv = dict(line.split("=", 1) for line in summ.read_text().splitlines())
    assert kv["t_end"] == "0" and kv["segments_dynamic"] == "0"
    failure = kv["failure"]
    assert failure.startswith("initialization at t=0.000000: "
                              "ALPHA_POWERFLOW stops at alpha=")
    assert capsys.readouterr().err == f"error: {failure}\n"


@pytest.mark.parametrize("stop", ["STOP 15.0", ""])
def test_conditional_stop_leaves_the_stop_time_to_timed_stops(tmp_path,
                                                              capsys, stop):
    from hesim.caseio import load_case
    from hesim.cli import _add_run_flags, _config
    from hesim.scheduler import RunConfig

    text = _builtin_text("twobus").replace(
        "STOP 15.0", 'EVENT cond "V(2) < 0.9" stop\n' + stop)
    case_file = tmp_path / "twobus_stop.case"
    case_file.write_text(text)
    _, script = load_case(str(case_file))
    parser = argparse.ArgumentParser()
    _add_run_flags(parser)
    args = parser.parse_args([str(case_file)])
    assert _config(args, script).t_end == (15.0 if stop else RunConfig.t_end)
    summ = tmp_path / "run.sum"
    rc = run_cli(["simulate", str(case_file), "--mode", "qss",
                  "--summary", str(summ)])
    assert rc == 0
    kv = dict(line.split("=", 1) for line in summ.read_text().splitlines())
    assert 6.0 < float(kv["t_end"]) < 6.5 and kv["failure"] == ""
    rc = run_cli(["compare", str(case_file), "--runs", "qss,qss"])
    assert rc == 0 and "qss|qss,V:2,0.0," in capsys.readouterr().out


def test_run_ending_before_its_first_segment(tmp_path, capsys):
    text = _builtin_text("fourbus").replace("STOP 500.0",
                                            "EVENT 0.0 stop\nSTOP 500.0")
    case_file = tmp_path / "stop_at_zero.case"
    case_file.write_text(text)
    out = tmp_path / "traj.csv"
    rc = run_cli(["simulate", str(case_file), "--t-end", "5",
                  "--out", str(out)])
    assert rc == 0 and not out.exists()  # an empty trajectory is not written
    assert "segments_dynamic=0\n" in capsys.readouterr().out
    rc = run_cli(["compare", str(case_file), "--t-end", "5"])
    io = capsys.readouterr()
    assert rc == 1 and io.out == ""
    assert io.err == "error: hybrid: the run ends before its first segment\n"
