"""Run the same simulations in two source trees and diff their outputs.

    python3 tools/trajectory_diff.py OLD_TREE [NEW_TREE]

Each tree is a checkout of this repository (``NEW_TREE`` defaults to the
one this script is in); make ``OLD_TREE`` from a revision with
``git archive <rev> | tar -x -C <dir>``.  The runs are the benchmark's
argument lists (twobus-events seeds 1 and 7, fourbus-hybrid and
ne39-hybrid, built by ``benchmarks/workloads.py`` of NEW_TREE), the
north-star runs (twobus qss 15.4 s; fourbus hybrid, dynamic and qss
500 s; ne39 hybrid and dynamic 300 s) and ``hesim compare builtin:twobus
--runs qss --methods me,trap``.  Every run is one ``hesim`` call in a fresh
interpreter, one at a time, with ``PYTHONPATH`` set to the tree's ``src``.

For each run it prints ``identical`` when the trajectory file, the summary
without ``wall_time_s``, the exit code and the compare output match byte
for byte; else the largest |difference| of each trajectory column that
differs (inf where only one side is NaN), the shift of each mode-switch
time and the lines that differ.  Below that it prints the run's peak
memory in both trees: ``VmHWM`` that the child reads from its own
``/proc/self/status`` once ``main`` returns (``?`` where it raised).  An
exec starts ``VmHWM`` afresh, whereas a forked child's ``ru_maxrss`` keeps
the runner's peak.  The peak is reported only: it is no part of the
verdict.  The exit code is 0 when every run is identical, else 1.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
MAIN = """\
import sys
from hesim.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as status, open("vmhwm_kb", "w") as out:
    out.write(next(line.split()[1] for line in status
                   if line.startswith("VmHWM:")))
sys.exit(rc)
"""

NORTH_STAR = [("builtin:twobus", "qss", "15.4")] + [
    ("builtin:fourbus", mode, "500") for mode in ("hybrid", "dynamic", "qss")
] + [("builtin:ne39", mode, "300") for mode in ("hybrid", "dynamic")]


def runs(new_tree: Path, workdir: Path) -> list:
    """(label, hesim argv without --out/--summary, writes files) of every
    run; the benchmark's case files are written to workdir."""
    sys.path[:0] = [str(new_tree / "src"), str(new_tree / "benchmarks")]
    sys.dont_write_bytecode = True  # nothing lands in benchmarks/__pycache__
    from workloads import WORKLOADS

    out = []
    for name, seed in (("twobus-events", 1), ("twobus-events", 7),
                       ("fourbus-hybrid", 0), ("ne39-hybrid", 0)):
        where = workdir / f"{name}-{seed}"
        where.mkdir()
        case, argv, _ = WORKLOADS[name].prepare(seed, where)
        label = f"{name} seed {seed}" if name == "twobus-events" else name
        out.append((label, ["simulate", case, *argv], True))
    for case, mode, t_end in NORTH_STAR:
        argv = ["simulate", case, "--mode", mode, "--t-end", t_end]
        out.append((f"{case} {mode} {t_end} s", argv, True))
    out.append(("compare builtin:twobus qss me,trap",
                ["compare", "builtin:twobus", "--runs", "qss",
                 "--methods", "me,trap"], False))
    return out


def run_in(tree: Path, argv: list, files: bool, workdir: Path) -> dict:
    """Exit code, stdout, peak memory in kB (None where the child wrote
    none), and (with files) the trajectory and summary."""
    traj, summ = workdir / "traj.csv", workdir / "run.sum"
    extra = ["--out", str(traj), "--summary", str(summ)] if files else []
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), HESIM_LOG="warning")
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv, *extra],
                          cwd=workdir, env=env, capture_output=True,
                          text=True)
    peak = workdir / "vmhwm_kb"
    out = {"rc": proc.returncode, "stderr": proc.stderr,
           "peak": int(peak.read_text()) if peak.exists() else None}
    if files:
        out["trajectory"] = traj.read_text() if traj.exists() else ""
        out["summary"] = "".join(
            line for line in (summ.read_text() if summ.exists() else "")
            .splitlines(keepends=True) if not line.startswith("wall_time_s="))
        out["stdout"] = ""  # the summary again, with the wall time
    else:
        out["stdout"] = proc.stdout
    return out


def _table(text: str):
    """(column names, rows of floats, mode-switch events) of a trajectory."""
    names, rows, switches = None, [], []
    for line in text.splitlines():
        if line.startswith("# event,"):
            _, t, kind, label = line.split(",", 3)
            if kind == "mode_switch":
                switches.append((label, float(t)))
        elif line and not line.startswith("#"):
            parts = line.split(",")
            if names is None:
                names = parts
            else:
                rows.append([float(parts[0])] + [float(x) for x in parts[2:]])
    names = [] if names is None else [names[0]] + names[2:]
    return names, rows, switches


def trajectory_deltas(old: str, new: str) -> list:
    """Lines naming what differs between two trajectory files."""
    n_old, r_old, s_old = _table(old)
    n_new, r_new, s_new = _table(new)
    lines = []
    if n_old != n_new:
        return ["columns differ"]
    if len(r_old) != len(r_new):
        lines.append(f"{len(r_old)} -> {len(r_new)} rows")
    for j, name in enumerate(n_old):
        worst = 0.0
        for a, b in zip(r_old, r_new):
            d = abs(a[j] - b[j])
            if d != d:  # NaN on both sides is no difference
                d = 0.0 if math.isnan(a[j]) == math.isnan(b[j]) else math.inf
            worst = max(worst, d)
        if worst > 0.0:
            lines.append(f"{name}: max |d| {worst:.3e}")
    if len(s_old) != len(s_new):
        lines.append(f"{len(s_old)} -> {len(s_new)} mode switches")
    for (label, t0), (label1, t1) in zip(s_old, s_new):
        if label != label1:
            lines.append(f"mode switch {label} at {t0!r} -> {label1} at "
                         f"{t1!r}")
        elif t0 != t1:
            lines.append(f"mode switch {label} at {t0!r}: shift "
                         f"{t1 - t0:+.3e} s")
    return lines or ["event or mode rows differ"]


def text_deltas(what: str, old: str, new: str) -> list:
    a, b = old.splitlines(), new.splitlines()
    diff = [f"{what}: {x!r} -> {y!r}" for x, y in zip(a, b) if x != y]
    if len(a) != len(b):
        diff.append(f"{what}: {len(a)} -> {len(b)} lines")
    return diff


def peak_text(old, new) -> str:
    """'old -> new kB (change MiB)' of two peaks, '?' for a missing one."""
    text = " -> ".join("?" if kb is None else f"{kb:,}" for kb in (old, new))
    if old is None or new is None:
        return text + " kB"
    return f"{text} kB ({(new - old) / 1024:+.2f} MiB)"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_tree = Path(argv[0]).resolve()
    new_tree = Path(argv[1]).resolve() if len(argv) > 1 else HERE
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "hesim").is_dir():
            print(f"error: {tree} has no src/hesim", file=sys.stderr)
            return 2
    same = True
    with tempfile.TemporaryDirectory(prefix="trajectory_diff_") as tmp:
        tmp = Path(tmp)
        for k, (label, args, files) in enumerate(runs(new_tree, tmp)):
            out = []
            for side, tree in (("old", old_tree), ("new", new_tree)):
                work = tmp / f"run{k}-{side}"
                work.mkdir()
                out.append(run_in(tree, args, files, work))
            old, new = out
            lines = []
            if old["rc"] != new["rc"]:
                lines.append(f"exit code {old['rc']} -> {new['rc']}: "
                             f"{new['stderr'].strip()[-200:]}")
            if files and old["trajectory"] != new["trajectory"]:
                lines += trajectory_deltas(old["trajectory"],
                                           new["trajectory"])
            if files:
                lines += text_deltas("summary", old["summary"], new["summary"])
            lines += text_deltas("stdout", old["stdout"], new["stdout"])
            same = same and not lines
            print(f"{label}: " + ("identical" if not lines
                                  else "\n    ".join(["differs"] + lines)),
                  flush=True)
            print(f"    VmHWM {peak_text(old['peak'], new['peak'])}",
                  flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
