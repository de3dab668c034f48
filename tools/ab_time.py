"""Time the benchmark's simulate calls in two source trees, in pairs.

    python3 tools/ab_time.py OLD_TREE [NEW_TREE]

The runs are the three benchmark workloads' argument lists as
``tools/trajectory_diff.py`` builds them (twobus-events seed 1,
fourbus-hybrid, ne39-hybrid), each writing its trajectory and summary to a
scratch directory as the benchmark does.  Each workload runs PAIRS pairs,
alternating which tree goes first.  Every repetition is a fresh
interpreter that pins itself to one CPU (the same one for both trees) and
reports the CPU time of the ``simulate`` call divided by the reference
loop of ``benchmarks/run.py`` (NEW_TREE's), timed in the same process
just before and just after the call, so a host that changes speed between
repetitions moves both.  Each repetition gets an empty
``PYTHONPYCACHEPREFIX``, so it compiles both trees from source and never
reads a ``__pycache__`` one tree happens to hold.

It prints each workload's median NEW/OLD ratio, in how many pairs NEW was
lower, and a verdict: ``NEW lower`` or ``NEW higher`` only when NEW is on
that side in at least 9 of the 10 pairs and the two trees' medians differ
by more than OLD's interquartile range, else ``unresolved``.  It reads
``benchmarks/`` and writes nothing there.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # nothing lands in benchmarks/__pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
from trajectory_diff import HERE, runs  # noqa: E402

WORKLOADS = ("twobus-events", "fourbus-hybrid", "ne39-hybrid")
PAIRS = 10
SIDE = 9  # pairs on one side that a verdict needs
LOOPS = 5  # reference loops timed before and after the call

# one repetition: argv is [cpu, benchmarks dir, hesim argv...]
CHILD = f"""
import json, os, statistics, sys
from time import process_time
os.sched_setaffinity(0, {{int(sys.argv[1])}})
sys.path.insert(0, sys.argv[2])
keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from run import _ref_loop
sys.dont_write_bytecode = keep
from hesim.cli import main

def loops():
    out = []
    for _ in range({LOOPS}):
        c0 = process_time()
        _ref_loop()
        out.append(process_time() - c0)
    return out

before = loops()
c0 = process_time()
rc = main(sys.argv[3:])
cpu = process_time() - c0
print(json.dumps({{"rc": rc, "cpu_s": cpu,
                   "loop_s": statistics.median(before + loops())}}))
"""


def time_once(tree: Path, bench: Path, cpu: int, argv: list,
              workdir: Path) -> float:
    """The simulate call's CPU time over the reference loop's, in tree."""
    extra = ["--out", str(workdir / "traj.csv"),
             "--summary", str(workdir / "run.sum")]
    with tempfile.TemporaryDirectory(dir=workdir) as cache:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   HESIM_LOG="warning", PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(cpu), str(bench), *argv,
             *extra], cwd=workdir, env=env, capture_output=True, text=True,
            check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["rc"] != 0:
        raise RuntimeError(f"{tree}: simulate exited with {out['rc']}")
    return out["cpu_s"] / out["loop_s"]


def verdict(old: list, new: list) -> str:
    """Which side NEW is on, or ``unresolved``: NEW must be on one side in
    SIDE of the pairs and its median off OLD's by more than OLD's
    interquartile range."""
    lower = sum(n < o for o, n in zip(old, new))
    higher = sum(n > o for o, n in zip(old, new))
    q1, _, q3 = statistics.quantiles(old, n=4)
    gap = statistics.median(new) - statistics.median(old)
    if abs(gap) > q3 - q1:
        if gap < 0 and lower >= SIDE:
            return "NEW lower"
        if gap > 0 and higher >= SIDE:
            return "NEW higher"
    return "unresolved"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(argv[0]).resolve(),
             Path(argv[1]).resolve() if len(argv) > 1 else HERE]
    for tree in trees:
        if not (tree / "src" / "hesim").is_dir():
            print(f"error: {tree} has no src/hesim", file=sys.stderr)
            return 2
    bench = trees[1] / "benchmarks"
    cpu = max(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="ab_time_") as tmp:
        tmp = Path(tmp)
        picked = {}
        for label, args, _ in runs(trees[1], tmp):
            name = label.split()[0]
            if name in WORKLOADS:
                picked.setdefault(name, args)
        for name in WORKLOADS:
            work = tmp / f"{name}-timing"
            work.mkdir()
            for tree in trees:  # warm each tree's files in the OS cache once
                time_once(tree, bench, cpu, picked[name], work)
            old, new = [], []
            for k in range(PAIRS):
                order = trees if k % 2 == 0 else trees[::-1]
                t = {tree: time_once(tree, bench, cpu, picked[name], work)
                     for tree in order}
                old.append(t[trees[0]])
                new.append(t[trees[1]])
            ratios = [n / o for o, n in zip(old, new)]
            lower = sum(r < 1.0 for r in ratios)
            print(f"{name}: NEW/OLD median {statistics.median(ratios):.3f} "
                  f"(min {min(ratios):.3f}, max {max(ratios):.3f}), "
                  f"NEW lower in {lower} of {PAIRS} pairs: "
                  f"{verdict(old, new)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
