"""Benchmark workloads: input generation and per-repetition correctness checks.

Each workload turns a seed into the argument list of one
``hesim simulate`` call, and checks the files that call writes: the
trajectory (CSV samples plus ``# event`` rows) and the key=value summary.
A check returns ``(attempted, failed, note)`` for one repetition.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Sample times shared by the written 0.1 s trajectories and the reference
# grids are the multiples of this step.
REF_DT = 0.5

EVENT_TOL_S = 1e-4          # acceptance criterion 1
TWOBUS_WINDOW = (0.61, 15.18)
TWOBUS_STOP = 15.4


# --------------------------------------------------------------------------
# file readers (independent of the program's own parser)
# --------------------------------------------------------------------------


def read_trajectory(text: str):
    """(column names, rows of floats, events) of a trajectory."""
    names, rows, events = None, [], []
    for line in text.splitlines():
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
        rows.append([float(parts[0])] + [float(x) for x in parts[2:]])
    if names is None:
        raise ValueError("trajectory has no header")
    return [names[0]] + names[2:], rows, events


def read_summary(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line)


def on_ref_grid(t: float) -> bool:
    k = round(t / REF_DT)
    return abs(t - k * REF_DT) < 1e-6


def timed_script_events(case_text: str, t_end: float):
    """(time, kind) of every timed EVENT line of a case file up to t_end."""
    out = []
    for line in case_text.splitlines():
        m = re.match(r"\s*EVENT\s+([-+0-9.eE]+)\s+(\w+)", line)
        if m and float(m.group(1)) <= t_end:
            out.append((float(m.group(1)), m.group(2)))
    return out


# --------------------------------------------------------------------------
# twobus-events: generated thresholds, closed-form event times
# --------------------------------------------------------------------------


def twobus_threshold_times(seed: int, n: int) -> list:
    """n stratified, seeded trigger times in TWOBUS_WINDOW.

    One time per equal slice, kept off the slice edges, so two thresholds
    are never closer than a fifth of a slice.
    """
    rng = random.Random(seed)
    lo, hi = TWOBUS_WINDOW
    width = (hi - lo) / n
    return [lo + (k + rng.uniform(0.1, 0.9)) * width for k in range(n)]


def twobus_case_text(seed: int, n: int) -> tuple:
    """(case file text, thresholds) for the twobus ramp with n triggers.

    The network is the built-in twobus line; the thresholds are the exact
    line currents at the seeded times.
    """
    from hesim.reference import TwoBusCase, two_bus_current_sq

    tb = TwoBusCase()
    thresholds = [math.sqrt(two_bus_current_sq(tb, t))
                  for t in twobus_threshold_times(seed, n)]
    lines = [
        f"# twobus ramp with {n} line-current triggers, seed {seed}",
        "CASE twobus_events fnom=60.0",
        "BUS 1",
        "BUS 2",
        f"BRANCH L12 1 2 r={tb.r!r} x={tb.x!r} b=0.0",
        f"GEN S1 1 kind=source v={tb.e!r}",
        f"LOAD LD2 2 p={tb.p!r} q={tb.q!r} fz=0.0 fi=0.0 fp=1.0 scale=0.0",
        f"EVENT 0.0 ramp_load load=LD2 rate={tb.lam_rate!r}",
    ]
    lines += [f'EVENT cond "{_trigger(x)}" record name=th{k:03d}'
              for k, x in enumerate(thresholds)]
    lines.append(f"STOP {TWOBUS_STOP!r}")
    return "\n".join(lines) + "\n", thresholds


def _trigger(x: float) -> str:
    return f"I(1,2) > {x!r}"


def check_twobus(traj_text: str, thresholds: list):
    """One operation per threshold: it fired once, within EVENT_TOL_S of
    the closed-form crossing time."""
    from hesim.reference import TwoBusCase, two_bus_event_time

    tb = TwoBusCase()
    _, _, events = read_trajectory(traj_text)
    fired: dict = {}
    for t, kind, label in events:
        if kind == "conditional":
            fired.setdefault(label, []).append(t)
    failed = 0
    worst = 0.0
    for x in thresholds:
        times = fired.get(_trigger(x), [])
        if len(times) != 1:
            failed += 1
            continue
        err = abs(times[0] - two_bus_event_time(tb, x))
        worst = max(worst, err)
        if not err <= EVENT_TOL_S:
            failed += 1
    return len(thresholds), failed, f"worst event error {worst:.2e} s"


# --------------------------------------------------------------------------
# hybrid runs against a stored full-dynamic reference
# --------------------------------------------------------------------------


def read_reference(path: Path):
    """{time: {column: value}} of a stored reference table."""
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    names = body[0].split(",")
    out = {}
    for ln in body[1:]:
        vals = [float(x) for x in ln.split(",")]
        out[vals[0]] = dict(zip(names[1:], vals[1:]))
    return out


def compare_to_reference(traj_text: str, ref: dict):
    """Largest |difference| per channel kind ('f', 'V') on the shared grid,
    and the number of reference samples matched."""
    names, rows, _ = read_trajectory(traj_text)
    col = {n: i for i, n in enumerate(names)}
    worst: dict = {}
    matched = 0
    for row in rows:
        t = row[0]
        if not on_ref_grid(t):
            continue
        want = ref.get(round(t / REF_DT) * REF_DT)
        if want is None:
            continue
        matched += 1
        for name, v in want.items():
            d = abs(row[col[name]] - v)
            kind = name.split(":")[0]
            if not d <= worst.get(kind, 0.0):
                worst[kind] = d if d == d else math.inf   # NaN never passes
    return worst, matched


# --------------------------------------------------------------------------
# workload table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwobusEvents:
    name: str = "twobus-events"
    n_events: int = 50

    def prepare(self, seed: int, workdir: Path):
        text, thresholds = twobus_case_text(seed, self.n_events)
        path = workdir / "twobus_events.case"
        path.write_text(text)
        return str(path), ["--mode", "qss"], thresholds

    def check(self, traj_text: str, summary: dict, thresholds):
        return check_twobus(traj_text, thresholds)


@dataclass(frozen=True)
class HybridRun:
    name: str
    case: str
    t_end: float
    reference: str
    channels: tuple          # the columns its acceptance criterion compares
    dv_tol: float
    df_tol: float = math.inf
    min_qss_fraction: float = 0.0

    def prepare(self, seed: int, workdir: Path):
        # the built-in studies are fixed scripts; the seed has nothing to vary
        argv = ["--mode", "hybrid", "--dt-out", "0.1",
                "--t-end", repr(self.t_end)]
        return f"builtin:{self.case}", argv, read_reference(
            REFERENCE_DIR / self.reference)

    def script_events(self):
        from importlib import resources
        text = resources.files("hesim.cases").joinpath(
            f"{self.case}.case").read_text()
        return timed_script_events(text, self.t_end - 1e-9)

    def check(self, traj_text: str, summary: dict, ref):
        """One operation: the run.  It must execute every timed script
        event, cover at least the QSS fraction, and stay within the
        acceptance tolerances of the full-dynamic reference."""
        problems = []
        _, _, events = read_trajectory(traj_text)
        missing = [(t0, k0) for t0, k0 in self.script_events()
                   if not any(k == k0 and abs(t - t0) < 1e-6
                              for t, k, _ in events)]
        if missing:
            problems.append(f"{len(missing)} script events not executed")
        qss = float(summary.get("qss_fraction", "nan"))
        if not qss >= self.min_qss_fraction:
            problems.append(f"qss_fraction {qss} < {self.min_qss_fraction}")
        worst, matched = compare_to_reference(traj_text, ref)
        if matched != len(ref):
            problems.append(f"{matched} of {len(ref)} reference samples")
        for kind, tol in (("V", self.dv_tol), ("f", self.df_tol)):
            if not worst.get(kind, 0.0) <= tol:
                problems.append(f"|d{kind}| {worst[kind]:.3e} > {tol}")
        note = ", ".join([f"qss_fraction {qss:.3f}"] + [
            f"max |d{kind}| {d:.2e}" for kind, d in sorted(worst.items())])
        if problems:
            note += "; " + "; ".join(problems)
        return 1, int(bool(problems)), note


WORKLOADS = {w.name: w for w in (
    TwobusEvents(),
    HybridRun(
        name="fourbus-hybrid", case="fourbus", t_end=75.0,
        reference="fourbus-dynamic.csv",
        channels=("f", "V:1", "V:2", "V:3", "V:4"),
        dv_tol=0.005, df_tol=0.02, min_qss_fraction=0.7),
    HybridRun(
        name="ne39-hybrid", case="ne39", t_end=56.0,
        reference="ne39-dynamic.csv",
        channels=tuple(f"V:{b}" for b in
                       (4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 31, 32, 39)),
        dv_tol=0.01),
)}
