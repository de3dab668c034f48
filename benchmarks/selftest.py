"""Self-test of the benchmark's own checkers and arithmetic.

    python3 benchmarks/selftest.py      # from the repository root

The checkers must flag a twobus event moved by 1e-3 s and a perturbed
voltage sample, the twobus generator must be deterministic per seed, span
self times must add up on a hand-built tree, and BENCHMARK.json must name
the workloads and metrics this code reports.  ``run.py`` runs these checks
before every measurement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import span_times
from workloads import (
    REF_DT,
    WORKLOADS,
    check_twobus,
    read_reference,
    twobus_case_text,
)

BENCH_DIR = Path(__file__).resolve().parent


def _twobus_trajectory(thresholds, shift_first: float = 0.0) -> str:
    from hesim.reference import TwoBusCase, two_bus_event_time

    tb = TwoBusCase()
    lines = ["time,mode,f", "0.0,qss,60.0"]
    for k, x in enumerate(thresholds):
        t = two_bus_event_time(tb, x) + (shift_first if k == 0 else 0.0)
        lines.append(f"# event,{t!r},conditional,I(1,2) > {x!r}")
        lines.append(f"# event,{t!r},record,th{k:03d}")
    return "\n".join(lines) + "\n"


def _hybrid_trajectory(workload, ref: dict, bump=None) -> str:
    """A trajectory equal to the reference, optionally with one value
    changed: bump = (time, column, delta)."""
    cols = next(iter(ref.values())).keys()
    lines = [",".join(["time", "mode", *cols])]
    for t, row in ref.items():
        vals = [row[c] + (bump[2] if bump and (t, c) == bump[:2] else 0.0)
                for c in cols]
        lines.append(",".join([repr(t), "qss", *map(repr, vals)]))
    lines += [f"# event,{t!r},{kind},x" for t, kind in
              workload.script_events()]
    return "\n".join(lines) + "\n"


def run_selftest() -> list:
    """Problems found; empty when every check holds."""
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    text_a, th = twobus_case_text(3, 12)
    text_b, _ = twobus_case_text(3, 12)
    text_c, _ = twobus_case_text(4, 12)
    expect(text_a == text_b, "generator not deterministic for one seed")
    expect(text_a != text_c, "generator ignores its seed")
    expect(check_twobus(_twobus_trajectory(th), th)[:2] == (12, 0),
           "exact twobus event times rejected")
    expect(check_twobus(_twobus_trajectory(th, 1e-3), th)[:2] == (12, 1),
           "twobus event moved by 1e-3 s not flagged")
    expect(check_twobus(_twobus_trajectory(th[1:]), th)[:2] == (12, 1),
           "missing twobus event not flagged")

    wl = WORKLOADS["fourbus-hybrid"]
    ref = read_reference(BENCH_DIR / "reference" / wl.reference)
    summary = {"qss_fraction": "0.75", "failure": ""}
    t_mid = 100 * REF_DT
    expect(wl.check(_hybrid_trajectory(wl, ref), summary, ref)[1] == 0,
           "hybrid trajectory equal to its reference rejected")
    expect(wl.check(_hybrid_trajectory(wl, ref, (t_mid, "V:3", 0.01)),
                    summary, ref)[1] == 1,
           "perturbed voltage sample not flagged")
    expect(wl.check(_hybrid_trajectory(wl, ref, (t_mid, "f", float("nan"))),
                    summary, ref)[1] == 1,
           "NaN frequency sample not flagged")
    expect(wl.check(_hybrid_trajectory(wl, ref), {"qss_fraction": "0.5"},
                    ref)[1] == 1,
           "low QSS fraction not flagged")

    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [{"name": "root", "start": 0.0, "end": 10.0, "parent": -1},
             {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
             {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
             {"name": "b", "start": 5.0, "end": 6.0, "parent": 0},
             {"name": "a", "start": 7.0, "end": 9.0, "parent": 0}]
    expect(span_times(spans) == {"root": (1, 10.0, 4.0), "a": (2, 5.0, 4.0),
                                 "c": (1, 1.0, 1.0), "b": (1, 1.0, 1.0)},
           "span self-time arithmetic")

    from run import END_TO_END, PER_LAYER
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [p[:3] for p in PER_LAYER],
           "BENCHMARK.json per_layer differs from run.py")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path("src").resolve()))
    found = run_selftest()
    for p in found:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if found else "passed"))
    sys.exit(1 if found else 0)
