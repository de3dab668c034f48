"""One benchmark repetition in a fresh interpreter.

    python3 benchmarks/worker.py CASE [--setup-only] [--spans FILE] -- ARGS...

Times the set-up (import ``hesim.cli`` and load CASE), then one
``hesim.cli.main(["simulate", CASE, *ARGS])`` call, and prints one JSON
line: ``setup_s`` and ``setup_cpu_s`` (wall and process CPU time of the
set-up), ``wall_s`` and ``cpu_s`` (the same for the call), ``setup_at``
and ``call_at`` (``perf_counter`` at the start and end of each, which
run.py matches with its speed samples), ``rc`` and ``maxrss_kb``.  With
``--spans FILE`` the call is traced and the spans, counters and
trajectory figures are written to FILE.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter, process_time


def _load_case(case_arg: str):
    from hesim import caseio

    if case_arg.startswith("builtin:"):
        return caseio.builtin_case(case_arg.split(":", 1)[1])
    return caseio.load_case(case_arg)


def _trajectory_figures(traj) -> dict:
    dyn = [s.step for s in traj.segments if s.mode == "dynamic"]
    qss = [s.step for s in traj.segments if s.mode == "qss"]
    total = sum(dyn) + sum(qss)
    return {"segments.dynamic": len(dyn), "segments.qss": len(qss),
            "qss_fraction": sum(qss) / total if total > 0 else 0.0,
            "mean_step_dynamic_s": sum(dyn) / len(dyn) if dyn else 0.0}


def main(argv: list) -> int:
    sep = argv.index("--")
    opts, sim_args = argv[:sep], argv[sep + 1:]
    case_arg = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    c0, t0 = process_time(), perf_counter()
    import hesim.cli
    _load_case(case_arg)
    c1, t1 = process_time(), perf_counter()
    out = {"setup_s": t1 - t0, "setup_cpu_s": c1 - c0, "setup_at": [t0, t1]}

    if "--setup-only" not in opts:
        tracer = None
        if spans_path:
            from tracing import Tracer
            tracer = Tracer(run_id=os.path.basename(spans_path))
            tracer.install()
        c0, w0 = process_time(), perf_counter()
        try:
            rc = hesim.cli.main(["simulate", case_arg, *sim_args])
        except Exception as exc:   # the program crashed: the repetition fails
            rc = f"{type(exc).__name__}: {exc}"
        c1, w1 = process_time(), perf_counter()
        out.update(wall_s=w1 - w0, cpu_s=c1 - c0, call_at=[w0, w1], rc=rc)
        if tracer is not None:
            dump = tracer.dump()
            traj = tracer.trajectory
            dump["trajectory"] = _trajectory_figures(traj) if traj else {}
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
