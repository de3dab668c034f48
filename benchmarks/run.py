"""hesim benchmark: timed ``hesim simulate`` runs with checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload twobus-events --seed 1 \
        --seconds 35 --trace 0

``--workload`` is one of WORKLOADS (see workloads.py) or ``all``.  Every
repetition is one ``hesim.cli.main(["simulate", ...])`` call in a fresh
interpreter, one process at a time.  Repetitions start until the next one
would end past ``--seconds`` (at least MIN_REPS run).  Each repetition's
trajectory is checked against its workload's oracle and against the first
repetition's bytes.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the simulate
call), ``setup_s`` (import ``hesim.cli`` and load the case in a fresh
interpreter) and ``peak_rss_mb``; ``failed_ratio`` is printed and is
``failed / attempted`` of the result line.  The runner and its
interpreters share one CPU, on which a SpeedSampler thread times a
reference loop every SAMPLE_GAP_S; both times are the CPU time of the
timed part, scaled to a CPU that runs the loop in REF_LOOP_S (see
``scaled``).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
PER_LAYER, plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"

MIN_REPS = 2            # the determinism check needs two trajectories
REF_LOOP_N = 20_000      # float entries the reference loop files and sorts
REF_LOOP_S = 0.004       # reference-loop time of the speed times are scaled to
SAMPLE_GAP_S = 0.03      # sleep between two speed samples
WORKER_TIMEOUT_S = 170

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# (name, unit, better, end-to-end metric it moves)
PER_LAYER = [
    ("engine.batch_pade.calls", "count", "lower", "wall_s"),
    ("engine.batch_pade.self_s", "s", "lower", "wall_s"),
    ("engine.pade_fallback.calls", "count", "lower", "wall_s"),
    ("engine.min_real_positive_root.calls", "count", "lower", "wall_s"),
    ("engine.min_real_positive_root.self_s", "s", "lower", "wall_s"),
    ("series.shrink_refine_range.cum_s", "s", "lower", "wall_s"),
    ("engine.residual_probes.calls", "count", "lower", "wall_s"),
    ("engine.solve_series.calls", "count", "lower", "wall_s"),
    ("engine.solve_series.self_s", "s", "lower", "wall_s"),
    ("engine.solve_segment.calls", "count", "lower", "wall_s"),
    ("engine.solve_segment.failed", "count", "lower", "wall_s"),
    ("engine.solve_segment.self_s", "s", "lower", "wall_s"),
    ("scheduler.steadiness_verdict.calls", "count", "lower", "wall_s"),
    ("scheduler.steadiness_verdict.self_s", "s", "lower", "wall_s"),
    ("bounds.steady_state_check.calls", "count", "lower", "wall_s"),
    ("bounds.steady_state_check.self_s", "s", "lower", "wall_s"),
    ("scheduler.verdict_pass_ratio", "ratio", "higher", "wall_s"),
    ("scheduler.locate_conditional_event.calls", "count", "lower", "wall_s"),
    ("scheduler.locate_conditional_event.self_s", "s", "lower", "wall_s"),
    ("caseio.write_trajectory.cum_s", "s", "lower", "wall_s"),
    ("caseio.channel_evals", "count", "lower", "wall_s"),
    ("model.build_system.calls", "count", "lower", "wall_s,peak_rss_mb"),
    ("model.build_system.self_s", "s", "lower", "wall_s,peak_rss_mb"),
    ("grid.build_admittance.calls", "count", "lower", "wall_s,peak_rss_mb"),
    ("grid.build_admittance.self_s", "s", "lower", "wall_s,peak_rss_mb"),
    ("engine.solve_alpha_problem.calls", "count", "lower",
     "wall_s,peak_rss_mb"),
    ("engine.solve_alpha_problem.self_s", "s", "lower",
     "wall_s,peak_rss_mb"),
    ("model.refine_state.calls", "count", "lower", "wall_s,peak_rss_mb"),
    ("model.refine_state.self_s", "s", "lower", "wall_s,peak_rss_mb"),
    ("model.init_equilibrium.self_s", "s", "lower", "wall_s,peak_rss_mb"),
    ("scheduler.segments.dynamic", "count", "lower", "wall_s"),
    ("scheduler.segments.qss", "count", "lower", "wall_s"),
    ("scheduler.qss_fraction", "fraction", "higher", "wall_s"),
    ("scheduler.mean_step_dynamic_s", "s", "higher", "wall_s"),
    ("scheduler.segments_per_solve", "ratio", "higher", "wall_s"),
    ("scheduler.mode_switch.calls", "count", "lower", "wall_s"),
    ("scheduler.run_simulation.self_s", "s", "lower", "wall_s"),
    ("caseio.parse_case.self_s", "s", "lower", "setup_s,wall_s"),
    ("cli.cmd_simulate.self_s", "s", "lower", "setup_s,wall_s"),
    ("trace.overhead_s", "s", "lower", "wall_s"),
]

CPUS_USABLE = None      # before the runner pins itself to one CPU

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


# --------------------------------------------------------------------------
# one repetition
# --------------------------------------------------------------------------


def run_worker(root: Path, case_arg: str, sim_args: list,
               setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), case_arg]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = perf_counter()
    proc = subprocess.run(cmd + ["--", *sim_args], cwd=root, env=env,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["elapsed_s"] = perf_counter() - t0
    return out


def _ref_loop() -> float:
    """Interpreter work like the program's own: float arithmetic, dict
    inserts and a sort.  It runs no code of the program."""
    table = {}
    for i in range(REF_LOOP_N):
        table[i] = i * 1.5
    return sorted(table.values(), reverse=True)[0]


class SpeedSampler:
    """Times the reference loop every SAMPLE_GAP_S in a thread of the
    runner, which shares its one CPU with the worker it waits for.

    The host's speed changes within seconds and drifts by up to 2x within
    minutes.  The samples interleave with the worker's own time slices, so
    their mean over a timed part is the speed that part ran at.  The
    thread takes about a tenth of the CPU.
    """

    def __init__(self):
        self.samples = []                # (end, duration) of each loop
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            t0 = perf_counter()
            _ref_loop()
            t1 = perf_counter()
            self.samples.append((t1, t1 - t0))
            self._stop.wait(SAMPLE_GAP_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_loop_s(self, start: float, end: float) -> float:
        """Mean loop time over [start, end] (perf_counter of any process:
        it reads the system's monotonic clock)."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:      # a part shorter than one sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return sum(inside) / len(inside)


def scaled(cpu_s: float, loop_s: float) -> float:
    """``cpu_s`` as it would read on a CPU that runs the reference loop in
    REF_LOOP_S, given the mean loop time ``loop_s`` while it ran."""
    return cpu_s * REF_LOOP_S / loop_s


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    from tracing import COUNTS, span_times

    times = span_times(dump["spans"])
    counts = dump["counts"]
    traj = dump["trajectory"]
    counters = {n for _, _, n in COUNTS} | {"caseio.channel_evals"}

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    out = {}
    for name, _, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in counters or kind == "failed":
            out[name] = counts.get(name, 0)
        elif kind in ("calls", "cum_s", "self_s"):
            out[name] = times.get(base, (0, 0.0, 0.0))[
                ("calls", "cum_s", "self_s").index(kind)]
    segments = traj.get("segments.dynamic", 0) + traj.get("segments.qss", 0)
    for key in ("segments.dynamic", "segments.qss", "qss_fraction",
                "mean_step_dynamic_s"):
        out[f"scheduler.{key}"] = traj.get(key, 0)
    solves = calls("engine.solve_segment")
    out["scheduler.segments_per_solve"] = segments / solves if solves else 0.0
    verdicts = calls("scheduler.steadiness_verdict")
    out["scheduler.verdict_pass_ratio"] = (
        counts.get("scheduler.mode_switch.dyn->qss", 0) / verdicts
        if verdicts else 0.0)
    return out


# --------------------------------------------------------------------------
# reporting helpers
# --------------------------------------------------------------------------


def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def timing_line(name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    p = tail_percentile(len(values))
    tail = "-"
    if p is not None:
        q = statistics.quantiles(values, n=1000, method="inclusive")
        tail = f"p{p:g}={q[int(p * 10) - 1]:.6g}"
    return (f"  {name:<14} median={med:.6g} {unit:<5} {tail:<16} "
            f"n={len(values)}")


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref:"):
            return (root / ".git" / ref[4:].strip()).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: Path, reps: list, sampler: SpeedSampler) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ratios = [r["cpu_s"] / r["wall_s"] for r in reps if r["wall_s"] > 0]
    loops = [d for _, d in sampler.samples]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS_USABLE,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "ref_loop_s": statistics.median(loops) if loops else None,
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_VARS
                             if k in os.environ},
        # a single-threaded run uses one CPU second per wall second, less
        # the share the speed sampler takes
        "cpu_over_wall": statistics.median(ratios) if ratios else None,
    }


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from workloads import WORKLOADS, read_summary

    wl = WORKLOADS[name]
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case_arg, sim_args, oracle = wl.prepare(seed, work)
        # compile and cache the modules once, outside the measurement
        run_worker(root, case_arg, sim_args, setup_only=True)

        sampler = SpeedSampler()
        with sampler:
            t_start = perf_counter()
            setups, reps, first_digest = [], [], None
            attempted = failed = 0
            while True:
                i = len(reps)
                traced = trace and i % 2 == 1
                out_path = work / f"rep{i}.csv"
                sum_path = work / f"rep{i}.sum"
                spans = work / f"rep{i}.spans.json" if traced else None
                rep = run_worker(root, case_arg, sim_args + [
                    "--out", str(out_path), "--summary", str(sum_path)],
                    spans=spans)
                rep["traced"] = traced
                rep["setup_n"] = scaled(rep["setup_cpu_s"],
                                        sampler.mean_loop_s(*rep["setup_at"]))
                rep["wall_n"] = scaled(rep["cpu_s"],
                                       sampler.mean_loop_s(*rep["call_at"]))
                setups.append(rep["setup_n"])

                text = out_path.read_text() if out_path.exists() else ""
                summary = (read_summary(sum_path.read_text())
                           if sum_path.exists() else {})
                digest = hashlib.sha256(text.encode()).hexdigest()
                first_digest = first_digest or digest
                try:
                    n_ops, n_bad, note = wl.check(text, summary, oracle)
                except (ValueError, KeyError, IndexError) as exc:
                    n_ops, n_bad, note = 1, 1, f"unreadable output: {exc}"
                problems = []
                if rep["rc"] != 0:
                    problems.append(f"exit {rep['rc']}")
                if summary.get("failure"):
                    problems.append(f"failure: {summary['failure']}")
                if digest != first_digest:
                    problems.append("trajectory differs from repetition 0")
                if problems:
                    n_bad = n_ops
                    note += "; " + "; ".join(problems)
                attempted += n_ops
                failed += n_bad
                rep["note"] = note
                if traced:
                    rep["layers"] = layer_metrics(
                        json.loads(spans.read_text()))
                reps.append(rep)
                print(f"# {name} rep {i}{' traced' if traced else ''}: "
                      f"wall {rep['wall_n']:.3f} s ({rep['wall_s']:.3f} s "
                      f"unscaled), setup {rep['setup_n']:.3f} s, "
                      f"rss {rep['maxrss_kb'] / 1024:.1f} MiB, "
                      f"{n_ops - n_bad}/{n_ops} ok ({note})", flush=True)
                elapsed = perf_counter() - t_start
                if (len(reps) >= MIN_REPS
                        and elapsed + rep["elapsed_s"] > seconds):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall_n"] for r in plain]
    rss = [r["maxrss_kb"] / 1024.0 for r in plain]
    print(f"# {name}, seed {seed}: {len(reps)} repetitions, "
          f"{len(setups)} set-ups")
    print(timing_line("wall_s", "s", walls))
    print(timing_line("setup_s", "s", setups))
    print(timing_line("peak_rss_mb", "MiB", rss))
    print(timing_line("unscaled wall", "s", [r["wall_s"] for r in plain]))
    print(f"  {'failed_ratio':<14} {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    print("# env " + json.dumps(environment(root, plain, sampler)))

    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        # median_low keeps counts whole: they repeat exactly between reps
        values = {m: statistics.median_low(r["layers"][m]
                                           for r in traced_reps)
                  for m, *_ in PER_LAYER if m != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_n"] for r in traced_reps)
            - statistics.median(walls))
        spec = [(m, unit) for m, unit, *_ in PER_LAYER]
        for m, unit, _, moves in PER_LAYER:
            print(f"  {m:<44} {values[m]:<14.6g} {unit:<8} moves {moves}")
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
        spec = END_TO_END
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in spec}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hesim" / "cli.py").is_file():
        print("error: run from the root of a hesim checkout "
              "(src/hesim/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from selftest import run_selftest

    # One CPU for the runner and every interpreter it starts: the host's
    # CPUs change speed independently, and a speed sample only holds for
    # the CPU it was taken on.
    global CPUS_USABLE
    CPUS_USABLE = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    problems = run_selftest()
    if problems:
        print("error: benchmark self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    results = {n: run_workload(root, n, args.seed, args.seconds,
                               bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
