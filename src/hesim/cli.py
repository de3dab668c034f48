"""Command-line front end: run simulations and compare solver configurations.

Exit codes: 0 success, 1 solve failure, 2 usage error.  Verbosity comes from
the HESIM_LOG environment variable (debug|info|warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import caseio
from .errors import HesimError
from .scheduler import EVENTS, RunConfig, run_simulation

log = logging.getLogger("hesim")


def _setup_logging() -> None:
    level = os.environ.get("HESIM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("case", help="case file path, or builtin:<name>")
    p.add_argument("--mode", default=RunConfig.mode,
                   choices=["hybrid", "dynamic", "qss"],
                   help="qss starts in QSS; a switch event is solved in "
                   "dynamic mode, and only hybrid returns to QSS after it")
    p.add_argument("--order", type=int, default=RunConfig.order,
                   help="series order N (4..40)")
    p.add_argument("--eps-t", type=float, default=RunConfig.eps_t,
                   help="steady-state threshold, per-unit/s")
    p.add_argument("--tol", type=float, default=RunConfig.tol_res,
                   help="segment residual tolerance")
    p.add_argument("--dt-out", type=float, default=RunConfig.dt_out,
                   help="output sampling interval, s")
    p.add_argument("--t-end", type=float, default=None,
                   help="override the case's stop time")
    p.add_argument("--out", default=None, help="trajectory file path")
    p.add_argument("--summary", default=None,
                   help="machine-readable key=value summary path")


def _load(case_arg: str):
    if case_arg.startswith("builtin:"):
        return caseio.builtin_case(case_arg.split(":", 1)[1])
    return caseio.load_case(case_arg)


def _config(args, script) -> RunConfig:
    t_end = args.t_end
    if t_end is None:
        t_end = min((e.t_due for e in script if e.kind == "stop"
                     and e.t_due is not None), default=RunConfig.t_end)
    return RunConfig(mode=args.mode, order=args.order, eps_t=args.eps_t,
                     tol_res=args.tol, dt_out=args.dt_out, t_end=t_end)


def _summary_pairs(traj, config: RunConfig) -> list:
    counts = traj.segment_counts()
    total = sum(s.step for s in traj.segments)
    return [
        ("case", traj.case.name),
        ("mode", config.mode),
        ("order", config.order),
        ("eps_t", config.eps_t),
        ("t_end", total),
        ("qss_time", traj.qss_time()),
        ("qss_fraction", traj.qss_fraction()),
        ("event_count", len(traj.events)),
        ("segments_dynamic", counts.get("dynamic", 0)),
        ("segments_qss", counts.get("qss", 0)),
        ("failure", traj.failure or ""),
        ("wall_time_s", round(traj.wall_time, 3)),
    ]


def cmd_simulate(args) -> int:
    case, script = _load(args.case)
    try:
        config = _config(args, script)
    except ValueError as exc:  # invalid run settings: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traj = run_simulation(case, script, config)

    if args.out and traj.segments:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(caseio.write_trajectory(traj, config.dt_out))
    pairs = _summary_pairs(traj, config)
    for k, v in pairs:
        print(f"{k}={v}")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in pairs))
    if traj.failure:
        print(f"error: {traj.failure}", file=sys.stderr)
        return 1
    return 0


def _method_event_times(case, script, methods, config):
    """Conditional-event times from baseline integrations, one per
    (name, integrator) pair of ``methods``.

    One system, built at t = 0, is integrated to the end, so the script may
    change it only at t = 0 and without a switch (a ramp starting then);
    every later event must leave it alone (record, stop).  The 2-bus ramping
    study is the intended use.
    """
    import copy

    from . import model as mdl
    from .reference import DaeModel, integrate_reference, linear_crossing

    at_start = []
    for ev in script:
        kind = EVENTS[ev.kind]
        if kind.action is None:
            continue
        if ev.t_due is None or ev.t_due > 1e-9 or kind.switch:
            when = "on a trigger" if ev.t_due is None else f"at t={ev.t_due!r}"
            raise HesimError(f"--methods cannot replay {ev} {when}")
        at_start.append(ev)
    conds = [e for e in script if e.condition is not None]
    if not conds:
        return []
    st = mdl.init_equilibrium(case, mode=config.mode
                              if config.mode != "hybrid" else "dynamic")
    for ev in sorted(at_start, key=lambda e: e.t_due):
        EVENTS[ev.kind].action(case, st, ev.payload, 0.0)
    built = mdl.build_system(case, st)
    mdl.refine_state(built, st)
    # the triggers read through the channel map of the analytic segments
    chans = tuple((e.condition.channel, e.condition.args) for e in conds)
    known = built.knowns(st, 0.0).T  # the ramps are linear in t
    rows = []
    for m, integrator in methods:
        model = DaeModel(built, copy.deepcopy(st))
        out = integrate_reference(model, (0.0, config.t_end), integrator,
                                  h=0.01)
        lhs = built.channel_map.apply(chans, (
            out.values.T, np.polynomial.polynomial.polyval(out.ts, known)),
            out.ts)
        for ev, h in zip(conds, lhs):
            t_hit = linear_crossing(out.ts, ev.condition.h(h))
            if t_hit is not None:
                rows.append((m, ev.condition.text, t_hit))
    return rows


def cmd_compare(args) -> int:
    case, script = _load(args.case)
    runs = [m.strip() for m in args.runs.split(",") if m.strip()]
    methods = [m.strip() for m in (args.methods or "").split(",") if m.strip()]
    if len(runs) + len(methods) < 2:
        print("error: compare needs at least two configurations",
              file=sys.stderr)
        return 2

    try:
        configs = {mode: _config(argparse.Namespace(**{**vars(args),
                                                       "mode": mode}), script)
                   for mode in runs}
    except ValueError as exc:  # invalid run settings: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    integrator = {"me": "modified-euler", "trap": "trapezoidal",
                  "adaptive": "adaptive-high-order"}
    unknown = [m for m in methods if m not in integrator]
    if unknown:
        print(f"error: unknown --methods {', '.join(unknown)} (choose from "
              f"{', '.join(integrator)})", file=sys.stderr)
        return 2
    # the baselines reject a script they cannot replay before any run starts
    method_rows = (_method_event_times(
        case, script, [(m, integrator[m]) for m in methods],
        _config(args, script)) if methods else [])
    trajs = {}
    for mode, config in configs.items():
        traj = trajs[mode] = run_simulation(case, script, config)
        failure = traj.failure or (
            "" if traj.segments else "the run ends before its first segment")
        if failure:
            print(f"error: {mode}: {failure}", file=sys.stderr)
            return 1

    base = runs[0]
    t_end = min(t.t_end for t in trajs.values())
    ts = np.arange(0.0, t_end + 1e-9, args.dt_out)
    chans = [("f", ())] + [("V", (str(b.bus),)) for b in case.buses]
    vals = {mode: traj.sample(chans, ts, traj.segment_index(ts))
            for mode, traj in trajs.items()}
    lines = []
    for mode in runs[1:]:
        diffs = np.abs(vals[base] - vals[mode])
        for (chan, cargs), d in zip(chans, diffs):
            name = chan if not cargs else f"{chan}:{','.join(cargs)}"
            lines.append((f"{base}|{mode}", name, float(np.max(d)),
                          float(np.mean(d))))
    print(f"# compare {args.case}: baseline={base}, dt={args.dt_out}")
    print("pair,channel,max_abs_diff,mean_abs_diff")
    for pair, name, mx, mn in lines:
        print(f"{pair},{name},{mx!r},{mn!r}")

    # event-time table for condition-triggered events; fixed-step reference
    # methods resolve them by linear interpolation of the sampled channel
    cond_rows = []
    for mode in runs:
        for ev in trajs[mode].events:
            if ev.kind == "conditional":
                cond_rows.append((mode, ev.label, ev.t))
    cond_rows += method_rows
    if cond_rows:
        base_times = {label: t for mode, label, t in cond_rows
                      if mode == base}
        print("run,condition,t_resolved,abs_diff_vs_baseline")
        for mode, label, t in cond_rows:
            d = abs(t - base_times[label]) if label in base_times else float("nan")
            print(f"{mode},{label},{t!r},{d!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("pair,channel,max_abs_diff,mean_abs_diff\n")
            for pair, name, mx, mn in lines:
                fh.write(f"{pair},{name},{mx!r},{mn!r}\n")
            for mode, label, t in cond_rows:
                fh.write(f"event,{mode},{label},{t!r}\n")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="hesim",
        description="Extended-term hybrid QSS/dynamic grid simulation on "
                    "holomorphic-embedding series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    _add_run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run and diff configurations")
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--runs", default="hybrid,dynamic",
                       help="comma-separated mode list, first is baseline")
    p_cmp.add_argument("--methods", default="",
                       help="also resolve conditional events with baseline "
                            "integrators: me, trap (fixed step) or adaptive "
                            "(DOP853), ramp-only scripts; an unknown name "
                            "exits 2")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, HesimError) as exc:  # e.g. a missing case file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
