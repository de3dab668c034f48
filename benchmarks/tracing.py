"""Spans and counters recorded around calls into hesim's modules.

The benchmark wraps each layer's entry points from outside the program, at
the name its caller looks it up by (``from .engine import solve_segment``
binds a second name that must be wrapped on its own).  A span records
name, start, end, parent span and run id; spans stay in memory until the
repetition ends and are then written out as JSON.  Counters are taken at
the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name); a dotted attribute wraps a class method
SPANS = [
    ("hesim.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("hesim.caseio", "parse_case", "caseio.parse_case"),
    ("hesim.caseio", "write_trajectory", "caseio.write_trajectory"),
    ("hesim.cli", "run_simulation", "scheduler.run_simulation"),
    ("hesim.scheduler", "init_equilibrium", "model.init_equilibrium"),
    ("hesim.scheduler", "build_system", "model.build_system"),
    ("hesim.model", "build_system", "model.build_system"),
    ("hesim.model", "build_admittance", "grid.build_admittance"),
    ("hesim.scheduler", "refine_state", "model.refine_state"),
    ("hesim.model", "refine_state", "model.refine_state"),
    ("hesim.model", "solve_alpha_problem", "engine.solve_alpha_problem"),
    ("hesim.scheduler", "solve_segment", "engine.solve_segment"),
    ("hesim.engine", "CompiledSystem.solve_series", "engine.solve_series"),
    ("hesim.engine", "batch_pade", "engine.batch_pade"),
    ("hesim.engine", "min_real_positive_root",
     "engine.min_real_positive_root"),
    ("hesim.engine", "shrink_refine_range", "series.shrink_refine_range"),
    ("hesim.scheduler", "steadiness_verdict", "scheduler.steadiness_verdict"),
    ("hesim.scheduler", "steady_state_check", "bounds.steady_state_check"),
    ("hesim.scheduler", "locate_conditional_event",
     "scheduler.locate_conditional_event"),
    ("hesim.scheduler", "mode_switch", "scheduler.mode_switch"),
]

# (module, attribute, counter name): calls counted without a span, because
# they are too frequent for one
COUNTS = [
    ("hesim.engine", "pade_with_fallback", "engine.pade_fallback.calls"),
    ("hesim.engine", "SegmentSolution.residual_max_at",
     "engine.residual_probes.calls"),
    ("hesim.scheduler", "SegmentRecord.channel", "scheduler.channel_evals"),
]


class Tracer:
    """In-memory span and counter store for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.trajectory = None       # what run_simulation returned
        self._stack: list = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self._stack.pop()
                rec[2] = perf_counter()
            if name == "scheduler.run_simulation":
                self.trajectory = out
            elif name == "scheduler.mode_switch":
                self.counts[f"{name}.{args[2]}"] += 1
            return out
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            # output sampling is the channel evaluations made while the
            # trajectory file is written
            if (name == "scheduler.channel_evals" and self._stack
                    and self.spans[self._stack[-1]][0]
                    == "caseio.write_trajectory"):
                self.counts["caseio.channel_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed entry point; the process is not restored, so
        call this once per traced process."""
        for table, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for module, attr, name in table:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                setattr(owner, leaf, make(name, getattr(owner, leaf)))

    def dump(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p,
                           "run": self.run_id}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


def span_times(spans: list) -> dict:
    """{name: (calls, cumulative s, self s)} of a span list.

    Self time is a span's duration minus the part of it its child spans
    cover; children of one parent never overlap (single-threaded calls).
    """
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_s[sp["parent"]] += sp["end"] - sp["start"]
    out: dict = {}
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        calls, cum, self_s = out.get(sp["name"], (0, 0.0, 0.0))
        out[sp["name"]] = (calls + 1, cum + dur, self_s + dur - child_s[i])
    return out
