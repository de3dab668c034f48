"""Every entry point the benchmark tracer wraps must exist in hesim.

``benchmarks/run.py --trace 1`` wraps the names listed in
``benchmarks/tracing.py``; a rename in ``src/`` would otherwise only show
up as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in _TRACING.SPANS + _TRACING.COUNTS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_mode_switch_direction_is_its_third_positional_argument(
        monkeypatch):
    # the tracer counts scheduler.mode_switch.<direction> from args[2]
    from hesim import scheduler
    from hesim.caseio import builtin_case

    calls = []
    switch = scheduler.mode_switch

    def recording(*args, **kwargs):
        calls.append(args)
        return switch(*args, **kwargs)

    monkeypatch.setattr(scheduler, "mode_switch", recording)
    case, script = builtin_case("fourbus")
    traj = scheduler.run_simulation(
        case, script, scheduler.RunConfig(mode="hybrid", t_end=40.0))
    assert traj.failure is None
    assert all(len(args) > 2 and args[2] in ("dyn->qss", "qss->dyn")
               for args in calls)
    assert {args[2] for args in calls} == {"dyn->qss", "qss->dyn"}


def test_scheduler_calls_the_locator_through_its_module_global(monkeypatch):
    # the tracer counts scheduler.locate_conditional_event by patching this
    # global; a local binding in the loop would leave the count at 0
    from hesim import scheduler
    from hesim.caseio import builtin_case

    calls = []
    locate = scheduler.locate_conditional_event

    def counting(*args, **kwargs):
        calls.append(args)
        return locate(*args, **kwargs)

    monkeypatch.setattr(scheduler, "locate_conditional_event", counting)
    case, script = builtin_case("twobus")
    traj = scheduler.run_simulation(
        case, script, scheduler.RunConfig(mode="qss", t_end=15.0))
    assert traj.failure is None
    assert calls


def test_one_locator_call_per_segment_with_pending_triggers(monkeypatch):
    # 50 record triggers on the twobus ramp, as the benchmark's twobus-events
    # workload sets them: one pass locates a segment's triggers, with no
    # second call from a fired record's root
    from conftest import make_twobus_case, twobus_ramp_thresholds
    from hesim import scheduler

    conds = [f"I(1,2) > {x!r}" for x in twobus_ramp_thresholds()]
    script = [scheduler.SimEvent(kind="ramp_load", t_due=0.0,
                                 payload={"load": "LD2", "rate": 1.0})] + [
        scheduler.SimEvent(kind="record", label=c,
                           condition=scheduler.Condition.parse(c))
        for c in conds]
    calls = []
    locate = scheduler.locate_conditional_event

    def counting(*args, **kwargs):
        calls.append(args)
        return locate(*args, **kwargs)

    monkeypatch.setattr(scheduler, "locate_conditional_event", counting)
    traj = scheduler.run_simulation(make_twobus_case(), script,
                                    scheduler.RunConfig(mode="qss",
                                                        t_end=15.4))
    assert traj.failure is None
    assert len([e for e in traj.events if e.kind == "conditional"]) == 50
    assert len(calls) == len(traj.segments)


def test_one_segment_solve_per_segment(monkeypatch):
    # the tracer counts engine.solve_segment through this scheduler global:
    # one call per segment
    from hesim import scheduler
    from hesim.caseio import builtin_case

    calls = []
    solve = scheduler.solve_segment

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scheduler, "solve_segment", counting)
    case, script = builtin_case("fourbus")
    traj = scheduler.run_simulation(
        case, script, scheduler.RunConfig(mode="hybrid", t_end=40.0))
    assert traj.failure is None
    assert len(calls) == len(traj.segments) > 0


def test_one_alpha_solve_per_switch(monkeypatch):
    # the tracer counts engine.solve_alpha_problem through this model
    # global: one call for the power flow and one per switch, however many
    # stages a switch's alpha path takes
    from hesim import model, scheduler
    from hesim.caseio import builtin_case

    calls = []
    solve = model.solve_alpha_problem

    def counting(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(model, "solve_alpha_problem", counting)
    case, script = builtin_case("ne39")
    traj = scheduler.run_simulation(
        case, script, scheduler.RunConfig(mode="hybrid", t_end=20.0))
    assert traj.failure is None
    switches = [ev for ev in traj.events if ev.kind in scheduler.EVENTS
                and scheduler.EVENTS[ev.kind].switch]
    assert switches
    assert len(calls) == 1 + len(switches)
    assert calls[0] == "ALPHA_POWERFLOW"


def test_segments_screen_poles_through_the_engine_global(monkeypatch):
    # the tracer times engine.min_real_positive_root by patching this
    # global; a local binding in _certified_segment (which the alpha stages
    # run too) would leave its calls and self time at 0
    import numpy as np

    from hesim import engine

    calls = []
    screen = engine.min_real_positive_root

    def counting(*args, **kwargs):
        calls.append(args)
        return screen(*args, **kwargs)

    monkeypatch.setattr(engine, "min_real_positive_root", counting)
    b = engine.SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    seg, _ = engine.solve_segment(b.compile(), np.array([1.0]),
                                  np.zeros((0, 16)), 15, 1e-6, 1.0)
    assert len(calls) == 1 and seg.t_e > 0.0
    b = engine.SystemBuilder()
    y, alpha = b.alg("y"), b.known("alpha")
    eq = b.alg_eq("g")
    b.term(eq, 1.0, y)
    b.term(eq, -1.0)
    b.term(eq, -1.0, alpha)
    out = engine.solve_alpha_problem(b.compile(), np.array([1.0]),
                                     np.array([[0.0, 1.0]]), "ALPHA_PARAM")
    assert len(calls) > 1 and out.tolist() == [2.0]
