"""Shared fixtures; the expensive reference runs are session-scoped."""

import math

import numpy as np
import pytest

from hesim import scheduler
from hesim.caseio import builtin_case
from hesim.grid import (
    SOURCE,
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
)
from hesim.reference import TwoBusCase, two_bus_current_sq
from hesim.scheduler import RunConfig, run_simulation


def make_smib(p_set=0.9, d=3.0, ka=30.0):
    """Single machine against an ideal source through two lines."""
    return GridCase(
        name="smib", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2), BusSpec(3)],
        branches=[BranchSpec("L12", 1, 2, 0.0, 0.1, 0.02),
                  BranchSpec("L23", 2, 3, 0.01, 0.08)],
        gens=[GenSpec("G1", 1, p_set=p_set, v_set=1.02, d=d, avr_ka=ka,
                      avr_ta=0.3),
              GenSpec("S3", 3, kind=SOURCE, v_set=1.0)],
        loads=[LoadSpec("LD2", 2, 0.5, 0.2, 0.3, 0.2, 0.5)],
    )


def make_twobus_case():
    return GridCase(
        name="twobus", f_nominal=60.0,
        buses=[BusSpec(1), BusSpec(2)],
        branches=[BranchSpec("L12", 1, 2, 0.01, 0.05)],
        gens=[GenSpec("S1", 1, kind=SOURCE, v_set=1.01)],
        loads=[LoadSpec("LD2", 2, 0.1, 0.3, 0.0, 0.0, 1.0, scale=0.0)],
    )


def twobus_ramp_thresholds(n=50, seed=1):
    """Line currents of the twobus ramp at n seeded, stratified times, as
    the benchmark's twobus-events generator sets its record triggers."""
    tb = TwoBusCase()
    rng = np.random.default_rng(seed)
    width = (15.18 - 0.61) / n
    return [math.sqrt(two_bus_current_sq(
        tb, 0.61 + (k + rng.uniform(0.1, 0.9)) * width)) for k in range(n)]


def monitored_names(built):
    """A Built's verdict rows from its machines and names: (the plain row
    names, {island index: (reference angle, every angle of the island)}).
    A machine is monitored where its delta:<gen> exists; the reference is
    the island's ref_gen where that is monitored, else its first monitored
    machine."""
    idx = built.system.index
    plain, angles = [], {}
    for isl in built.islands:
        gens = [g for g in isl.machines if f"delta:{g}" in idx]
        if gens:
            ref = isl.ref_gen if isl.ref_gen in gens else gens[0]
            plain += [f"{kind}:{g}" for g in gens
                      for kind in ("omega", "epsq", "epsd", "avr", "gov")]
            angles[isl.index] = (f"delta:{ref}", [f"delta:{g}" for g in gens])
    return plain, angles


def run_from(monkeypatch, case, script, config, state):
    """run_simulation started from ``state`` in place of the equilibrium it
    computes; the run advances ``state`` in place."""
    monkeypatch.setattr(scheduler, "init_equilibrium", lambda *_, **__: state)
    return run_simulation(case, script, config)


def padded(rows, width):
    """Coefficient rows zero-padded to width: a segment's Pade rows are
    views only as wide as its used degree."""
    return np.pad(rows, ((0, 0), (0, width - rows.shape[1])))


@pytest.fixture(scope="session")
def fourbus():
    case, script = builtin_case("fourbus")
    return case, script


@pytest.fixture(scope="session")
def fourbus_hybrid_series():
    """The series C of each segment of ``fourbus_hybrid``, by id(seg): a
    finished segment does not keep it."""
    return {}


@pytest.fixture(scope="session")
def fourbus_hybrid(fourbus, fourbus_hybrid_series):
    case, script = fourbus
    solve = scheduler.solve_segment

    def keeping(*args):
        seg, C = solve(*args)
        fourbus_hybrid_series[id(seg)] = C
        return seg, C

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "solve_segment", keeping)
        return run_simulation(case, script,
                              RunConfig(mode="hybrid", t_end=500.0))


@pytest.fixture(scope="session")
def fourbus_dynamic(fourbus):
    case, script = fourbus
    return run_simulation(case, script, RunConfig(mode="dynamic", t_end=500.0))
