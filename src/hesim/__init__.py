"""Extended-term hybrid QSS/dynamic power-system simulation on
holomorphic-embedding series."""

from .bounds import SteadyStateVerdict, poly_bounds, steady_state_check
from .caseio import builtin_case, load_case, parse_case, write_trajectory
from .engine import SegmentSolution
from .grid import (
    BranchSpec,
    BusSpec,
    GenSpec,
    GridCase,
    LoadSpec,
    MotorSpec,
    build_admittance,
    machine_injection,
)
from .model import SystemState, init_equilibrium, solve_powerflow
from .reference import TwoBusCase, integrate_reference, two_bus_current_sq, \
    two_bus_event_time
from .scheduler import (
    Condition,
    RunConfig,
    SimEvent,
    Trajectory,
    locate_conditional_event,
    mode_switch,
    run_simulation,
)

__version__ = "0.1.0"
