"""Exception types shared across the simulator."""


class HesimError(Exception):
    """Base class for all simulator errors."""


# --- effective range -------------------------------------------------------

class NoValidRange(HesimError):
    """Residual exceeds tolerance even at the smallest probed range."""


# --- steady-state bounds ---------------------------------------------------

class EmptyVariableSet(HesimError):
    """Steady-state check called with no variables to monitor."""


# --- grid model ------------------------------------------------------------

class PowerFlowInfeasible(HesimError):
    """Initial power flow has no solution (e.g. loading past the nose)."""


# --- embedding engine ------------------------------------------------------

class SingularJacobian(HesimError):
    """Algebraic Jacobian is singular, or a solve through it is not finite
    (degenerate operating point)."""


class AnchorInconsistent(HesimError):
    """Order-0 values do not satisfy the embedding's anchor equations."""


class NoConvergenceAtAlpha1(HesimError):
    """The switching continuation does not reach a valid state at alpha=1:
    a stage failed or certified less than 2^-8 of the alpha it would
    reach, or 2^8 stages did not get there.  The message names the switch
    kind and the alpha reached."""


class ZeroBoundaryVoltage(HesimError):
    """Cut element sits on a (near) zero-voltage boundary bus."""


# --- reference solvers -----------------------------------------------------

class PastCollapse(HesimError):
    """Closed-form two-bus solution queried beyond the voltage-collapse time."""


class Unreachable(HesimError):
    """Requested threshold is never crossed before collapse."""


class StepRejectionLimit(HesimError):
    """Implicit or adaptive integrator exceeded its iteration budget."""


# --- case I/O --------------------------------------------------------------

class ParseError(HesimError):
    """Malformed case text; only the case parser raises it."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ValidationError(HesimError):
    """Structurally valid file that fails semantic checks."""
