"""Exception hierarchy for the boundary-layer solver."""


class MhblError(Exception):
    """Base class for all library errors."""


class GridSizingError(MhblError, ValueError):
    """Grid constructor arguments are non-positive or too small."""


class PositivityError(MhblError, ValueError):
    """Outflow traces or wall data violate strict positivity."""


class PreconditionError(MhblError, ValueError):
    """Initial data violates a required lower bound (margin 2*delta)."""


class DegenerateStateError(MhblError, ValueError):
    """A coefficient denominator (P - q, Q, q, theta) fell below the guard,
    or a frozen u1 is not finite."""


class NondegeneracyError(MhblError, ValueError):
    """Tangential magnetic field dropped below delta; the stream-function
    coordinate change is not invertible there."""


class CFLError(MhblError, RuntimeError):
    """Explicit advection stability bound violated; refusing to step."""


class LinearSolveError(MhblError, RuntimeError):
    """A step's implicit system is singular, nearly so, or not finite."""


class NonConvergenceError(MhblError):
    """An iteration stopped at its iteration cap short of its tolerance."""


class MissingTimeLevelError(MhblError, ValueError):
    """An operation needed an adjacent time level that was not supplied."""


class ConfigError(MhblError, ValueError):
    """Run configuration could not be parsed or validated."""


class SnapshotFormatError(MhblError, ValueError):
    """Snapshot file is malformed, truncated, or has a wrong version."""
