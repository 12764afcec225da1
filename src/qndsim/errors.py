"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for package-specific failures."""


class NumericsError(SimulationError):
    """A numerical routine failed (linear algebra, truncation)."""


class TruncationError(NumericsError):
    """A grid or series was too short for the requested accuracy."""


class NonUniqueSteadyStateError(NumericsError):
    """The Liouvillian null space has more than one dimension."""


class FitError(SimulationError):
    """Nonlinear least squares did not converge."""
