"""Exception types shared across the package."""


class InvalidPairError(ValueError):
    """A multiplicity pair violates an admissibility constraint."""


class UnsupportedCaseError(ValueError):
    """The requested quantity is not defined/available for this case."""


class NearFocalError(ValueError):
    """A level-set operation was requested too close to a focal value."""


class SamplingError(RuntimeError):
    """Projection/sampling failed for too large a fraction of points."""


class DivergenceError(ValueError):
    """A requested integral diverges."""
