"""Exception types shared across the package."""


class CapacityError(ValueError):
    """An input exceeds a hard size bound (qubit count, graph catalog size)."""


class GenerationError(RuntimeError):
    """Random graph generation could not satisfy the request."""


class NumericalError(RuntimeError):
    """A computation produced a non-finite value."""
