"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with arguments violating its precondition."""


class DomainError(ValueError):
    """Parameters outside the mathematical domain of an operation."""


class UnsupportedSpecError(ValueError):
    """A lattice or mode configuration the implementation does not support."""


class DegeneratePathError(ValueError):
    """A discretized path contains a zero-length or reversed segment."""


class SectorOverflowError(ValueError):
    """A state operation would exceed the configured Fock sector bound."""


class LeakageError(RuntimeError):
    """Repeated vertex application escapes the truncated operator sector."""

    def __init__(self, message, basis_state=None):
        super().__init__(message)
        self.basis_state = basis_state


class AccuracyError(RuntimeError):
    """A quadrature failed to reach its requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
