"""Exception hierarchy shared across the package."""


class ContestLabError(Exception):
    """Base class for all contestlab errors."""


class DomainError(ContestLabError, ValueError):
    """An argument lies outside the domain a primitive is defined on."""


class SolverError(ContestLabError, RuntimeError):
    """An iterative solver failed to converge or found no admissible root."""


class UnconvergedProfileError(SolverError):
    """A downstream operation refused to use an unconverged strategy profile."""
