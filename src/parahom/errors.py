"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter combination violates a documented precondition."""


class IntegrityError(RuntimeError):
    """A computed object violates an invariant it promised to keep."""


class SolverError(RuntimeError):
    """An iterative or direct solve failed to reach its tolerance."""
