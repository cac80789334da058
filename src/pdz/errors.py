"""Exception types shared across the package."""


class PdzError(Exception):
    """Base class for all package errors."""


class ConfigError(PdzError):
    """Malformed configuration, schema violation, or unresolvable reference."""


class DomainMismatchError(PdzError):
    """Operands live on incompatible boxes/grids, or a precondition fails."""


class NonFiniteValueError(PdzError):
    """An evaluator or input produced NaN/Inf."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class ResourceLimitError(PdzError):
    """A size cap (box points, dense matrix) would be exceeded."""


class SingularSymbolError(PdzError):
    """A symbol vanishes (below threshold) where an inverse is required."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotEllipticError(PdzError):
    """Ellipticity check failed; carries the minimizing (k, x) witness."""

    def __init__(self, message, witness=None, constant=None):
        super().__init__(message)
        self.witness = witness
        self.constant = constant


class DivergenceError(PdzError):
    """A solve missed its tolerance; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])
