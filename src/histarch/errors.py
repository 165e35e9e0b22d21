"""Exception types shared across the package."""


class HistarchError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HistarchError):
    """A coordinate vector lies outside the search domain."""


class InputError(HistarchError):
    """Malformed numeric input (non-finite values, wrong length)."""


class ParameterError(HistarchError):
    """A configuration parameter is out of its valid range."""


class StructuralError(HistarchError):
    """A tree node does not belong to the archive it was used with."""


class BudgetExhaustedError(HistarchError):
    """The evaluation budget is used up; a terminal signal, not a bug."""


class SearchSpaceExhaustedError(HistarchError):
    """Blocked regions cover the whole domain; the explorer cannot continue."""
