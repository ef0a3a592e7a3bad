"""Exception types shared across gasketlab modules; each carries its CLI exit code."""


class GasketLabError(Exception):
    """Base class for all gasketlab errors."""

    exit_code = 3
    prefix = "error"


class InputError(GasketLabError):
    """The input was malformed or out of range: exit code 2."""

    exit_code = 2


class NumericalError(GasketLabError):
    """A computation failed on valid input: exit code 3."""

    prefix = "numerical failure"


class InvalidParameterError(InputError, ValueError):
    """A numeric parameter is out of its admissible range."""


class ProportionalityError(NumericalError):
    """A traced form failed to be an exact rational multiple of the base form.

    This signals an implementation bug, not a mathematical failure.
    """


class EigenRelationError(NumericalError):
    """An exact eigenvector identity of an extension matrix failed."""


class InadmissibleWordError(InputError, ValueError):
    """A word does not follow the labeling rule of the gasket spec."""


class BudgetExceededError(InputError):
    """An enumeration would exceed the configured word budget."""


class DegenerateBasisError(InputError, ValueError):
    """Basis vectors do not span the complement of constants."""


class DisconnectedNetworkError(NumericalError):
    """A conductance network is not connected."""


class EmptyBoundaryError(InputError, ValueError):
    """A Dirichlet problem was posed with no boundary vertices."""


class InvalidVertexError(InputError, ValueError):
    """A vertex reference does not belong to the network in question."""


class NotFoundError(NumericalError):
    """A searched-for integer (e.g. a decay depth) does not exist in range."""


class SpecParseError(InputError, ValueError):
    """A gasket spec file is not syntactically valid."""


class SpecSemanticError(InputError, ValueError):
    """A gasket spec file parsed but violates the schema's semantics."""
