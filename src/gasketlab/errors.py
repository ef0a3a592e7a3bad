"""Exception types shared across gasketlab modules."""


class GasketLabError(Exception):
    """Base class for all gasketlab errors."""


class InvalidParameterError(GasketLabError, ValueError):
    """A numeric parameter is out of its admissible range."""


class ProportionalityError(GasketLabError):
    """A traced form failed to be an exact rational multiple of the base form.

    This signals an implementation bug, not a mathematical failure.
    """


class EigenRelationError(GasketLabError):
    """An exact eigenvector identity of an extension matrix failed."""


class InadmissibleWordError(GasketLabError, ValueError):
    """A word does not follow the labeling rule of the gasket spec."""


class BudgetExceededError(GasketLabError):
    """An enumeration would exceed the configured word budget."""


class DegenerateBasisError(GasketLabError, ValueError):
    """Basis vectors do not span the complement of constants."""


class DisconnectedNetworkError(GasketLabError):
    """A conductance network is not connected."""


class EmptyBoundaryError(GasketLabError, ValueError):
    """A Dirichlet problem was posed with no boundary vertices."""


class InvalidVertexError(GasketLabError, ValueError):
    """A vertex reference does not belong to the network in question."""


class NotFoundError(GasketLabError):
    """A searched-for integer (e.g. a decay depth) does not exist in range."""


class SpecParseError(GasketLabError, ValueError):
    """A gasket spec file is not syntactically valid."""


class SpecSemanticError(GasketLabError, ValueError):
    """A gasket spec file parsed but violates the schema's semantics."""
