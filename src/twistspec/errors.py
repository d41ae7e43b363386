"""Exception types shared across the package."""


class TwistspecError(Exception):
    """Base class for all errors raised by twistspec."""


class OrderCapExceeded(TwistspecError):
    """Group materialization hit the configured order cap."""


class BudgetExceeded(TwistspecError):
    """A search exceeded the configured product budget."""


class NotAHomomorphism(TwistspecError):
    """Generator images do not extend to a homomorphism."""


class DefinitionError(TwistspecError):
    """A group-definition file or builder parameter is invalid."""
