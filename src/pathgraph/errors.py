"""Exception taxonomy shared across the package."""


class PathgraphError(Exception):
    """Base class for all package errors."""


class InputError(PathgraphError):
    """Malformed input (parsing, invalid vertex ids, self-loops, ...)."""


class PreconditionError(PathgraphError):
    """An operation was called on a graph that violates its stated precondition."""


class GuardRefusal(PathgraphError):
    """An exhaustive routine refused to run because the instance exceeds its guard."""


class InvariantError(PathgraphError):
    """An internal structural invariant failed; indicates a bug, not bad input."""


class GenerationError(PathgraphError):
    """A random generator could not produce a valid instance within its retry budget."""
