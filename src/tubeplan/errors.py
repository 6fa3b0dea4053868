"""Exception hierarchy shared across the package."""


class TubeplanError(Exception):
    """Base class for all package errors."""


class EmptySetError(TubeplanError):
    """A set operation (erosion, tightening) produced an empty set."""


class InternalError(TubeplanError):
    """A self-check of the program failed: a bug, not an input problem."""


class NonFiniteError(TubeplanError):
    """A numerical quantity became NaN or infinite."""


class AssumptionViolated(TubeplanError):
    """A model assumption (e.g. positive definite input gain) failed."""


class InvalidParam(TubeplanError):
    """A parameter violates its declared precondition."""


class SolverDiverged(TubeplanError):
    """The shooting solver produced a non-finite cost."""


class MitlSyntaxError(TubeplanError):
    """Formula text failed to parse.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedFragment(TubeplanError):
    """Formula is outside the automaton-translatable fragment."""

    def __init__(self, message, subtree=None):
        super().__init__(message)
        self.subtree = subtree


class AbstractionError(TubeplanError):
    """Scenario geometry cannot be abstracted (e.g. overlapping regions)."""


class NoTransition(TubeplanError):
    """Queried transition is absent from the transition system."""


class UnknownTransition(TubeplanError):
    """A run references a transition the transition system does not have."""


class Unrealizable(TubeplanError):
    """No accepting lasso exists in the product.

    ``reachable_locations`` lists the automaton locations of the product
    nodes the search found, kept or pruned, before its kept nodes ran out,
    as a diagnostic for why synthesis failed; the product may reach more.
    """

    def __init__(self, message, reachable_locations=frozenset()):
        super().__init__(message)
        self.reachable_locations = frozenset(reachable_locations)


class SearchBudgetExceeded(TubeplanError):
    """The product search found more nodes than the configured cap before
    it could stop.  A realizable search stops at the first level holding
    an anchor, an unrealizable one when no kept node is left to expand, so
    either can end within a cap that the whole product exceeds."""


class ValidationError(TubeplanError):
    """Scenario validation failed.  ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ExecutionFailure(TubeplanError):
    """A plan leg failed mid-execution.  Carries the partial trace."""

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace
