"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DomcoverError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(DomcoverError):
    """A result failed its own certificate check; this is a bug, not bad input."""


def invariant(condition: bool, message: str) -> None:
    """Raise InvariantError unless condition holds; unlike assert, survives -O."""
    if not condition:
        raise InvariantError(message)


class TournamentBuildError(DomcoverError, ValueError):
    """A proposed edge list does not define a tournament."""

    def __init__(self, pair, message):
        self.pair = pair
        super().__init__(f"{message}: pair {pair}")


class SelfLoopError(TournamentBuildError):
    def __init__(self, pair):
        super().__init__(pair, "self loop")


class DuplicatePairError(TournamentBuildError):
    def __init__(self, pair):
        super().__init__(pair, "pair oriented twice")


class MissingPairError(TournamentBuildError):
    def __init__(self, pair):
        super().__init__(pair, "pair has no orientation")


class OutOfRangeError(TournamentBuildError):
    def __init__(self, pair):
        super().__init__(pair, "endpoint outside vertex range")


class VertexNotFoundError(DomcoverError, ValueError):
    pass


class ParseError(DomcoverError, ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class InstanceTooLargeError(DomcoverError):
    """Input exceeds the configured ceiling of an exact algorithm."""

    def __init__(self, size, ceiling, what="instance"):
        self.size = size
        self.ceiling = ceiling
        super().__init__(f"{what} size {size} exceeds ceiling {ceiling}")


class BudgetExhaustedError(DomcoverError):
    """Search ran out of budget; result is unknown (NOT a proof of absence)."""

    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"search budget of {budget} nodes exhausted")


class SearchFailedError(DomcoverError):
    """A randomized construction search exhausted its budget without success."""


class DimensionMismatchError(DomcoverError, ValueError):
    pass


class GeneralPositionError(DomcoverError, ValueError):
    """Two points share a coordinate value on some axis."""

    def __init__(self, axis, i, j):
        self.axis = axis
        self.points = (i, j)
        super().__init__(f"points {i} and {j} share a value on axis {axis}")


class NotPrimeError(DomcoverError, ValueError):
    pass


class WrongResidueClassError(DomcoverError, ValueError):
    """q is 1 mod 4, so x -> y-x-is-a-square yields 2-cycles, not a tournament."""


class NotPaleyBaseError(DomcoverError, ValueError):
    pass


class NotTwoColoredError(DomcoverError, ValueError):
    pass


class NotTransitivelyColoredError(DomcoverError, ValueError):
    pass


class EvenOrderCountError(DomcoverError, ValueError):
    pass


class MismatchedDomainsError(DomcoverError, ValueError):
    pass


class InfeasibleWeightsError(DomcoverError, ValueError):
    pass


class LPInfeasibleError(DomcoverError):
    pass


class LPUnboundedError(DomcoverError):
    pass
