"""Exception types shared across the package."""


class ChainIsomError(Exception):
    """Base class for all library errors."""


class OutOfRange(ChainIsomError):
    """A chain size, a point or a pair entry is not valid: a point outside
    the chain 1..n, a value that is not an ``int``, an entry that is not
    an (x, y) pair, or a JSON form that is not an object with "n" and
    "map" keys."""


class NotFunctional(ChainIsomError):
    """A domain point appears more than once."""


class NotInjective(ChainIsomError):
    """An image point appears more than once."""


class MismatchedChain(ChainIsomError):
    """Two maps live on chains of different sizes."""


class LimitExceeded(ChainIsomError):
    """A size cap was exceeded (enumeration, oracle, or table construction)."""


class NotClosed(ChainIsomError):
    """An element set is not closed under composition.

    The offending factor pair is available as the ``pair`` attribute.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotAssociative(ChainIsomError):
    """A multiplication table fails associativity."""


class NoZero(ChainIsomError):
    """A table-level check requires a zero element, but none is marked."""


class DomainError(ChainIsomError):
    """Arguments lie outside the mathematical domain of an operation."""
