"""Exception hierarchy shared by all matula modules."""


class MatulaError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(MatulaError):
    """A prime index exceeds what the oracle can answer under its ceiling.

    ``index`` is the offending prime index.  When raised from an encode it is
    also the Matula number of the smallest infeasible subtree, which is what
    a caller needs to judge feasibility.
    """

    def __init__(self, message, index=None, limit_value=None):
        super().__init__(message)
        self.index = index
        self.limit_value = limit_value


class ValueOutOfRange(MatulaError):
    """A prime value query exceeds the oracle's configured value ceiling."""

    def __init__(self, message, value=None, limit_value=None):
        super().__init__(message)
        self.value = value
        self.limit_value = limit_value


class NotPrime(MatulaError):
    """prime_index was asked for a composite number or a number below 2."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class FactorOutOfRange(MatulaError):
    """A cofactor can neither be factored in range nor certified prime."""

    def __init__(self, message, value=None, cofactor=None):
        super().__init__(message)
        self.value = value
        self.cofactor = cofactor


class DomainError(MatulaError):
    """An argument is outside the mathematical domain of the operation."""


class SizeTooLarge(MatulaError):
    """A size exceeds its cap: the enumerator's per-class cap, its counting
    bound of 2000, or the extremal layer's ``SIZE_CAP``."""

    def __init__(self, message, size, cap):
        super().__init__(message)
        self.size = size
        self.cap = cap


class TreeSyntaxError(MatulaError):
    """Malformed tree text.

    ``offset`` is the byte offset of the failure (the grammar is pure ASCII,
    so byte and character offsets coincide) and ``expected`` the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message, offset, expected=frozenset()):
        super().__init__(message)
        self.offset = offset
        self.expected = frozenset(expected)
