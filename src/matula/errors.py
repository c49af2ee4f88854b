"""Exception hierarchy shared by all matula modules, and the one way their
messages show an integer."""

# Integers of more digits are shown by their ends and their digit count.
_SHOWN_DIGITS = 60
_END_DIGITS = 10


def brief(n: int) -> str:
    """n in decimal while it has at most 60 digits, else its first and last
    ten digits and its digit count, as in ``1111111111...1111111111 (5000
    digits)``.  The whole of n is never converted, so a message stays short
    and within Python's limit on int-to-str conversion."""
    a = abs(n)
    digits = max(1, int((a.bit_length() - 1) * 0.30102999566398120))  # log10 2; at most the count
    power = 10**digits
    while power <= a:
        digits += 1
        power *= 10
    if digits <= _SHOWN_DIGITS:
        return str(n)
    head, tail = a // 10 ** (digits - _END_DIGITS), a % 10**_END_DIGITS
    return f"{'-' if n < 0 else ''}{head}...{tail:0{_END_DIGITS}d} ({digits} digits)"


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
