"""Exact prime-sequence queries backed by a lazily grown segmented sieve.

The oracle answers nth-prime, prime-index, prime-counting and factorization
queries for values below a configurable ceiling (``MATULA_PRIME_BOUND``
environment variable, default 2^32).  The table of primes grows on demand and
extension stops hard at the ceiling: a query that would need a prime beyond
it raises rather than thrashes, because callers (tree encoders in particular)
must be able to tell infeasible inputs apart from slow ones.  Segments are
sieved by the pure-Python kernel in ``_sieve_py``.

The two analytic prime bounds used throughout the extremal searches live here
as module functions: ``robin_lower`` (valid for every index m >= 2) and
``rosser_schoenfeld_upper`` (valid for m >= 20).
"""

import os
import threading
from bisect import bisect_left, bisect_right
from math import isqrt, log

from . import _sieve_py
from .errors import (
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    NotPrime,
    ValueOutOfRange,
)

ENV_PRIME_BOUND = "MATULA_PRIME_BOUND"
DEFAULT_PRIME_BOUND = 2**32

# Ceiling above which array('Q') storage and p*p arithmetic are not validated.
_HARD_VALUE_CAP = 2**52

# Bootstrap sieve size; covers sqrt of the default ceiling so segment marking
# never needs base primes it does not already have.
_BOOTSTRAP = 1 << 16

# Values per lazy extension step (even, so segment bounds stay odd-aligned).
_SEGMENT_SPAN = 1 << 23

# Strong-pseudoprime witnesses proven sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981


def robin_lower(m):
    """Robin's lower bound on the m-th prime: m (ln m + ln ln m - 1.0072629).

    Rigorous for every integer m >= 2 (at m = 2 the value is negative but
    still a valid lower bound).
    """
    if m < 2:
        raise DomainError(f"robin_lower needs m >= 2, got {m}")
    return m * (log(m) + log(log(m)) - 1.0072629)


def rosser_schoenfeld_upper(m):
    """Rosser-Schoenfeld upper bound on the m-th prime, valid for m >= 20."""
    if m < 20:
        raise DomainError(f"rosser_schoenfeld_upper needs m >= 20, got {m}")
    return m * (log(m) + log(log(m)) - 0.5)


def is_prime_certified(n: int) -> bool:
    """Deterministic primality check (strong pseudoprime test, fixed witnesses).

    Valid for n below 3.3 * 10^24; beyond that raises FactorOutOfRange since
    this package never reports uncertified primality.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_CERTIFIED_BOUND:
        raise FactorOutOfRange(
            f"cannot certify primality of {n} (beyond deterministic witness range)",
            value=n,
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeOracle:
    """Sieve-backed prime table with a hard value ceiling.

    Read queries are safe for concurrent use once the covering segment
    exists; table extension is serialized internally, so one oracle can be
    shared across parallel workers.
    """

    def __init__(self, limit_value=None):
        if limit_value is None:
            limit_value = int(os.environ.get(ENV_PRIME_BOUND, DEFAULT_PRIME_BOUND))
        if not 2 <= limit_value <= _HARD_VALUE_CAP:
            raise ValueError(
                f"limit_value must be in [2, {_HARD_VALUE_CAP}], got {limit_value}"
            )
        self._limit_value = int(limit_value)
        self._lock = threading.RLock()
        bootstrap = min(_BOOTSTRAP, self._limit_value)
        self._primes = _sieve_py.simple_sieve(bootstrap)
        self._sieved_to = bootstrap + 1  # every value below this is settled

    def __repr__(self):
        return (
            f"PrimeOracle(limit_value={self._limit_value}, "
            f"sieved_to={self._sieved_to}, cached={len(self._primes)})"
        )

    @property
    def limit_value(self) -> int:
        return self._limit_value

    @property
    def limit_index(self) -> int:
        """An index certified answerable: every m <= limit_index succeeds.

        Exact when the ceiling is already fully sieved; otherwise derived
        from the Rosser-Schoenfeld bound, so somewhat conservative (queries
        a little above it may still succeed).
        """
        with self._lock:
            if self._sieved_to > self._limit_value:
                return len(self._primes)
        lo, hi = 20, self._limit_value
        if rosser_schoenfeld_upper(lo) > self._limit_value:
            # Tiny ceiling: the bootstrap sieve covered it exactly.
            return bisect_right(self._primes, self._limit_value)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if rosser_schoenfeld_upper(mid) <= self._limit_value:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- table growth ------------------------------------------------------

    def _extend_to_value(self, target):
        """Sieve every value < target (clamped to the ceiling).

        Segment lower bounds must stay odd (the kernel represents odd
        candidates only), so non-terminal extension boundaries are rounded
        up to odd; the one allowed even boundary is the ceiling itself,
        after which no further extension can happen.
        """
        target = min(target, self._limit_value + 1)
        if target <= self._sieved_to:
            return
        if target % 2 == 0 and target <= self._limit_value:
            target += 1
        need_base = isqrt(target - 1)
        if need_base >= self._sieved_to:
            self._extend_to_value(need_base + 1)
        while self._sieved_to < target:
            lo = self._sieved_to
            hi = min(lo + _SEGMENT_SPAN, target)
            base_count = bisect_right(self._primes, isqrt(hi - 1))
            segment = _sieve_py.sieve_segment(lo, hi, self._primes[:base_count])
            self._primes.extend(segment)
            self._sieved_to = hi

    def _grow_to_index(self, m):
        """Extend until at least m primes are cached or the ceiling is hit."""
        while len(self._primes) < m and self._sieved_to <= self._limit_value:
            if m >= 20:
                estimate = int(rosser_schoenfeld_upper(m)) + 2
            else:
                estimate = 100
            target = max(estimate, self._sieved_to + _SEGMENT_SPAN)
            self._extend_to_value(target)

    # -- queries -----------------------------------------------------------

    def nth_prime(self, m: int) -> int:
        """The m-th prime (p_1 = 2); IndexOutOfRange beyond the ceiling."""
        if m < 1:
            raise DomainError(f"prime indices start at 1, got {m}")
        with self._lock:
            if m <= len(self._primes):
                return self._primes[m - 1]
            # Fast refusal when the lower bound already clears the ceiling.
            if m >= 2 and robin_lower(m) * (1 - 1e-12) > self._limit_value:
                raise IndexOutOfRange(
                    f"prime index {m} is not answerable under ceiling "
                    f"{self._limit_value}; raise the bound or abandon",
                    index=m,
                    limit_value=self._limit_value,
                )
            self._grow_to_index(m)
            if m > len(self._primes):
                raise IndexOutOfRange(
                    f"prime index {m} is not answerable under ceiling "
                    f"{self._limit_value}; raise the bound or abandon",
                    index=m,
                    limit_value=self._limit_value,
                )
            return self._primes[m - 1]

    def prime_index(self, p: int) -> int:
        """The m with nth_prime(m) == p; total inverse on primes in range."""
        if p > self._limit_value:
            raise ValueOutOfRange(
                f"{p} exceeds the oracle ceiling {self._limit_value}",
                value=p,
                limit_value=self._limit_value,
            )
        if p < 2:
            raise NotPrime(f"{p} is below the first prime", value=p)
        with self._lock:
            self._extend_to_value(p + 1)
            i = bisect_left(self._primes, p)
            if i < len(self._primes) and self._primes[i] == p:
                return i + 1
        raise NotPrime(f"{p} is composite", value=p)

    def prime_count(self, x: int) -> int:
        """pi(x): the number of primes <= x."""
        if x > self._limit_value:
            raise ValueOutOfRange(
                f"{x} exceeds the oracle ceiling {self._limit_value}",
                value=x,
                limit_value=self._limit_value,
            )
        if x < 2:
            return 0
        with self._lock:
            self._extend_to_value(x + 1)
            return bisect_right(self._primes, x)

    def is_prime(self, n: int) -> bool:
        """Primality by table lookup when covered, certified test otherwise."""
        if n < 2:
            return False
        with self._lock:
            if n < self._sieved_to:
                i = bisect_left(self._primes, n)
                return i < len(self._primes) and self._primes[i] == n
        return is_prime_certified(n)

    def primes_up_to_index(self, m: int):
        """A copy of the first m primes (array('Q')); grows the table."""
        self.nth_prime(m)
        with self._lock:
            return self._primes[:m]

    def factorize(self, n: int):
        """Prime decomposition of n as [(prime, exponent), ...], ascending.

        Trial division by sieved primes up to sqrt(n) (the table is extended
        lazily, and only while the remaining cofactor fails a certified
        primality test), then a certified primality check on whatever
        cofactor remains.  FactorOutOfRange when the cofactor can neither be
        split in range nor certified prime.
        """
        if n < 1:
            raise DomainError(f"factorize needs n >= 1, got {n}")
        out = []
        rem = n
        proven_prime = False  # cofactor primality established by trial division
        with self._lock:
            i = 0
            while rem > 1:
                if i >= len(self._primes):
                    if self._sieved_to > isqrt(rem):
                        proven_prime = True
                        break
                    if self._sieved_to > self._limit_value or is_prime_certified(rem):
                        break
                    self._extend_to_value(
                        min(isqrt(rem) + 2, self._sieved_to + _SEGMENT_SPAN)
                    )
                    continue
                p = self._primes[i]
                if p * p > rem:
                    proven_prime = True
                    break
                if rem % p == 0:
                    e = 0
                    while rem % p == 0:
                        rem //= p
                        e += 1
                    out.append((p, e))
                i += 1
        if rem > 1:
            if not proven_prime and not is_prime_certified(rem):
                raise FactorOutOfRange(
                    f"cofactor {rem} of {n} has no prime factor below the "
                    f"ceiling {self._limit_value} and is not certifiably prime",
                    value=n,
                    cofactor=rem,
                )
            out.append((rem, 1))
        return out


_default_oracle = None
_default_lock = threading.Lock()


def default_oracle() -> PrimeOracle:
    """The process-wide shared oracle (created on first use)."""
    global _default_oracle
    if _default_oracle is None:
        with _default_lock:
            if _default_oracle is None:
                _default_oracle = PrimeOracle()
    return _default_oracle


def set_default_oracle(oracle):
    """Replace the shared oracle (None resets to lazy re-creation)."""
    global _default_oracle
    with _default_lock:
        _default_oracle = oracle
