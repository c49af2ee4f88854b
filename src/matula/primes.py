"""Exact prime-sequence queries: a sieved prefix, sublinear routes past it.

The oracle answers nth-prime, prime-index, prime-counting and factorization
queries for values below a ceiling, set per oracle (default 2^32, at least
p_20 = 71, at most 2^48).  A query that would need a prime beyond the
ceiling raises rather than thrashes, because callers (tree encoders in
particular) must be able to tell infeasible inputs apart from slow ones.

Values up to 2^24 are answered from a table of primes that grows on demand,
sieved in segments by the pure-Python kernel in ``_sieve_py``.  The table is
a cache of that prefix and never grows past it (about 1.08 M primes, 8.6 MB).
The ceiling is at most the square of the prefix's end, so the table holds
every prime up to the square root of the ceiling: every window past the
prefix is sieved by the table's primes.  Past the prefix no table is kept:

* pi(x) is counted by Meissel's formula, which reads pi only up to x^(2/3)
  and so, under every ceiling up to 2^36, only from the prefix; the prefix
  is sieved that far on demand;
* the m-th prime is found by counting pi(x0) at the tightest proven lower
  bound x0 on p_m, then sieving bounded windows upwards from x0 until the count
  reaches m; p_m > x0, so m is refused when x0 or the walk reaches the
  ceiling first;
* factorization screens the primes up to 2^16 in runs of 32, one gcd with
  each run's product, and trial-divides only by a run that shares a factor;
  it then certifies the cofactor by Miller-Rabin or splits it by
  Pollard-Brent rho alone.

So the ceiling bounds run time, not memory.  Answers past the prefix are
kept in one small bounded memo per oracle, for the checks of Lemma 1: their
left sides share the caterpillar C_8, whose prime lies past the prefix.

Every proven bound on p_m that the package trusts is a row of ``_BOUNDS``.
"""

import threading
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache, lru_cache
from itertools import accumulate, groupby, islice
from math import exp, gcd, isqrt, log, prod

from . import _sieve_py
from .errors import (
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    MatulaError,
    NotPrime,
    ValueOutOfRange,
)

DEFAULT_PRIME_BOUND = 2**32

# Bootstrap sieve size; covers sqrt of every value the prefix holds, so
# segment marking never needs base primes it does not already have.  Its
# primes are also factorize's trial divisors, screened _RUN at a time: one
# gcd with the product of a run (about 512 bits near 2^16) rules out all of
# its primes at once, where the per-prime loop runs in Python.
_BOOTSTRAP = 1 << 16
_RUN = 32

# The sieved table caches the primes up to this value and never grows past
# it: at most 1,077,871 primes (8.6 MB), sieved whole in about 0.2 s on a
# 2-CPU host.  That covers every prime a tree codec needs while its prime
# indices stay below 10^6 (p_1000000 = 15485863).
# The ceiling is at most its square, 2^48, so the table always holds every
# prime up to the square root of the ceiling: the base primes of every window
# past the prefix and pi(sqrt x) for every count.
_PREFIX_CAP = 1 << 24

# Values per lazy extension step.
_SEGMENT_SPAN = 1 << 23

# Values per window when walking up from the lower bound to an nth prime
# past the prefix, or to the ceiling to refuse one.  The bound falls short of
# p_m by about 2 * 10^4 values at p_m = 10^8, 1.3 * 10^5 (one window) at 10^9,
# 5 * 10^5 (four windows) at 2^32 and 6.7 * 10^6 (51 windows) at 2^36.  Bulk
# walks past the prefix use _SEGMENT_SPAN, which costs less per value.
_WINDOW_SPAN = 1 << 17

# Entries of the per-oracle memo of answers past the prefix.
_FAR_MEMO_SIZE = 4096

# Strong-pseudoprime witnesses proven sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981

# Past the certified bound a failed witness still proves n composite, so rho
# may split it.  The witnesses run only below this square, where they cost
# about as little as below the bound: on a 5000-digit n one round takes 10 s.
_MR_TESTED_BOUND = _MR_CERTIFIED_BOUND**2

# Pollard-Brent rho: steps per cofactor over all seeds before refusing, and
# steps per gcd.  A composite cofactor below _MR_CERTIFIED_BOUND has a prime
# factor p below the square root of that bound, and rho finds p after about
# sqrt(p) steps, at most about 1.35 * 10^6; the budget allows eight times that.
_RHO_BUDGET = 8 * isqrt(isqrt(_MR_CERTIFIED_BOUND))
_RHO_BATCH = 128

# phi(y, 6) = (y // _WHEEL) * _WHEEL_TOTIENT + W[y % _WHEEL]: 30030 is the
# product of the first six primes and 5760 its totient.
_WHEEL, _WHEEL_TOTIENT = 30030, 5760

# Relative margin by which a bound computed in floats is widened before it
# decides a query or an order, against rounding in log() and the arithmetic.
_WIDEN = 1e-12


# Proven bounds on p_m, (name, side, c, second order?, least m): for every
# m >= least m, p_m lies on ``side`` of the bound, which grows with m.
_Bound = namedtuple("_Bound", "name side c second least")
_BOUNDS = (
    # Robin 1983 (Acta Arith. 42): p_k >= k (ln k + ln ln k - 1.0072629)
    # for k >= 2.
    _Bound("lower", "lower", 1.0072629, False, 2),
    # Rosser and Schoenfeld 1962 (Illinois J. Math. 6):
    # p_n < n (ln n + ln ln n - 1/2) for n >= 20.
    _Bound("upper", "upper", 0.5, False, 20),
    # Dusart 1999 (Math. Comp. 68): p_k <= k (ln k + ln ln k - 0.9484) for
    # k >= 39017.
    _Bound("dusart", "upper", 0.9484, False, 39017),
    # Dusart 2010 ("Estimates of some functions over primes without R.H.",
    # arXiv:1002.0442): for n >= 3,
    # p_n >= n (ln n + ln ln n - 1 + (ln ln n - 2.1) / ln n),
    _Bound("dusart-lower", "lower", 2.1, True, 3),
    # and for n >= 688383, p_n <= n (ln n + ln ln n - 1 + (ln ln n - 2) / ln n).
    _Bound("dusart-upper", "upper", 2.0, True, 688383),
)

# The least ceiling, p_20: 20 is the least m of any upper row of _BOUNDS.  The
# first sieve reaches min(_BOOTSTRAP, ceiling) >= 71, so the table always
# holds p_1 .. p_20 and every bound on p_m read past it is finite.
_LEAST_CEILING = 71


def _factors(row, ln_ms, ln_ln_ms):
    """For each ln m and ln ln m, the f with m f the bound of ``row`` on p_m."""
    _, _, c, second, _ = row
    return [x + y - 1 + (y - c) / x if second else x + y - c for x, y in zip(ln_ms, ln_ln_ms)]


@lru_cache(maxsize=1 << 12)
def _ln_prime_bounds(lo, hi):
    """The tightest bounds (lower, upper) on ln p_m for every m with lo <= ln m
    <= hi, where m >= 20.  Unwidened against float rounding."""
    rows = [row for row in _BOUNDS if lo >= log(row.least)]
    upper = [hi + log(_factors(row, [hi], [log(hi)])[0]) for row in rows if row.side == "upper"]
    lower = [lo + log(_factors(row, [lo], [log(lo)])[0]) for row in rows if row.side == "lower"]
    return max(lower), min(upper)


def is_prime_certified(n: int) -> bool:
    """Deterministic primality check (strong pseudoprime test, fixed witnesses).

    Certified for n up to 3.3 * 10^24, the least composite that passes every
    witness.  Below the square of that bound a failed witness still proves
    n composite (False).  Any other n raises FactorOutOfRange, since this
    package never reports uncertified primality.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_TESTED_BOUND:
        raise _uncertifiable(n)
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
            return False  # a witness proves n composite at any size
    if n > _MR_CERTIFIED_BOUND:
        raise _uncertifiable(n)
    return n < _MR_CERTIFIED_BOUND  # the bound is itself composite


def _uncertifiable(n):
    return FactorOutOfRange(
        f"cannot certify primality of {n} (beyond deterministic witness range)",
        value=n,
    )


def _icbrt(n):
    """The integer cube root of n >= 0."""
    r = round(n ** (1 / 3))
    while r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


@cache
def _wheel_counts():
    """W[r] = how many of 1..r are coprime to _WHEEL, for 0 <= r < _WHEEL;
    built on first use."""
    flags = bytearray(b"\x01") * _WHEEL
    for p in (2, 3, 5, 7, 11, 13):
        flags[::p] = bytes(len(range(0, _WHEEL, p)))
    return tuple(accumulate(flags))


def _phi(x, a, table, end):
    """phi(x, a): how many of 1..x have no prime factor among p_1..p_a, for
    a >= 6, where ``table`` holds the primes below ``end`` (at least up to
    x^(2/3)).

    Legendre's recurrence, unrolled down to k = 6:

        phi(y, k) = phi(y, 6) - sum_{6 < i <= k} phi(y // p_i, i - 1),

    with phi(y, 6) read from the 30030 wheel.  Each term is settled by a
    cut-off or expanded on an explicit stack:

    * p_i^2 > y: y // p_i < p_i, so only 1 survives and the term is 1;
    * y < p_i^3 and y // p_i < end: the term counts 1 and the primes in
      (p_{i-1}, y // p_i], that is pi(y // p_i) - i + 2, read from the table;
    * otherwise the node (y // p_i, i - 1) is expanded in turn, and for
      i = 7 and 8 read from the wheel at once.

    y // p_i >= end with p_i > y^(1/3) needs y > end^(3/2), so only such
    nodes test it.
    """
    wheel = _wheel_counts()

    def phi6(v):
        q, r = divmod(v, _WHEEL)
        return q * _WHEEL_TOTIENT + wheel[r]

    cubes = [p * p * p for p in islice(table, a)]  # p_i^3 <= y <= x only for i <= a
    deep = isqrt(end**3)  # y // end <= y^(1/3) while y <= end^(3/2)
    total = 0
    stack = [(x, a, 1)]
    while stack:
        y, k, sign = stack.pop()
        t = phi6(y)
        # Terms i <= i3 are expanded, i3 < i <= i2 read pi, i > i2 are 1.
        i2 = bisect_right(table, isqrt(y), 0, k)
        i3 = bisect_right(cubes, y, 0, min(i2, a))
        if y > deep:
            i3 = max(i3, bisect_right(table, y // end, 0, i2))
        if i3 > 6:
            t -= phi6(y // 17)  # i = 7: phi(y // 17, 6)
            if i3 > 7:  # i = 8: phi(y // 19, 7) = phi(y // 19, 6) - phi(y // 323, 6)
                t += phi6(y // 323) - phi6(y // 19)
                stack += [(y // p, i, -sign) for i, p in zip(range(8, i3), islice(table, 8, i3))]
        else:
            i3 = 6
        if i2 > i3:
            t -= sum([bisect_right(table, y // p) for p in islice(table, i3, i2)])
            t += ((i2 - 3) * i2 - (i3 - 3) * i3) // 2  # sum of i - 2 over i3 < i <= i2
        else:
            i2 = i3
        total += sign * (t - (k - i2))
    return total


def _pollard_brent(n):
    """A proper factor of the composite n, or None once _RHO_BUDGET steps
    are spent.

    Brent's variant of Pollard's rho (Brent 1980, BIT 20): the maps
    x -> x^2 + c for c = 1, 2, ..., each started from 2, with one gcd per
    batch of _RHO_BATCH steps.  The seeds are fixed, so every run gives the
    same factor.
    """
    steps = 0
    c = 0
    while steps < _RHO_BUDGET:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps >= _RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:  # the last batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


class PrimeOracle:
    """Prime queries under a hard value ceiling, over a sieved prefix cache.

    Read queries are safe for concurrent use once the covering segment
    exists; table extension and the memo past the prefix are serialized
    internally, so one oracle can be shared across parallel workers.
    """

    def __init__(self, limit_value=None):
        if limit_value is None:
            limit_value = DEFAULT_PRIME_BOUND
        cap = _PREFIX_CAP**2  # so every base prime lies in the table
        if not _LEAST_CEILING <= limit_value <= cap:
            raise ValueError(f"limit_value must be in [{_LEAST_CEILING}, {cap}], got {limit_value}")
        self._limit_value = int(limit_value)
        self._lock = threading.RLock()
        bootstrap = min(_BOOTSTRAP, self._limit_value)
        self._primes = _sieve_py.simple_sieve(bootstrap)
        self._runs = None  # factorize's trial runs, built on its first call
        self._sieved_to = bootstrap + 1  # every value below this is settled
        # The table never covers values at or past this.
        self._prefix_end = min(self._limit_value, _PREFIX_CAP) + 1
        self._far = {}  # ("nth", m) -> p_m and ("pi", x) -> pi(x) past the prefix
        self._decode_memo = {}  # Matula number -> tree, kept by codec.decode

    def __repr__(self):
        return (
            f"PrimeOracle(limit_value={self._limit_value}, "
            f"sieved_to={self._sieved_to}, cached={len(self._primes)})"
        )

    @property
    def limit_value(self) -> int:
        return self._limit_value

    # -- the sieved prefix -------------------------------------------------

    def _extend_to_value(self, target):
        """Sieve every value < target into the table (clamped to the prefix)."""
        target = min(target, self._prefix_end)
        while self._sieved_to < target:
            lo = self._sieved_to
            hi = min(lo + _SEGMENT_SPAN, target)
            self._primes.extend(_sieve_py.sieve_segment(lo, hi, self._primes))
            self._sieved_to = hi

    # -- past the prefix ---------------------------------------------------

    def _window(self, lo, hi):
        """The primes in [lo, hi) for 2 < lo < hi <= ceiling + 1, sieved
        without caching them."""
        self._extend_to_value(isqrt(hi - 1) + 1)
        return _sieve_py.sieve_segment(lo, hi, self._primes)

    def _windows(self, lo, end, span):
        """(hi, the primes in [lo, hi)) for consecutive windows of ``span``
        values from lo > 2 up to end, each sieved under the lock, none kept."""
        while lo < end:
            hi = min(lo + span, end)
            with self._lock:
                found = self._window(lo, hi)
            yield hi, found
            lo = hi

    def _count_past_prefix(self, x):
        """pi(x) for x past the prefix, by Meissel's formula as Lehmer (1959,
        Illinois J. Math. 3) made it practical:

            pi(x) = phi(x, a) + a - 1 - sum_{a < i <= b} (pi(x // p_i) - i + 1)

        with a = pi(x^(1/3)) and b = pi(sqrt x), both read from the table.
        Every pi read comes from the table while x^(2/3) lies in the prefix,
        that is up to 2^36; past that, the terms x // p_i past the prefix are
        counted by one ascending walk of sieved windows (``_pi_walk``) and
        phi expands every node whose count would lie past the table.
        """
        self._extend_to_value(_icbrt(x * x) + 1)
        table = self._primes
        a = bisect_right(table, _icbrt(x))
        b = bisect_right(table, isqrt(x))
        # x // p lies past the table exactly when p <= x // end.
        end = self._sieved_to
        j = max(a, bisect_right(table, x // end))
        near = sum([bisect_right(table, x // p) for p in islice(table, j, b)])
        far = sum(self._pi_walk(x // p for p in reversed(table[a:j])))
        return _phi(x, a, table, end) + a - 1 - near - far + (b * (b - 1) - a * (a - 1)) // 2

    def _pi_walk(self, values):
        """pi(v) for each v of an ascending iterable of values past the table,
        by one ascending walk of sieved windows that keeps only the current
        one."""
        count = len(self._primes)  # the primes below the window in found
        hi, found = self._sieved_to, ()
        windows = self._windows(hi, self._limit_value + 1, _SEGMENT_SPAN)
        for v in values:
            while v >= hi:
                count += len(found)
                hi, found = next(windows)
            yield count + bisect_right(found, v)

    def _remember(self, key, value):
        if len(self._far) >= _FAR_MEMO_SIZE:
            del self._far[next(iter(self._far))]
        self._far[key] = value

    def _refusal(self, m):
        return IndexOutOfRange(
            f"prime index {m} is not answerable under ceiling "
            f"{self._limit_value}; raise the bound or abandon",
            index=m,
            limit_value=self._limit_value,
        )

    def _nth_past_prefix(self, m):
        """p_m for a prime past the prefix: pi at the tightest lower bound x0
        on p_m, counted by Meissel's formula (``_count_past_prefix``), then
        sieved windows upwards from x0 until the count is m.  p_m > x0, so
        m is refused when x0 or the walk reaches the ceiling first."""
        p = self._far.get(("nth", m))
        if p is not None:
            return p
        lower, _ = _ln_prime_bounds(log(m), log(m))
        x0 = max(int(exp(lower) * (1 - _WIDEN)), _PREFIX_CAP)
        if x0 >= self._limit_value:
            raise self._refusal(m)
        count = self.prime_count(x0)  # fewer than m, as p_m > x0
        if count >= m:  # only a wrong bound gets here: fail loudly, not with a wrong prime
            raise MatulaError(f"lower bound {x0} on p_{m} fails: pi({x0}) = {count} >= {m}")
        for _, found in self._windows(x0 + 1, self._limit_value + 1, _WINDOW_SPAN):
            if len(found) >= m - count:
                break
            count += len(found)
        else:
            raise self._refusal(m)
        p = found[m - count - 1]
        self._remember(("nth", m), p)
        self._remember(("pi", p), m)
        return p

    # -- queries -----------------------------------------------------------

    def _prefix_prime(self, m):
        """p_m (m >= 1) when it lies in the sieved prefix, else None; grows
        the table unless m itself or the tightest lower bound on p_m already
        lies past the prefix's end (p_m exceeds both)."""
        # The table only grows and each read of it is atomic: no lock needed.
        if m <= len(self._primes):
            return self._primes[m - 1]
        if m >= self._prefix_end:
            return None
        lower, upper = _ln_prime_bounds(log(m), log(m))
        if exp(lower) * (1 - _WIDEN) >= self._prefix_end:
            return None
        with self._lock:
            # The tightest upper bound sizes the sieve, and the table at least
            # doubles; should the bound fall short, further doublings follow.
            target = max(int(exp(upper)) + 2, 2 * self._sieved_to)
            while m > len(self._primes) and self._sieved_to < self._prefix_end:
                self._extend_to_value(target)
                target = 2 * self._sieved_to
            if m <= len(self._primes):
                return self._primes[m - 1]
        return None

    def nth_prime(self, m: int) -> int:
        """The m-th prime (p_1 = 2); IndexOutOfRange beyond the ceiling."""
        if m < 1:
            raise DomainError(f"prime indices start at 1, got {m}")
        p = self._prefix_prime(m)
        if p is not None:
            return p
        # p_m > m; this also keeps the lower bound finite for a huge m.
        if m > self._limit_value:
            raise self._refusal(m)
        with self._lock:
            return self._nth_past_prefix(m)

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
        if p < self._prefix_end:
            with self._lock:
                self._extend_to_value(p + 1)
                i = bisect_left(self._primes, p)
                if i < len(self._primes) and self._primes[i] == p:
                    return i + 1
        elif is_prime_certified(p):
            return self.prime_count(p)
        raise NotPrime(f"{p} is composite", value=p)

    def prime_count(self, x: int) -> int:
        """pi(x): the number of primes <= x, from the table inside the
        prefix and by Meissel's formula past it."""
        if x > self._limit_value:
            raise ValueOutOfRange(
                f"{x} exceeds the oracle ceiling {self._limit_value}",
                value=x,
                limit_value=self._limit_value,
            )
        if x < 2:
            return 0
        with self._lock:
            if x < self._prefix_end:
                self._extend_to_value(x + 1)
                return bisect_right(self._primes, x)
            count = self._far.get(("pi", x))
            if count is None:
                count = self._count_past_prefix(x)
                self._remember(("pi", x), count)
            return count

    def primes_up_to_index(self, m: int):
        """The first m primes in ascending order, as a generator.

        Grows the table as far as the prefix allows and yields from it;
        primes past the prefix are sieved window by window and never kept,
        so memory stays bounded however large m is.
        """
        last = self.nth_prime(m)
        if m > len(self._primes):
            with self._lock:
                self._extend_to_value(self._prefix_end)
        yield from islice(self._primes, m)
        for _, found in self._windows(self._sieved_to, last + 1, _SEGMENT_SPAN):
            yield from found

    def factorize(self, n: int):
        """Prime decomposition of n as [(prime, exponent), ...], ascending.

        Trial division by the primes p <= 2^16 while p^2 <= the remaining
        cofactor, screened in runs of _RUN primes: a run whose product is
        coprime to the cofactor is skipped whole, and proves the cofactor
        prime when its last prime's square is at least the cofactor; only a
        run that shares a factor is divided prime by prime.  Whatever
        cofactor is left is certified prime by Miller-Rabin or split by
        Pollard-Brent rho, every factor certified in turn.  Takes no lock:
        it reads only the runs, which never change.  FactorOutOfRange
        (``value`` is n) when

        * two or more prime factors, counted with multiplicity, lie above
          the ceiling (``cofactor`` is their product);
        * a cofactor past 3.3 * 10^24 passes every Miller-Rabin
          witness, so it is probably prime but cannot be certified, or is
          too large to test (1.1 * 10^49 or more); ``value`` is that
          cofactor.  One below 1.1 * 10^49 that fails a witness is composite
          and goes to rho like any other;
        * rho finds no factor of a composite cofactor within its budget
          (``cofactor`` is that cofactor).
        """
        if n < 1:
            raise DomainError(f"factorize needs n >= 1, got {n}")
        runs = self._runs
        if runs is None:  # a racing first call builds the same runs
            runs = self._runs = self._trial_runs()
        out = []
        rem = n
        proven_prime = False  # cofactor primality established by trial division
        for product, first_square, last_square, run in runs:
            if first_square > rem:
                proven_prime = True
                break
            if gcd(rem, product) == 1:
                if last_square >= rem:  # no prime factor up to sqrt(rem)
                    proven_prime = True
                    break
                continue
            for p in run:
                if p * p > rem:
                    proven_prime = True
                    break
                if rem % p == 0:
                    e = 0
                    while rem % p == 0:
                        rem //= p
                        e += 1
                    out.append((p, e))
            if proven_prime:
                break
        if rem > 1:
            if proven_prime:
                out.append((rem, 1))
            else:
                factors = self._split(n, rem)
                out.extend((p, len(list(run))) for p, run in groupby(factors))
        return out

    def _trial_runs(self):
        """The bootstrap primes in runs of _RUN, each as (product, first
        prime squared, last prime squared, its primes); the last run may be
        shorter."""
        table = self._primes  # grows only past the bootstrap primes
        divisors = table[: bisect_right(table, min(_BOOTSTRAP, self._limit_value))]
        runs = []
        for i in range(0, len(divisors), _RUN):
            run = tuple(divisors[i : i + _RUN])
            runs.append((prod(run), run[0] ** 2, run[-1] ** 2, run))
        return tuple(runs)

    def _split(self, n, rem):
        """The prime factors of rem, ascending with multiplicity, where rem
        has no prime factor among the trial divisors; FactorOutOfRange when
        two or more of them lie past the ceiling, or when rho cannot split a
        composite cofactor."""
        factors = []
        above = 1  # the product of the prime factors past the ceiling
        past = 0  # how many prime factors it holds
        stack = [rem]
        while stack:
            c = stack.pop()
            if is_prime_certified(c):
                if c <= self._limit_value:
                    factors.append(c)
                else:
                    above *= c
                    past += 1
                continue
            d = _pollard_brent(c)
            if d is None:
                raise FactorOutOfRange(
                    f"Pollard-Brent rho found no factor of the composite cofactor "
                    f"{c} of {n} within {_RHO_BUDGET} steps",
                    value=n,
                    cofactor=c,
                )
            stack += (d, c // d)
        if past > 1:
            raise FactorOutOfRange(
                f"cofactor {above} of {n} has {past} prime factors past the "
                f"ceiling {self._limit_value}",
                value=n,
                cofactor=above,
            )
        if past:
            factors.append(above)
        return sorted(factors)


_default_oracle = None
_default_lock = threading.Lock()


def default_oracle() -> PrimeOracle:
    """The process-wide shared oracle (created on first use), which every
    layer above this module reads."""
    global _default_oracle
    if _default_oracle is None:
        with _default_lock:
            if _default_oracle is None:
                _default_oracle = PrimeOracle()
    return _default_oracle


def set_default_oracle(oracle):
    """Replace the shared oracle (None resets to lazy re-creation).

    Its ceiling applies to every later call; the old oracle's decoded trees
    go with it.  Trees keep the Matula numbers and bounds they have memoized,
    so one built under the old oracle may report a number the new one refuses.
    """
    global _default_oracle
    with _default_lock:
        _default_oracle = oracle
