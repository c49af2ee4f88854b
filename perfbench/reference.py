"""Reference routes that check the program's answers without its code.

Nothing here imports ``matula``.  Each route is a different algorithm from
the one the package uses, or a published value:

* a flat byte sieve (whole range at once, no segments) and an nth-prime
  table built from it;
* a deterministic Miller-Rabin test with its own witness set;
* a tree-text parser and Matula encoder over nested tuples;
* a sibling-order check that uses exact numbers where the table reaches and
  rigorous logarithmic bounds on p_m (Dusart 1999) where it does not;
* the counting recursions for A000081, A000669 and Wedderburn-Etherington;
* published values of pi(x);
* ``sympy`` as one more route, only when it can be imported.
"""

import math
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import compress

# pi(10^8) and pi(2*10^8) (OEIS A006880 and standard tables), and the
# largest prime below 10^8.
PUBLISHED_PI = {10**8: 5_761_455, 2 * 10**8: 11_078_937}
PUBLISHED_NTH = {5_761_455: 99_999_989}

# The first twelve primes are strong-pseudoprime witnesses that decide every
# n < 3.18 * 10^23 (Sorenson and Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def byte_sieve(limit):
    """Flags for 0..limit (limit >= 1): flags[n] == 1 iff n is prime, in
    one flat bytearray."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


class PrimeTable:
    """Every prime <= limit, from one byte sieve."""

    def __init__(self, limit):
        self.limit = limit
        self.primes = array("Q", compress(range(limit + 1), byte_sieve(limit)))

    def __len__(self):
        return len(self.primes)

    def nth(self, m):
        """p_m (p_1 = 2), or None when the table does not reach it."""
        if 1 <= m <= len(self.primes):
            return self.primes[m - 1]
        return None

    def pi(self, x):
        if x > self.limit:
            raise ValueError(f"table covers <= {self.limit}, asked pi({x})")
        return bisect_right(self.primes, x)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is beyond the deterministic witness range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sympy_or_none():
    """The ``sympy`` module when importable (an optional extra route)."""
    try:
        import sympy
    except ImportError:
        return None
    return sympy


# -- tree text ---------------------------------------------------------------
#
# A tree is a tuple of child trees; the leaf is ().


def parse_tree(text):
    """Nested tuples from tree text, children in the order written.

    Iterative, so depth is bounded by memory only.  Raises ValueError on
    anything outside ``tree := "*" | "(" tree {"," tree} ")"``.
    """
    stack = [[]]
    expect_tree = True
    for pos, c in enumerate(text):
        if c in " \t":
            continue
        if expect_tree:
            if c == "*":
                stack[-1].append(())
                expect_tree = False
            elif c == "(":
                stack.append([])
            else:
                raise ValueError(f"unexpected {c!r} at {pos} in {text!r}")
        elif c == "," and len(stack) > 1:
            expect_tree = True
        elif c == ")" and len(stack) > 1:
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            raise ValueError(f"unexpected {c!r} at {pos} in {text!r}")
    if expect_tree or len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"incomplete tree text {text!r}")
    return stack[0][0]


def write_tree(t, order=None):
    """Tree text for nested tuples; ``order`` may permute each child list."""
    if not t:
        return "*"
    children = list(t) if order is None else order(list(t))
    return "(" + ",".join(write_tree(c, order) for c in children) + ")"


def size(t):
    """(vertices, leaves, outdegrees) of a nested-tuple tree."""
    vertices = leaves = 0
    outdegrees = set()
    stack = [t]
    while stack:
        node = stack.pop()
        vertices += 1
        outdegrees.add(len(node))
        if not node:
            leaves += 1
        stack.extend(node)
    return vertices, leaves, outdegrees


class Encoder:
    """Matula numbers of nested-tuple trees from a PrimeTable."""

    def __init__(self, table):
        self.table = table
        self._memo = {(): 1}

    def number(self, t):
        """M(t), or None when some prime index lies beyond the table."""
        m = self._memo.get(t)
        if m is not None or t in self._memo:
            return m
        product = 1
        for child in t:
            c = self.number(child)
            p = None if c is None else self.table.nth(c)
            if p is None:
                product = None
                break
            product *= p
        self._memo[t] = product
        return product

    def log_bounds(self, t):
        """(lo, hi) with lo <= ln M(t) <= hi, rigorous outside the table."""
        m = self.number(t)
        if m is not None:
            x = math.log(m)
            return x * (1 - 1e-12), x * (1 + 1e-12)
        lo = hi = 0.0
        for child in t:
            clo, chi = self.log_bounds(child)
            c = self.number(child)
            p = None if c is None else self.table.nth(c)
            if p is not None:
                lo += math.log(p) * (1 - 1e-12)
                hi += math.log(p) * (1 + 1e-12)
            else:
                plo, phi = _log_prime_bounds(clo, chi)
                lo += plo
                hi += phi
        return lo, hi

    def compare(self, a, b):
        """-1, 0 or +1 for M(a) against M(b); None when undecided."""
        if a == b:
            return 0
        ma, mb = self.number(a), self.number(b)
        if ma is not None and mb is not None:
            return (ma > mb) - (ma < mb)
        alo, ahi = self.log_bounds(a)
        blo, bhi = self.log_bounds(b)
        if ahi < blo:
            return -1
        if alo > bhi:
            return 1
        return None


def _log_prime_bounds(ulo, uhi):
    """Bounds on ln p_m given ulo <= ln m <= uhi, for m beyond any table.

    With L = ln m:  p_m > m (L + ln L - 1) for m >= 2 and
    p_m < m (L + ln L - 0.9484) for m >= 39017 (both Dusart 1999).  Only
    used for m past the table, which ends well above 39017.
    """
    lo = ulo + math.log(ulo + math.log(ulo) - 1.0)
    hi = uhi + math.log(uhi + math.log(uhi) - 0.9484)
    return lo * (1 - 1e-12), hi * (1 + 1e-12)


# -- counting recursions -----------------------------------------------------


@lru_cache(maxsize=None)
def count_rooted(n):
    """A000081: rooted trees with n vertices (Euler transform recursion)."""
    if n <= 1:
        return n
    total = 0
    for k in range(1, n):
        s = sum(d * count_rooted(d) for d in range(1, k + 1) if k % d == 0)
        total += s * count_rooted(n - k)
    return total // (n - 1)


@lru_cache(maxsize=None)
def count_binary(n):
    """Wedderburn-Etherington: unordered binary trees with n leaves."""
    if n == 1:
        return 1
    total = 0
    for a in range(1, (n - 1) // 2 + 1):
        total += count_binary(a) * count_binary(n - a)
    if n % 2 == 0:
        h = count_binary(n // 2)
        total += h * (h + 1) // 2
    return total


def count_topological(n):
    """A000669: series-reduced rooted trees with n leaves.

    Counted as multisets of at least two smaller such trees whose leaf
    counts sum to n, by a polynomial product over part sizes.
    """
    counts = [0, 1]
    for m in range(2, n + 1):
        # ways[s][k]: multisets of total size s with k members, parts < m.
        ways = [[0] * (m + 1) for _ in range(m + 1)]
        ways[0][0] = 1
        for part in range(1, m):
            c = counts[part]
            new = [row[:] for row in ways]
            for s in range(m + 1):
                for k in range(m + 1):
                    if not ways[s][k]:
                        continue
                    j = 1
                    while s + j * part <= m:
                        # C(c + j - 1, j) multisets of j trees of this size.
                        new[s + j * part][min(k + j, m)] += ways[s][k] * math.comb(
                            c + j - 1, j
                        )
                        j += 1
            ways = new
        counts.append(sum(ways[m][k] for k in range(2, m + 1)))
    return counts[n]


# -- extremal shapes -----------------------------------------------------------


def balanced_split(k):
    """Branch leaf counts (a, b) of the balanced minimal binary tree."""
    s = k.bit_length() - 2
    r = k - (1 << (s + 1))
    if r <= 1 << s:
        return 1 << s, r + (1 << s)
    return r, 1 << (s + 1)


def min_binary_shape(k):
    if k == 1:
        return ()
    a, b = balanced_split(k)
    return (min_binary_shape(a), min_binary_shape(b))


def gi_max_shape(n):
    """Root path on n - 3 vertices with three leaves at the far end."""
    t = ((), (), ())
    for _ in range(n - 4):
        t = (t,)
    return t
