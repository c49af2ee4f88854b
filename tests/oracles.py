"""Independent reference implementations used only to check the package.

Everything here is deliberately written against different algorithms than
the package code paths it verifies: a monolithic byte-per-integer sieve
(the package uses odd-only segmented kernels), the Lucy_Hedgehog prime
count (the package counts by Meissel's formula), all-pairs BFS for structural
parameters (the package decomposes over edges), the classic two-case
recursion for binary tree counts (the package loops over pairs), and for
the extremal trees an exhaustive scan that encodes every enumerated tree
and a dynamic program that finds the best forest of every size by its own
knapsack scan (the package reads every forest off the best trees).  Bounds
on ln q_k, the caterpillar numbers, come from Dusart's 2010 formulas written
out here and applied to the recursion q_{k+1} = 2 p_{q_k} (the package
bounds trees node by node from its own table of bounds).
"""

from collections import deque, namedtuple
from functools import lru_cache
from math import isqrt, log

from matula import TreeClass, encode, enumerate_trees
from matula.extremal import _balanced_split
from matula.trees import compare_matula, join, leaf

# OEIS A000669: series-reduced planted trees by number of leaves.
A000669 = [1, 1, 2, 5, 12, 33, 90, 261, 766, 2312, 7068, 21965]

# OEIS A000081: rooted trees by number of vertices.
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


# q_1 .. q_9, the caterpillar numbers q_k = 2 p_{q_{k-1}} below 2^32; the
# acceptance suite re-derives them with a monolithic sieve.
CATERPILLAR_NUMBERS = [1, 4, 14, 86, 886, 13766, 298154, 8455786, 300427382]


class MonolithicSieve:
    """Flat is-prime table over [0, limit]; nth() scans by popcount chunks."""

    def __init__(self, limit):
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.flags = flags

    def nth(self, m):
        remaining = m
        pos = 0
        chunk = 1 << 20
        while True:
            in_chunk = self.flags.count(1, pos, pos + chunk)
            if in_chunk >= remaining:
                break
            if pos >= len(self.flags):
                raise IndexError(f"sieve too small for index {m}")
            remaining -= in_chunk
            pos += chunk
        for i in range(pos, min(pos + chunk, len(self.flags))):
            if self.flags[i]:
                remaining -= 1
                if remaining == 0:
                    return i
        raise IndexError(f"sieve too small for index {m}")

    def count(self, x):
        return self.flags.count(1, 0, x + 1)


def lucy_count(x):
    """pi(x) by the Lucy_Hedgehog method: O(x^(3/4)) time, O(sqrt x) memory.

    ``small[v]`` and ``large[i]`` hold S(v) and S(x // i) for v, i <= sqrt x,
    where S(v) counts the integers in [2, v] that survive sieving by the
    primes below p.  Sieving by p lowers S(v) by S(v // p) - S(p - 1) for
    every v >= p^2; values are updated in decreasing order of v, so every
    S(v // p) read is still from the previous round.  Each round is a few
    list comprehensions, which keeps the per-value work in C.
    """
    r = isqrt(x)
    small = list(range(-1, r))
    small[0] = 0
    large = [0] + [x // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        below = small[p - 1]
        if small[p] == below:
            continue  # p is composite
        p2 = p * p
        top = min(r, x // p2)
        # For i <= r // p, x // (i p) is a large entry; beyond it, a small one.
        mid = min(top, r // p)
        large[1 : mid + 1] = [
            a - b + below for a, b in zip(large[1 : mid + 1], large[p : mid * p + 1 : p])
        ]
        xp = x // p
        large[mid + 1 : top + 1] = [
            a - small[xp // i] + below
            for i, a in zip(range(mid + 1, top + 1), large[mid + 1 : top + 1])
        ]
        if p2 <= r:
            small[p2 : r + 1] = [
                a - small[v // p] + below for v, a in zip(range(p2, r + 1), small[p2 : r + 1])
            ]
    return large[1]


def naive_nth_prime(m):
    """m-th prime by per-candidate trial division; fine for tiny m."""
    found = 0
    candidate = 1
    while found < m:
        candidate += 1
        if all(candidate % d for d in range(2, isqrt(candidate) + 1)):
            found += 1
    return candidate


def bfs_params(tree):
    """Structural parameters from an explicit adjacency list and BFS.

    Returns a dict with vertices, leaves, height, max_outdegree,
    outdegree_multiset and wiener, all computed without touching the
    package's parameter code.
    """
    adjacency = []
    outdegrees = []

    def build(node):
        uid = len(adjacency)
        adjacency.append([])
        outdegrees.append(len(node.children))
        for child in node.children:
            cid = build(child)
            adjacency[uid].append(cid)
            adjacency[cid].append(uid)
        return uid

    build(tree)
    n = len(adjacency)

    def distances(source):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    wiener = sum(sum(distances(s)) for s in range(n)) // 2
    return {
        "vertices": n,
        "leaves": sum(1 for d in outdegrees if d == 0),
        "height": max(distances(0)),
        "max_outdegree": max(outdegrees),
        "outdegree_multiset": tuple(sorted(outdegrees)),
        "wiener": wiener,
    }


@lru_cache(maxsize=None)
def wedderburn_etherington(n):
    """Binary trees with n leaves, via the classic halving recursion."""
    if n == 1:
        return 1
    total = sum(
        wedderburn_etherington(i) * wedderburn_etherington(n - i)
        for i in range(1, (n - 1) // 2 + 1)
    )
    if n % 2 == 0:
        half = wedderburn_etherington(n // 2)
        total += half * (half + 1) // 2
    return total


Scan = namedtuple("Scan", "optimum witness examined")


def exhaustive_extremum(tree_class, size, maximum):
    """The largest (``maximum``) or smallest Matula number over an
    enumeration stream, with its tree, by encoding every tree."""
    optimum = witness = None
    examined = 0
    for t in enumerate_trees(tree_class, size):
        m = encode(t)
        examined += 1
        if optimum is None or (m > optimum if maximum else m < optimum):
            optimum, witness = m, t
    return Scan(optimum, witness, examined)


def knapsack_extremal(tree_class, n, maximum):
    """The extremal tree of ``extremal_tree``, by a second dynamic program.

    Besides best[s], the extremal tree of size s, it keeps forest[t], the
    best multiset of trees of total size t, compared as join(*forest[t]):
    an unbounded knapsack over best[], found the same way.  Level s is the
    best of join(best[k], *forest[s - k]) over 1 <= k < s for topological
    trees, join(*forest[s - 1]) for rooted trees, and join(best[a],
    best[s - a]) for binary trees.
    """
    wanted = 1 if maximum else -1

    def best_of(candidates):
        incumbent = None
        for branches in candidates:
            rival = join(*branches)
            if incumbent is None or compare_matula(rival, incumbent) == wanted:
                incumbent = rival
        return incumbent

    best = [None, leaf()]
    forest = [()]
    for s in range(2, n + 1):
        if tree_class is TreeClass.BINARY:
            first = (1, s - 1) if maximum else _balanced_split(s)
            splits = [first] + [(a, s - a) for a in range(1, s // 2 + 1) if a != first[0]]
            best.append(best_of((best[a], best[b]) for a, b in splits))
            continue
        t = s - 1
        parts = range(t, 0, -1) if maximum else range(1, t + 1)
        forest.append(best_of((best[k], *forest[t - k]) for k in parts).children)
        if tree_class is TreeClass.ROOTED:
            best.append(join(*forest[t]))
        else:
            best.append(best_of((best[k], *forest[s - k]) for k in range(1, s)))
    return best[n]


def _ln_dusart_2010(ln_n, c):
    """ln of n (ln n + ln ln n - 1 + (ln ln n - c) / ln n), which grows with n.

    Dusart 2010 ("Estimates of some functions over primes without R.H.",
    arXiv:1002.0442): p_n is at least this for c = 2.1 and n >= 3, and at
    most this for c = 2 and n >= 688383.
    """
    ln_ln_n = log(ln_n)
    return ln_n + log(ln_n + ln_ln_n - 1 + (ln_ln_n - c) / ln_n)


def caterpillar_ln_intervals(k_max, margin=1e-9):
    """[None, (lo, hi) on ln q_1, ..., (lo, hi) on ln q_k_max].

    Exact up to q_9, then q_{k+1} = 2 p_{q_k} with q_k >= q_9 > 688383, so
    both of Dusart's bounds apply.  Each interval is widened by the relative
    ``margin`` against rounding in log() before the next is computed.
    """
    exact = [(log(q), log(q)) for q in CATERPILLAR_NUMBERS[:k_max]]
    intervals = [None, *((lo * (1 - margin), hi * (1 + margin)) for lo, hi in exact)]
    while len(intervals) <= k_max:
        lo, hi = intervals[-1]
        lo, hi = log(2) + _ln_dusart_2010(lo, 2.1), log(2) + _ln_dusart_2010(hi, 2.0)
        intervals.append((lo * (1 - margin), hi * (1 + margin)))
    return intervals
