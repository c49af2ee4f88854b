"""Extremal constructions, their number sequences, and verification searches.

Two families of extremal binary trees drive everything here:

* the binary caterpillar, whose Matula numbers q satisfy q_1 = 1 and
  q_k = 2 p_{q_{k-1}}; it is the unique maximum over topological trees
  with a given leaf count, and ``check_caterpillar_inequality`` verifies
  the product inequality p_{q_a} p_{q_b} <= q_{a+b} instance by instance;
* the balanced power-of-two construction ``min_binary_tree``, whose numbers
  l satisfy l_1 = 1 and, writing k = r + 2^{s+1} with 0 <= r < 2^{s+1},
  l_k = p_{l_{2^s}} p_{l_{r+2^s}} when r <= 2^s and p_{l_r} p_{l_{2^{s+1}}}
  otherwise; it is conjecturally the minimum over binary trees by leaves.

``exhaustive_max`` / ``exhaustive_min`` brute-force a whole enumeration
stream.  ``min_binary_bnb`` certifies binary minima without enumeration:
the minimum over trees splitting a leaves left and b right is exactly
p_{mu_a} p_{mu_b} for the level minima mu (the prime sequence is strictly
increasing), so a branch-and-bound over split sizes with memoized level
minima is complete.  Splits are pruned against the incumbent with rigorous
lower bounds only (the trivial p_m > m, then Robin's theorem), so a report
with ``exhaustive=True`` is an exact certificate; when a needed prime
exceeds the oracle ceiling the search degrades to ``exhaustive=False``
instead of failing, counting the unexplored splits as neither examined nor
pruned.
"""

from dataclasses import dataclass

from .codec import encode
from .enumerator import EnumSpec, enumerate_trees
from .errors import BadSize, DomainError, IndexOutOfRange
from .primes import default_oracle, robin_lower
from .trees import Tree, join, leaf

# Pruning compares float lower bounds against exact integers; shave a hair
# off the bound so float rounding can never prune a split it should not.
_FLOAT_SAFETY = 1 - 1e-9


def caterpillar_numbers(k_max: int, oracle=None):
    """[q_1 .. q_k_max]: Matula numbers of the binary caterpillars.

    Raises IndexOutOfRange (with attribute ``k`` set to the first infeasible
    index) once the recursion needs a prime beyond the oracle ceiling.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if oracle is None:
        oracle = default_oracle()
    values = [1]
    for k in range(2, k_max + 1):
        try:
            values.append(2 * oracle.nth_prime(values[-1]))
        except IndexOutOfRange as exc:
            exc.k = k
            raise
    return values


def min_binary_numbers(k_max: int, oracle=None):
    """[l_1 .. l_k_max]: Matula numbers of the balanced minimal binary trees."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if oracle is None:
        oracle = default_oracle()
    values = [None, 1]
    for k in range(2, k_max + 1):
        a, b = _balanced_split(k)
        try:
            values.append(oracle.nth_prime(values[a]) * oracle.nth_prime(values[b]))
        except IndexOutOfRange as exc:
            exc.k = k
            raise
    return values[1:]


def _balanced_split(k):
    """The branch leaf counts (a, b), a <= b, of the balanced construction."""
    s = k.bit_length() - 2  # 2^(s+1) <= k < 2^(s+2)
    r = k - (1 << (s + 1))
    if r <= 1 << s:
        return (1 << s), r + (1 << s)
    return r, 1 << (s + 1)


def min_binary_tree(k: int) -> Tree:
    """The balanced k-leaf binary tree (conjectured Matula minimum).

    Construction is prime-free; only encoding it can hit the oracle ceiling.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    # The splits reached from k, then their trees, smallest first.
    splits = {}
    stack = [k]
    while stack:
        j = stack.pop()
        if j > 1 and j not in splits:
            splits[j] = _balanced_split(j)
            stack.extend(splits[j])
    trees = {1: leaf()}
    for j in sorted(splits):
        trees[j] = join(*(trees[part] for part in splits[j]))
    return trees[k]


def gi_max_tree(n: int) -> Tree:
    """The Gutman-Ivic n-vertex tree: a root path on n - 3 vertices with
    three leaves attached to the far endvertex.  It attains the maximum
    Matula number among all rooted trees with n vertices (n >= 5)."""
    if n < 5:
        raise BadSize(f"the construction needs n >= 5 vertices, got {n}")
    t = join(leaf(), leaf(), leaf())
    for _ in range(n - 4):
        t = join(t)
    return t


@dataclass(frozen=True)
class InequalityRecord:
    """One verified instance of p_{q_k1} p_{q_k2} <= q_{k1+k2}."""

    k1: int
    k2: int
    lhs: int
    rhs: int
    holds: bool
    equality: bool


def check_caterpillar_inequality(k_max: int, oracle=None):
    """All instances of the product inequality with k1 + k2 <= k_max.

    Every needed p_{q_k} is q_{k+1} / 2 by the recursion, so no prime query
    beyond the sequence itself is issued.  k1 = 1 holds with equality.
    """
    if k_max < 2:
        raise DomainError(f"k_max must be >= 2, got {k_max}")
    q = caterpillar_numbers(k_max, oracle)
    p_of_q = {k: q[k] // 2 for k in range(1, k_max)}  # p_{q_k}, 1-based
    records = []
    for k1 in range(1, k_max):
        for k2 in range(k1, k_max - k1 + 1):
            lhs = p_of_q[k1] * p_of_q[k2]
            rhs = q[k1 + k2 - 1]
            records.append(
                InequalityRecord(
                    k1=k1,
                    k2=k2,
                    lhs=lhs,
                    rhs=rhs,
                    holds=lhs <= rhs,
                    equality=lhs == rhs,
                )
            )
    return records


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an extremal search.

    ``examined`` counts candidates whose Matula number was evaluated
    exactly, ``pruned`` those discarded by a rigorous bound, and
    ``exhaustive`` whether the optimum is certified over the whole class
    (False only when some candidate needed a prime beyond the ceiling).
    """

    optimum: int
    witness: Tree
    examined: int
    pruned: int
    exhaustive: bool


def exhaustive_max(spec: EnumSpec, oracle=None) -> SearchReport:
    """Exact maximum Matula number over an enumeration stream."""
    return _scan(spec, oracle, want_max=True)


def exhaustive_min(spec: EnumSpec, oracle=None) -> SearchReport:
    """Exact minimum Matula number over an enumeration stream."""
    return _scan(spec, oracle, want_max=False)


def _scan(spec, oracle, want_max):
    if oracle is None:
        oracle = default_oracle()
    best = None
    witness = None
    examined = 0
    for t in enumerate_trees(spec):
        m = encode(t, oracle)
        examined += 1
        if best is None or (m > best if want_max else m < best):
            best, witness = m, t
    return SearchReport(
        optimum=best, witness=witness, examined=examined, pruned=0, exhaustive=True
    )


def min_binary_bnb(k: int, oracle=None) -> SearchReport:
    """Certified minimum Matula number over binary trees with k leaves.

    Dynamic program over root splits: level j's minimum is the best
    p_{mu_a} p_{mu_b} over a + b = j, seeded with the balanced split as
    incumbent and pruning the rest by mu_a mu_b (since p_m > m) or by
    Robin's lower bound.  A pruned split provably cannot beat the incumbent;
    an evaluated split that does becomes the new incumbent, so a smaller
    witness than the balanced construction would be found and reported, not
    hidden.  Splits whose exact evaluation exceeds the oracle ceiling make
    the report non-exhaustive.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if oracle is None:
        oracle = default_oracle()

    minima = {1: (1, leaf())}
    # The lone 1-leaf candidate needs no evaluation; count it only when it
    # is the whole search.
    examined = 1 if k == 1 else 0
    pruned = 0
    exhaustive = True

    for j in range(2, k + 1):
        splits = [_balanced_split(j)]
        splits += [(a, j - a) for a in range(1, j // 2 + 1) if (a, j - a) != splits[0]]
        best = None
        witness = None
        for a, b in splits:
            mu_a, wit_a = minima[a]
            mu_b, wit_b = minima[b]
            if best is not None:
                if mu_a * mu_b >= best:
                    pruned += 1
                    continue
                if _prime_floor(mu_a) * _prime_floor(mu_b) >= best:
                    pruned += 1
                    continue
            try:
                value = oracle.nth_prime(mu_a) * oracle.nth_prime(mu_b)
            except IndexOutOfRange:
                exhaustive = False
                continue
            examined += 1
            if best is None or value < best:
                best, witness = value, join(wit_a, wit_b)
        if best is None:
            # Not even one split of this level was evaluable; nothing above
            # it can be either.
            raise IndexOutOfRange(
                f"no {j}-leaf split evaluable under ceiling {oracle.limit_value}",
                limit_value=oracle.limit_value,
            )
        minima[j] = (best, witness)

    optimum, witness = minima[k]
    return SearchReport(
        optimum=optimum,
        witness=witness,
        examined=examined,
        pruned=pruned,
        exhaustive=exhaustive,
    )


def _prime_floor(m):
    """A rigorous lower bound on the m-th prime, cheap and oracle-free."""
    if m == 1:
        return 2
    return robin_lower(m) * _FLOAT_SAFETY
