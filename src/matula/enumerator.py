"""Exhaustive, isomorphism-free generation of tree classes by size.

Generation works bottom-up by multiset composition: a tree is a root plus a
multiset of strictly smaller trees of the same class whose sizes add up, so
choosing branch multisets through combinations-with-replacement kills
isomorphic duplicates at the source instead of filtering them afterwards.
``count_trees`` counts the same classes by recurrences on integers alone,
giving an arithmetic cross-check that never materializes a tree.  Nothing
here recurses, and the pools and counts of smaller sizes belong to one call.

A size is a plain integer, and the tree class fixes what it counts:

* topological trees by leaf count (no vertex of outdegree 1),
* binary trees by leaf count (every outdegree 0 or 2),
* arbitrary rooted trees by vertex count.

Each stream yields every isomorphism class exactly once, in canonical form,
ordered by canonical serialization; only the requested size is sorted.
Fixed caps bound the sizes: enumeration stops at topological 12, binary 20
and rooted 14 leaves or vertices, counting at 2000 for every class.
Generation is sequential here; distinct top-level branch compositions are
independent, so callers wanting parallelism can safely split on them (trees
are immutable values).
"""

from itertools import chain, combinations_with_replacement, groupby, product

from .errors import DomainError, SizeTooLarge, brief
from .treetext import serialize
from .trees import TreeClass, join, leaf

# Enumeration holds every tree of every size up to the requested one, so
# memory grows with the count: at binary 20, the largest, a fresh CLI process
# peaks at 224 MB after about 15 s on a 2-CPU host.
_CAPS = {TreeClass.TOPOLOGICAL: 12, TreeClass.BINARY: 20, TreeClass.ROOTED: 14}
# Counting holds no tree, only O(n) integers over O(n^2) steps: time alone
# bounds it, about 4 s for topological trees at 2000 on a 2-CPU host.
_COUNT_CAP = 2000


def _validate(tree_class, size, cap):
    if size < 1:
        raise DomainError(f"size must be >= 1, got {brief(size)}")
    if size > cap:
        raise SizeTooLarge(f"{tree_class.value} size {brief(size)} exceeds cap {cap}", size, cap)


def _ascending_partitions(n):
    """Ascending tuples of positive integers summing to n, lexicographically."""
    stack = [((), n, 1)]  # (parts so far, remainder, least next part)
    while stack:
        parts, rest, low = stack.pop()
        if not rest:
            yield parts
        # The largest next part goes in first, so the smallest comes out first.
        stack.extend((parts + (k,), rest - k, k) for k in range(rest, low - 1, -1))


def _branch_multisets(parts, pools):
    """All multisets of trees matching an ascending size partition."""
    groups = []
    for size, grp in groupby(parts):
        count = len(tuple(grp))
        groups.append(combinations_with_replacement(pools[size], count))
    for chosen in product(*groups):
        yield tuple(chain.from_iterable(chosen))


def _branch_partitions(tree_class, n):
    """Ascending branch-size partitions admissible for a root of size n."""
    if tree_class is TreeClass.ROOTED:
        return _ascending_partitions(n - 1)
    if tree_class is TreeClass.BINARY:
        return ((a, n - a) for a in range(1, n // 2 + 1))
    return (parts for parts in _ascending_partitions(n) if len(parts) >= 2)


def _pool(tree_class, n, pools):
    """Every tree of the class and size n, built from ``pools``, the pools
    of every smaller size."""
    for parts in _branch_partitions(tree_class, n):
        for branches in _branch_multisets(parts, pools):
            yield join(*branches)


def enumerate_trees(tree_class: TreeClass, size: int):
    """Yield every tree of the class and size exactly once, canonically
    ordered.  The pools of smaller trees belong to this call alone."""
    _validate(tree_class, size, _CAPS[tree_class])
    pools = {1: (leaf(),)}
    for n in range(2, size + 1):
        pools[n] = tuple(_pool(tree_class, n, pools))
    yield from sorted(pools[size], key=serialize)


def count_trees(tree_class: TreeClass, size: int) -> int:
    """Number of isomorphism classes, by arithmetic alone in O(n^2) steps.

    Matches len(list(enumerate_trees(tree_class, n))) at size n but touches
    no tree.  Binary trees pair two branch sizes a <= n - a.  The other
    classes count forests: forests[s], the multisets of trees of total size
    s, is the Euler transform of trees[k], the trees of size k.  A rooted
    tree of n vertices is a root over a forest of n - 1 vertices; a
    topological tree of n leaves is a forest of n leaves with at least two
    trees, so forests[n] = 2 trees[n].  The counts of smaller sizes belong
    to this call alone.
    """
    _validate(tree_class, size, _COUNT_CAP)
    if tree_class is TreeClass.BINARY:
        counts = [0, 1]
        for s in range(2, size + 1):
            pairs = sum(counts[a] * counts[s - a] for a in range(1, (s + 1) // 2))
            if s % 2 == 0:
                pairs += counts[s // 2] * (counts[s // 2] + 1) // 2
            counts.append(pairs)
        return counts[size]
    trees = [0, 1]
    forests = [1]
    # weights[k]: the sum of d * trees[d] over the divisors d of k
    weights = [0]
    for s in range(1, size + 1):
        tail = sum(weights[k] * forests[s - k] for k in range(1, s))
        below = sum(d * trees[d] for d in range(1, s) if s % d == 0)
        if s > 1:
            if tree_class is TreeClass.ROOTED:
                trees.append(forests[s - 1])
            else:
                # forests[s] = trees[s] + (tail + below) / s = 2 trees[s]
                trees.append((tail + below) // s)
        weights.append(below + s * trees[s])
        forests.append((tail + weights[s]) // s)
    return trees[size]
