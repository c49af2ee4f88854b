"""Extremal constructions, their number sequences, and one certificate for
the extremal claims.

Two families of extremal binary trees drive everything here.  ``_family``
builds each once by its split rule (a, b): T_1 is the leaf, T_k has the
branches T_a and T_b in that order, and the members share their nodes.
Each member, like every tree, is valued once, under the oracle in force
when it is built.  The constructors return the last member, and each
sequence reads ``matula_number`` off every member:

* the binary caterpillar C_k, whose Matula numbers q satisfy q_1 = 1 and
  q_k = 2 p_{q_{k-1}}; it is the unique maximum over topological trees
  with a given leaf count, and ``check_caterpillar_inequality`` verifies
  the product inequality p_{q_a} p_{q_b} <= q_{a+b} instance by instance
  as the tree comparison M(join(C_a, C_b)) <= M(C_{a+b});
* the balanced power-of-two construction ``min_binary_tree``, whose numbers
  l satisfy l_1 = 1 and, writing k = r + 2^{s+1} with 0 <= r < 2^{s+1},
  l_k = p_{l_{2^s}} p_{l_{r+2^s}} when r <= 2^s and p_{l_r} p_{l_{2^{s+1}}}
  otherwise; it is conjecturally the minimum over binary trees by leaves.

``extremal_tree`` finds the tree with the largest or smallest Matula number
of a class and size without enumeration.  Once the sizes of the root's
branches are fixed, the extremal tree takes the extremal tree of each size
in every branch, because p_m increases with m and the branches are
independent.  So a dynamic program over branch sizes is complete, and it
decides every size up to n on its way: ``_levels`` returns them all, so a
claim is certified at each size, and ``extremal_tree`` returns the last.
Trees are compared by ``compare_matula`` alone: exact numbers inside the
sieved prefix, rigorous bounds on ln M past it, and exact numbers when two
bounds overlap, which raises IndexOutOfRange past the oracle ceiling.  Each
scan starts from the claimed candidate and compares every rival with the
incumbent only, so a true claim is never held up by two rivals whose
bounds overlap.
"""

from collections import namedtuple

from .errors import DomainError, IndexOutOfRange, SizeTooLarge
from .trees import Tree, TreeClass, compare_matula, join, leaf, matula_number

# Largest size of the certificate, the sequences and the inequality.  At
# 300 the slowest, the star claim (tree work grows as n^3), takes 3.5 to
# 4.5 s in a fresh process on 2 CPUs, and Lemma 1's 22500 instances 1 s.
SIZE_CAP = 300


def caterpillar_numbers(k_max: int):
    """[q_1 .. q_k_max]: Matula numbers of the binary caterpillars.

    Raises IndexOutOfRange (with attribute ``k`` set to the first infeasible
    index) once a number needs a prime beyond the oracle ceiling.
    """
    return _numbers("q", k_max)


def min_binary_numbers(k_max: int):
    """[l_1 .. l_k_max]: Matula numbers of the balanced minimal binary trees."""
    return _numbers("l", k_max)


def _numbers(which, k_max):
    """The Matula numbers of ``_family(which, k_max)``, read off in order, so
    that a refusal names the first k whose number needs a prime past the
    ceiling."""
    _check_size(k_max)
    values = []
    for k, tree in enumerate(_family(which, k_max), start=1):
        try:
            values.append(matula_number(tree))
        except IndexOutOfRange as exc:
            exc.k = k
            raise
    return values


def _check_size(n, least=1):
    """Refuse a size below ``least`` or past ``SIZE_CAP``."""
    if n < least:
        raise DomainError(f"size must be >= {least}, got {n}")
    if n > SIZE_CAP:
        raise SizeTooLarge(f"extremal size {n} exceeds cap {SIZE_CAP}", n, SIZE_CAP)


def _balanced_split(k):
    """The branch leaf counts (a, b), a <= b, of the balanced construction."""
    s = k.bit_length() - 2  # 2^(s+1) <= k < 2^(s+2)
    r = k - (1 << (s + 1))
    if r <= 1 << s:
        return (1 << s), r + (1 << s)
    return r, 1 << (s + 1)


# Each family's split rule k -> (a, b), by the name of its sequence.
_SPLITS = {"q": lambda k: (1, k - 1), "l": _balanced_split}


def _family(which, n):
    """[T_1 .. T_n] of the family ``which``, each valued once, like every
    tree, under the oracle in force when it is built.  T_{k+1} is T_k with
    one leaf made a cherry, so M(T_k) increases with k and each split
    a <= b is already in canonical order."""
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    trees = [None, leaf()]
    for k in range(2, n + 1):
        a, b = _SPLITS[which](k)
        trees.append(Tree((trees[a], trees[b])))
    return trees[1:]


def binary_caterpillar(n: int) -> Tree:
    """The n-leaf binary caterpillar: internal vertices form a root path."""
    return _family("q", n)[-1]


def min_binary_tree(k: int) -> Tree:
    """The balanced k-leaf binary tree (conjectured Matula minimum)."""
    return _family("l", k)[-1]


def gi_max_tree(n: int) -> Tree:
    """The Gutman-Ivic n-vertex tree: a root path on n - 3 vertices with
    three leaves attached to the far endvertex.  It attains the maximum
    Matula number among all rooted trees with n vertices (n >= 5)."""
    return _gi_trees(n)[-1]


def _gi_trees(n):
    """[G_5 .. G_n], the Gutman-Ivic trees, each the root over the last."""
    if n < 5:
        raise DomainError(f"the construction needs n >= 5 vertices, got {n}")
    trees = [Tree((Tree((leaf(),) * 3),))]
    for _ in range(n - 5):
        trees.append(Tree((trees[-1],)))
    return trees


class InequalityRecord(namedtuple("InequalityRecord", "k1 k2 lhs rhs holds equality")):
    """One verified instance of p_{q_k1} p_{q_k2} <= q_{k1+k2}: ``lhs`` is
    the tree join(C_k1, C_k2) and ``rhs`` the caterpillar C_{k1+k2}."""

    __slots__ = ()


def check_caterpillar_inequality(k_max: int):
    """All instances of the product inequality with k1 + k2 <= k_max.

    With C_k the k-leaf binary caterpillar, p_{q_a} p_{q_b} is the Matula
    number of join(C_a, C_b) and q_{a+b} that of C_{a+b}, so each instance
    is one ``compare_matula`` of two trees: exact numbers or bounds on ln M,
    as for the extremal claims.  k1 = 1 holds with equality, because then
    the two trees are equal.  Raises SizeTooLarge past ``SIZE_CAP``.
    """
    _check_size(k_max, least=2)
    caterpillars = [None, *_family("q", k_max)]
    records = []
    for k1 in range(1, k_max):
        for k2 in range(k1, k_max - k1 + 1):
            lhs = Tree((caterpillars[k1], caterpillars[k2]))  # q_k1 <= q_k2
            rhs = caterpillars[k1 + k2]
            order = compare_matula(lhs, rhs)
            records.append(InequalityRecord(k1, k2, lhs, rhs, order <= 0, order == 0))
    return records


def extremal_tree(tree_class: TreeClass, n: int, maximum: bool) -> Tree:
    """The tree of the class and size with the largest (``maximum``) or the
    smallest Matula number; sizes count leaves, or vertices for rooted trees.
    Raises SizeTooLarge past ``SIZE_CAP``, and IndexOutOfRange when two
    candidates' bounds overlap and their exact numbers need a prime past the
    ceiling."""
    return _levels(tree_class, n, maximum)[-1]


def _levels(tree_class, n, maximum):
    """[best[1] .. best[n]]: the extremal tree of every size up to n.

    With best[s] the extremal tree of size s, level s is one scan over
    best[]: a root over a branch best[k] and the best forest of the rest.
    A rooted forest of t vertices is the children of a tree of t + 1
    vertices, so the best is best[t + 1].children.  A topological forest of
    t leaves is one tree or the children of a tree of t leaves.  As
    M(join(T)) = p_{M(T)} > M(T), the best is (best[t],) for maxima, which
    makes level s the split join(best[a], best[s - a]) as for binary trees,
    and best[t].children for minima, or (best[1],) at t = 1.
    """
    _check_size(n)
    wanted = 1 if maximum else -1

    def best_of(candidates):
        incumbent = None
        for branches in candidates:
            rival = join(*branches)
            if incumbent is None or compare_matula(rival, incumbent) == wanted:
                incumbent = rival
        return incumbent

    # Each scan lists the claimed candidate first: splits and topological
    # minima start at k = 1 (caterpillar, star), rooted maxima at one branch
    # (the Gutman-Ivic tree), binary minima at the balanced split.
    best = [None, leaf()]
    for s in range(2, n + 1):
        if tree_class is TreeClass.ROOTED:
            parts = range(s - 1, 0, -1) if maximum else range(1, s)
            best.append(best_of((best[k], *best[s - k].children) for k in parts))
        elif tree_class is TreeClass.BINARY or maximum:
            first = _SPLITS["q" if maximum else "l"](s)
            splits = [first] + [(a, s - a) for a in range(1, s // 2 + 1) if a != first[0]]
            best.append(best_of((best[a], best[b]) for a, b in splits))
        else:
            candidates = ((best[k], *(best[s - k].children or (best[1],))) for k in range(1, s))
            best.append(best_of(candidates))
    return best[1:]
