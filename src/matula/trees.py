"""Canonical rooted-tree values and their order by Matula number.

A ``Tree`` is an immutable recursive value: a node is nothing but the tuple
of its child subtrees, kept in canonical order (ascending Matula number).
Canonical order makes structural equality coincide with rooted-tree
isomorphism, so deduplication and serialization are trivial downstream.
Shape alone (classes, sizes, ``TreeParams``) needs no value; ``treetext``
reads it from the text.

Ordering by Matula number is arithmetic, not structural.  Every tree is
valued once, when it is built, under the oracle in force then: its exact
Matula number while the prime of every branch number is known, else
rigorous bounds on ln M from the proven bounds on p_m in ``primes._BOUNDS``.
A node keeps the term it gives parents: its prime, or bounds on its log.
Nodes compare by exact numbers, else by disjoint bounds; overlapping bounds
of different trees fall back to ``matula_number``, the one walk, which can
raise IndexOutOfRange for astronomically deep inputs.  That failure is
deliberate and loud.  No walk over a tree recurses.
"""

from enum import Enum
from functools import cmp_to_key
from math import log, prod

from .errors import DomainError, IndexOutOfRange, brief
from .primes import _WIDEN, _ln_prime_bounds, default_oracle


class Tree:
    """A rooted tree in canonical form; use leaf() and join() to build."""

    __slots__ = ("children", "_mnum", "_lnm", "_term", "_hash")

    def __init__(self, children=(), _matula=None):
        # Callers must pass children already in canonical order; the public
        # constructors below do.  Kept cheap because enumeration is hot.  Each
        # node is valued here, once; decode's trees and the leaf need no oracle.
        self.children = tuple(children)
        self._mnum = _matula if _matula is not None else (1 if not children else None)
        self._lnm = None  # bounds (lo, hi) on ln M when _mnum is not known
        self._term = None  # p_M, or bounds (lo, hi) on ln p_M; see _branch_term
        self._hash = hash(self.children)
        if self._mnum is None:
            self._value()

    def _value(self):
        """Set the number while every branch's prime is known, else bounds on
        ln M from the branches' terms; drop the node's own term, now stale."""
        terms = [c._term or c._branch_term() for c in self.children]
        self._term = None
        if tuple not in map(type, terms):
            self._mnum = prod(terms)
            return
        lo = hi = 0.0
        for term in terms:
            plo, phi = term if type(term) is tuple else (log(term),) * 2
            lo += plo
            hi += phi
        self._lnm = (lo * (1 - _WIDEN), hi * (1 + _WIDEN))

    def _branch_term(self):
        """Keep and return p_{M(node)} while it lies in the sieved prefix, else
        bounds (lo, hi) on ln p_{M(node)}; matula_number keeps far primes."""
        m = self._mnum
        p = m and default_oracle()._prefix_prime(m)
        self._term = term = p or _ln_prime_bounds(*ln_bounds(self))
        return term

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # Pairwise from an explicit stack, so deep trees need no recursion.
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a._hash != b._hash or len(a.children) != len(b.children):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .treetext import serialize

        return f"Tree({serialize(self)!r})"


_LEAF = Tree()


def ln_bounds(t: Tree):
    """Rigorous bounds (lo, hi) on ln M(t): from its number, else the bounds
    it was valued with; no prime is computed."""
    m = t._mnum
    if m is None:
        return t._lnm
    x = log(m)
    return x * (1 - _WIDEN), x * (1 + _WIDEN)


def matula_number(t: Tree) -> int:
    """The Matula number of t: the product of p_{M(branch)} over branches.

    Memoized on the nodes themselves, so structurally shared subtrees are
    encoded once.  Raises IndexOutOfRange when some subtree's number exceeds
    the shared oracle's answerable index range; the exception's ``index``
    attribute is that subtree's Matula number.  The nodes left without a
    number are then valued again from their branches, some now exact.
    """
    if t._mnum is not None:
        return t._mnum
    nth_prime = default_oracle().nth_prime
    # Children first, from an explicit stack; a node stays on it until its
    # number is set, so a refusal leaves every node it opened there.
    stack = [t]
    try:
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if c._mnum is None]
            if todo:
                stack.extend(reversed(todo))
                continue
            if node._mnum is None:
                primes = []
                for c in node.children:
                    p = c._term
                    if type(p) is not int:
                        p = c._term = nth_prime(c._mnum)
                    primes.append(p)
                node._term = None  # stale; cleared before _mnum, so no prime is lost
                node._mnum = prod(primes)
            stack.pop()
    except IndexOutOfRange:
        for node in reversed(stack):  # each node's children lie above it
            if node._mnum is None:
                node._value()
        raise
    return t._mnum


def compare_matula(a: Tree, b: Tree) -> int:
    """Total order on trees by Matula number (equal iff isomorphic)."""
    if a is b:
        return 0
    if a._mnum is None or b._mnum is None:
        alo, ahi = ln_bounds(a)
        blo, bhi = ln_bounds(b)
        if ahi < blo:
            return -1
        if alo > bhi:
            return 1
        if a == b:
            return 0
        matula_number(a)
        matula_number(b)
    return (a._mnum > b._mnum) - (a._mnum < b._mnum)


_canonical_key = cmp_to_key(compare_matula)


def leaf() -> Tree:
    """The one-vertex tree; its Matula number is 1."""
    return _LEAF


def join(*branches: Tree) -> Tree:
    """The tree whose root has the given branches (a multiset: order of the
    arguments is irrelevant, children are stored in canonical order)."""
    if not branches:
        raise DomainError("join needs at least one branch")
    return Tree(sorted(branches, key=_canonical_key))


def star(n: int) -> Tree:
    """The star with n leaves attached directly to the root."""
    if n < 1:
        raise DomainError(f"star needs n >= 1, got {brief(n)}")
    return Tree([_LEAF] * n)


class TreeClass(Enum):
    ROOTED = "rooted"
    TOPOLOGICAL = "topological"
    BINARY = "binary"
