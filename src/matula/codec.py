"""The tree/number bijection.

``encode`` maps a rooted tree to its Matula number (product of primes
indexed by branch numbers, with the single vertex mapping to 1); ``decode``
inverts it through the prime decomposition.  Both directions are exact
arbitrary-precision; only the prime *indices* fed to the oracle must stay
machine-scale, and the oracle errors identify the smallest infeasible
subtree when they do not.
"""

from .errors import MatulaError
from .primes import default_oracle
from .trees import Tree, leaf, matula_number

# decode is shared-subtree heavy (every composite reuses the trees of its
# factor indices), so results with keys up to this bound are interned in
# ``_decode_cache``.  Only keys up to the current oracle's ceiling are read or
# written: decode(n) cannot fail there (every prime it needs is at most n), so
# whether a call raises never depends on earlier calls.
_DECODE_CACHE_MAX_KEY = 1 << 20
_decode_cache = {}


def encode(t: Tree) -> int:
    """Matula number of t; memoized per structurally shared subtree."""
    return matula_number(t)


def decode(n: int) -> Tree:
    """The unique canonical tree whose Matula number is n."""
    if n < 1:
        raise MatulaError(f"Matula numbers start at 1, got {n}")
    return _decode(n)


def _decode(n):
    oracle = default_oracle()
    cached = n <= min(_DECODE_CACHE_MAX_KEY, oracle.limit_value)
    result = _decode_cache.get(n) if cached else None
    if result is not None:
        return result
    if n == 1:
        result = leaf()
    else:
        children = []
        for p, exponent in oracle.factorize(n):
            child = _decode(oracle.prime_index(p))
            children.extend([child] * exponent)
        # Factors come out ascending, hence so do the children's Matula
        # numbers: the tuple is already canonical.
        result = Tree(children, _matula=n)
    if cached:
        _decode_cache[n] = result
    return result
