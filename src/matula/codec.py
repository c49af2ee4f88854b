"""The tree/number bijection.

``encode`` maps a rooted tree to its Matula number (product of primes
indexed by branch numbers, with the single vertex mapping to 1); ``decode``
inverts it through the prime decomposition.  Both directions are exact
arbitrary-precision; only the prime *indices* fed to the oracle must stay
machine-scale, and the oracle errors identify the smallest infeasible
subtree when they do not.  Decoded trees belong to the default oracle.
"""

from .errors import MatulaError, brief
from .primes import default_oracle
from .trees import Tree, leaf, matula_number

# Trees of keys up to this bound are memoized on the oracle, at most
# _DECODE_MEMO_SIZE of them; clearing a full memo is atomic and takes no lock.
_DECODE_MEMO_MAX_KEY = 1 << 20
_DECODE_MEMO_SIZE = 1 << 16


def encode(t: Tree) -> int:
    """Matula number of t; memoized per structurally shared subtree."""
    return matula_number(t)


def decode(n: int) -> Tree:
    """The unique canonical tree whose Matula number is n."""
    if n < 1:
        raise MatulaError(f"Matula numbers start at 1, got {brief(n)}")
    return _decode(n)


def _decode(n):
    oracle = default_oracle()
    memo = oracle._decode_memo
    result = memo.get(n)
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
    if n <= _DECODE_MEMO_MAX_KEY:
        if len(memo) >= _DECODE_MEMO_SIZE:
            memo.clear()
        memo[n] = result
    return result
