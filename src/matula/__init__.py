"""Rooted trees as integers.

The bijection sends the one-vertex tree to 1 and a tree with branches
B_1, ..., B_r to the product of the M(B_i)-th primes; this package provides
the codec, a text format, exhaustive enumeration by class and size, the
extremal constructions with their number sequences, and a dynamic program
over branch sizes that certifies the extremal claims.
"""

from ._sieve_py import BACKEND as SIEVE_BACKEND
from .codec import decode, encode
from .enumerator import DEFAULT_CAPS, EnumSpec, count_trees, enumerate_trees
from .errors import (
    BadSize,
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    MatulaError,
    NotPrime,
    SizeTooLarge,
    TooFewBranches,
    TreeSyntaxError,
    ValueOutOfRange,
)
from .extremal import (
    InequalityRecord,
    caterpillar_numbers,
    check_caterpillar_inequality,
    extremal_tree,
    gi_max_tree,
    min_binary_numbers,
    min_binary_tree,
)
from .primes import (
    PrimeOracle,
    default_oracle,
    is_prime_certified,
    robin_lower,
    rosser_schoenfeld_upper,
    set_default_oracle,
)
from .treetext import parse, serialize, to_dot
from .trees import (
    Tree,
    TreeClass,
    TreeParams,
    apply_merge,
    binary_caterpillar,
    classify,
    compare_matula,
    join,
    leaf,
    params,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "BadSize",
    "DEFAULT_CAPS",
    "DomainError",
    "EnumSpec",
    "FactorOutOfRange",
    "IndexOutOfRange",
    "InequalityRecord",
    "MatulaError",
    "NotPrime",
    "PrimeOracle",
    "SIEVE_BACKEND",
    "SizeTooLarge",
    "TooFewBranches",
    "Tree",
    "TreeClass",
    "TreeParams",
    "TreeSyntaxError",
    "ValueOutOfRange",
    "apply_merge",
    "binary_caterpillar",
    "caterpillar_numbers",
    "check_caterpillar_inequality",
    "classify",
    "compare_matula",
    "count_trees",
    "decode",
    "default_oracle",
    "encode",
    "enumerate_trees",
    "extremal_tree",
    "gi_max_tree",
    "is_prime_certified",
    "join",
    "leaf",
    "min_binary_numbers",
    "min_binary_tree",
    "params",
    "parse",
    "robin_lower",
    "rosser_schoenfeld_upper",
    "serialize",
    "set_default_oracle",
    "star",
    "to_dot",
]
