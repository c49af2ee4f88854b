"""Rooted trees as integers.

The bijection sends the one-vertex tree to 1 and a tree with branches
B_1, ..., B_r to the product of the M(B_i)-th primes; this package provides
the codec, a text format, exhaustive enumeration by class and size, the
extremal constructions with their number sequences, and a dynamic program
over branch sizes that certifies the extremal claims.

Importing the package loads none of its modules: each public name below
imports its module on first use, so a process pays only for the layers it
touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> (module, attribute).
_EXPORTS = {
    "DomainError": ("errors", "DomainError"),
    "FactorOutOfRange": ("errors", "FactorOutOfRange"),
    "IndexOutOfRange": ("errors", "IndexOutOfRange"),
    "InequalityRecord": ("extremal", "InequalityRecord"),
    "MatulaError": ("errors", "MatulaError"),
    "NotPrime": ("errors", "NotPrime"),
    "PrimeOracle": ("primes", "PrimeOracle"),
    "SIEVE_BACKEND": ("_sieve_py", "BACKEND"),
    "SizeTooLarge": ("errors", "SizeTooLarge"),
    "Tree": ("trees", "Tree"),
    "TreeClass": ("trees", "TreeClass"),
    "TreeParams": ("trees", "TreeParams"),
    "TreeSyntaxError": ("errors", "TreeSyntaxError"),
    "ValueOutOfRange": ("errors", "ValueOutOfRange"),
    "apply_merge": ("trees", "apply_merge"),
    "binary_caterpillar": ("extremal", "binary_caterpillar"),
    "caterpillar_numbers": ("extremal", "caterpillar_numbers"),
    "check_caterpillar_inequality": ("extremal", "check_caterpillar_inequality"),
    "classify": ("trees", "classify"),
    "compare_matula": ("trees", "compare_matula"),
    "count_trees": ("enumerator", "count_trees"),
    "decode": ("codec", "decode"),
    "default_oracle": ("primes", "default_oracle"),
    "encode": ("codec", "encode"),
    "enumerate_trees": ("enumerator", "enumerate_trees"),
    "extremal_tree": ("extremal", "extremal_tree"),
    "gi_max_tree": ("extremal", "gi_max_tree"),
    "is_prime_certified": ("primes", "is_prime_certified"),
    "join": ("trees", "join"),
    "leaf": ("trees", "leaf"),
    "min_binary_numbers": ("extremal", "min_binary_numbers"),
    "min_binary_tree": ("extremal", "min_binary_tree"),
    "params": ("trees", "params"),
    "parse": ("treetext", "parse"),
    "serialize": ("treetext", "serialize"),
    "set_default_oracle": ("primes", "set_default_oracle"),
    "star": ("trees", "star"),
    "to_dot": ("treetext", "to_dot"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the module of a public name on first use and keep the binding,
    so later lookups never come back here (PEP 562).  Any other name raises
    AttributeError, which lets ``from matula import primes`` import the
    submodule."""
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), attribute)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
