"""Sieve kernel of the prime oracle, in pure Python.

The heavy lifting is delegated to bytearray slice assignment and
``itertools.compress``, both of which run at C speed, so this kernel stays
usable up to 10^8-scale sieves (seconds rather than minutes).
"""

from array import array
from itertools import compress
from math import isqrt

BACKEND = "python"


def simple_sieve(limit):
    """All primes <= limit as an array('Q'), by a plain Eratosthenes sieve."""
    if limit < 2:
        return array("Q")
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start::p] = bytes(len(range(start, limit + 1, p)))
    out = array("Q")
    out.extend(compress(range(limit + 1), flags))
    return out


def sieve_segment(lo, hi, base_primes):
    """Primes in [lo, hi) as an array('Q').

    Contract: ``lo`` >= 3, ``hi > lo``, and ``base_primes`` contains every
    prime <= isqrt(hi - 1).  Only odd candidates are represented, so an even
    ``lo``, never prime, is rounded up to odd.
    """
    if lo < 3:
        raise ValueError(f"segment must start at a value >= 3, got {lo}")
    lo |= 1
    n = (hi - lo + 1) // 2
    flags = bytearray(b"\x01") * n
    for p in base_primes:
        if p == 2:
            continue
        square = p * p
        if square >= hi:
            break
        start = max(square, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        j = (start - lo) // 2
        flags[j::p] = bytes(len(range(j, n, p)))
    out = array("Q")
    out.extend(compress(range(lo, hi, 2), flags))
    return out
