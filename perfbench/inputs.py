"""Seeded inputs for the workloads.

Every input is drawn from ``random.Random(seed)`` and built with the
reference routes only, so the program under test sees nothing but the
finished inputs.  Draws are stratified (one draw per fixed slice of each
range, in a fixed order) so that the cost of a run moves little from seed
to seed while the values themselves change.
"""

import random

from reference import is_prime, write_tree

# prime-reach: semiprime factors and prime sizes.
FACTOR_LO, FACTOR_HI = 10**7, 3 * 10**7
PRIME_LOG10_LO, PRIME_LOG10_HI = 14, 18

# codec-stream: decode keys and encode branch numbers.
DECODE_HI = 1 << 24
BRANCH_HI = 10**6


def _prime_in(rng, lo, hi):
    """A prime drawn near-uniformly from [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        while n < hi and not is_prime(n):
            n += 2
        if n < hi:
            return n


def factorize_inputs(seed, pairs=4):
    """Alternating semiprimes and primes, for one factorizing process.

    Pair i holds a semiprime whose smaller factor lies in the i-th of
    ``pairs`` equal slices of [10^7, 3*10^7] (its larger factor in
    [smaller, 3*10^7]), then a prime from the i-th slice of
    [10^14, 10^18] on a log scale.  Each semiprime grows the program's
    prime table a little further, so each later prime meets a larger
    table.  Returns [(n, [(p, e), ...]), ...] with the known factors.
    """
    rng = random.Random(f"factorize-{seed}")
    width = (FACTOR_HI - FACTOR_LO) // pairs
    step = (PRIME_LOG10_HI - PRIME_LOG10_LO) / pairs
    out = []
    for i in range(pairs):
        a = _prime_in(rng, FACTOR_LO + i * width, FACTOR_LO + (i + 1) * width)
        b = _prime_in(rng, a, FACTOR_HI)
        out.append((a * b, [(a, 2)] if a == b else [(a, 1), (b, 1)]))
        lo = int(10 ** (PRIME_LOG10_LO + i * step))
        hi = int(10 ** (PRIME_LOG10_LO + (i + 1) * step))
        p = _prime_in(rng, lo, hi)
        out.append((p, [(p, 1)]))
    return out


def decode_inputs(seed, count):
    """``count`` integers uniform in [1, 2^24)."""
    rng = random.Random(f"decode-{seed}")
    return [rng.randrange(1, DECODE_HI) for _ in range(count)]


def _reference_tree(n, table, memo):
    """Nested-tuple tree with Matula number n, by trial division."""
    t = memo.get(n)
    if t is not None:
        return t
    children = []
    rem = n
    for p in table.primes:
        if p * p > rem:
            break
        while rem % p == 0:
            rem //= p
            children.append(_reference_tree(table.pi(p), table, memo))
    if rem > 1:
        children.append(_reference_tree(table.pi(rem), table, memo))
    t = memo[n] = tuple(children)
    return t


def encode_inputs(seed, count, table):
    """``count`` (tree text, Matula number) pairs.

    Each tree's root has 1 to 4 branches; each branch is the tree of an
    integer uniform in [1, 10^6], so every branch number is <= 10^6 and
    every prime index the encoder meets is at most 10^6.  The text lists
    children in a shuffled order at every vertex, so the program has to
    restore canonical order itself.
    """
    rng = random.Random(f"encode-{seed}")
    memo = {1: ()}

    def shuffled(children):
        rng.shuffle(children)
        return children

    out = []
    for _ in range(count):
        branches = [rng.randrange(1, BRANCH_HI + 1) for _ in range(rng.randint(1, 4))]
        number = 1
        for b in branches:
            number *= table.nth(b)
        tree = tuple(_reference_tree(b, table, memo) for b in branches)
        text = write_tree(tree, shuffled)
        out.append((text, number))
    return out
