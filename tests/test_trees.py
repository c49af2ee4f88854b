import random
import sys
import threading
from decimal import Decimal, localcontext
from math import log
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    DomainError,
    IndexOutOfRange,
    Tree,
    binary_caterpillar,
    compare_matula,
    encode,
    join,
    leaf,
    params,
    parse,
    serialize,
    star,
)
from matula import primes, trees
from matula.codec import decode
from matula.primes import _ln_prime_bounds
from matula.trees import _WIDEN, ln_bounds, matula_number

from oracles import MonolithicSieve, bfs_params


def small_trees(max_depth=3):
    """Trees of height <= max_depth with at most 3 branches per vertex;
    keeps every Matula number comfortably inside the default oracle."""
    if max_depth == 0:
        return st.just(leaf())
    sub = small_trees(max_depth - 1)
    return st.one_of(
        st.just(leaf()),
        st.lists(sub, min_size=1, max_size=3).map(lambda cs: join(*cs)),
    )


def deep_path(depth):
    """The path whose root lies ``depth`` edges above its one leaf."""
    t = leaf()
    for _ in range(depth):
        t = join(t)
    return t


def test_leaf_is_single_vertex():
    t = leaf()
    assert t.children == ()
    assert encode(t) == 1
    p = params(t)
    assert (p.vertices, p.leaves, p.height, p.wiener) == (1, 1, 0, 0)
    assert p.outdegree_multiset == (0,)


def test_join_cherry():
    cherry = join(leaf(), leaf())
    assert encode(cherry) == 4


def test_join_unary():
    t = join(leaf())
    assert len(t.children) == 1
    assert encode(t) == 2


def test_join_requires_a_branch():
    with pytest.raises(DomainError):
        join()


def test_join_is_order_insensitive():
    a, b, c = leaf(), join(leaf()), join(leaf(), leaf())
    assert join(b, a, c) == join(a, b, c) == join(c, b, a)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_trees(2), min_size=1, max_size=4), st.randoms())
def test_join_permutation_invariance(branches, rng):
    reference = join(*branches)
    shuffled = list(branches)
    rng.shuffle(shuffled)
    assert join(*shuffled) == reference


def test_children_sorted_by_matula_number():
    for n in (6, 42, 360, 99991, 2**8 * 3**4 * 43):
        t = decode(n)
        numbers = [encode(c) for c in t.children]
        assert numbers == sorted(numbers)


def test_star_values():
    assert star(1) == join(leaf())
    assert encode(star(6)) == 64
    for n in (2, 3, 10, 64):
        assert encode(star(n)) == 2**n
    with pytest.raises(DomainError):
        star(0)


def test_binary_caterpillar_values():
    assert binary_caterpillar(1) == leaf()
    assert binary_caterpillar(2) == join(leaf(), leaf())
    assert encode(binary_caterpillar(4)) == 86
    assert binary_caterpillar(5) == join(leaf(), join(leaf(), join(leaf(), join(leaf(), leaf()))))
    with pytest.raises(DomainError):
        binary_caterpillar(0)


def test_equality_is_isomorphism():
    # Equal Matula number iff equal tree.
    seen = {}
    for n in range(1, 500):
        t = decode(n)
        assert encode(t) == n
        for m, other in seen.items():
            assert (other == t) == (m == n)
        if n < 30:
            seen[n] = t
    # A tree equals no other kind of value, not even its own text.
    assert leaf() != "*"
    assert leaf().__eq__(1) is NotImplemented


def test_compare_matula_total_order():
    trees = [decode(n) for n in range(1, 40)]
    for i, a in enumerate(trees, start=1):
        for j, b in enumerate(trees, start=1):
            expected = (i > j) - (i < j)
            assert compare_matula(a, b) == expected


def _sign(x, y):
    return (x > y) - (x < y)


def test_compare_matula_agrees_with_encode_on_uncached_trees():
    # parse builds every node by join, and each node is valued once, when it
    # is built; each pair is compared on freshly parsed trees, whose values
    # come from no earlier comparison.
    numbers = list(range(1, 60)) + [360, 1234, 99991, 2**8 * 3**4 * 43, 10**6 + 3]
    texts = {n: serialize(decode(n)) for n in numbers}
    for x in numbers:
        for y in numbers:
            a, b = parse(texts[x]), parse(texts[y])
            assert compare_matula(a, b) == _sign(x, y), (x, y)


def test_compare_matula_past_the_prefix():
    # Branch numbers in [2 * 10^6, 10^7] have primes past the 2^24 prefix,
    # so these nodes are ordered by their bounds on ln M.
    rng = random.Random(4)
    branches = [decode(k) for k in rng.sample(range(2 * 10**6, 10**7), 4)]
    small = decode(1234)
    trees = [join(b) for b in branches]
    trees += [join(b, leaf()) for b in branches]
    trees += [join(branches[0], branches[1]), join(branches[2], small)]
    trees += [join(branches[3], *[leaf()] * 30)]
    trees += [star(30), decode(10**6 + 3)]
    got = {(i, j): compare_matula(a, b) for i, a in enumerate(trees) for j, b in enumerate(trees)}
    assert all(t._mnum is None for t in trees[:-2])  # no exact fallback ran
    bounds = [ln_bounds(t) for t in trees]
    numbers = [encode(t) for t in trees]
    for (i, j), c in got.items():
        assert c == _sign(numbers[i], numbers[j]), (i, j)
    for (lo, hi), n in zip(bounds, numbers):
        assert lo <= log(n) <= hi


def test_compare_matula_falls_back_to_exact_numbers():
    # p_1100000 and p_1100001 lie past the 2^24 prefix and the two trees'
    # bounds on ln M overlap, so only their exact numbers order them.
    a, b = join(decode(1_100_001)), join(decode(1_100_000))
    (alo, ahi), (blo, bhi) = ln_bounds(a), ln_bounds(b)
    assert a._mnum is None and b._mnum is None and alo <= bhi and blo <= ahi
    assert compare_matula(a, b) == 1
    assert (a._mnum, b._mnum) == (17144507, 17144489)  # p_1100001, p_1100000


def test_ln_bounds_contain_ln_m():
    # Against ln M to 40 digits: a bound not widened past the rounding of
    # float logs fails here, since the float log of M is never ln M itself.
    trees = [decode(n) for n in (2, 3, 42, 360, 10**6 + 3, 2**8 * 3**4 * 43)]
    trees += [star(30), join(decode(5 * 10**6), leaf())]
    with localcontext() as ctx:
        ctx.prec = 40
        for t in trees:
            lo, hi = ln_bounds(t)
            assert Decimal(lo) < Decimal(encode(t)).ln() < Decimal(hi)


def test_a_refused_exact_number_leaves_no_stale_bounds(ceiling):
    # M(C_10) = 2 p_300427382 is past the ceiling.  Its first bounds rest on
    # bounds for M(C_9); the refused exact attempt computes M(C_9) itself,
    # and the bounds read next rest on that, as for a tree never refused.
    ceiling(2**32)
    tree = binary_caterpillar(10)
    lo, hi = ln_bounds(tree)
    with pytest.raises(IndexOutOfRange):
        matula_number(tree)
    narrow = ln_bounds(tree)
    # binary_caterpillar values as it builds, so the tree never refused is
    # joined only once M(C_9) is known.
    c9 = binary_caterpillar(9)
    assert matula_number(c9) == 300427382
    assert ln_bounds(join(leaf(), c9)) == narrow
    assert narrow[1] - narrow[0] < (hi - lo) / 2


def test_a_tree_is_valued_when_it_is_built(ceiling):
    ceiling(2**32)
    c10 = binary_caterpillar(10)
    built = [join(leaf(), c10), parse("((*,*),*,(*,(*,*)))"), star(5), Tree((leaf(), c10))]
    for t in built:
        assert t._mnum is not None or t._lnm is not None, t


def test_a_read_never_revalues_a_tree(ceiling):
    # A refused exact attempt on C_10 narrows C_10's own bounds, but a tree
    # built on C_10 before it keeps the bounds it was born with, first read
    # or not: those of a twin read at once.
    ceiling(2**32)
    c10 = binary_caterpillar(10)
    t1 = join(leaf(), c10)
    born = ln_bounds(join(leaf(), c10))
    with pytest.raises(IndexOutOfRange):
        matula_number(c10)
    assert ln_bounds(t1) == born
    t2 = join(leaf(), c10)
    lo, hi = ln_bounds(t2)
    assert t2 == t1
    assert born[0] < lo and hi < born[1]


def test_a_node_works_its_branch_term_out_once(ceiling, monkeypatch):
    # The prime of C_10's number lies past the ceiling, so C_10 gives each
    # parent bounds on ln p_{M(C_10)}; they are worked out on its first use.
    ceiling(2**32)
    c10 = binary_caterpillar(10)
    spy = mock.Mock(wraps=_ln_prime_bounds)
    monkeypatch.setattr(trees, "_ln_prime_bounds", spy)
    parents = [join(c10, *[leaf()] * k) for k in range(1, 51)]
    assert spy.call_count == 1
    assert all(t._lnm is not None for t in parents)


def test_a_prime_past_the_prefix_is_kept_on_its_node(ceiling, monkeypatch):
    # p_8455786 = 150213691, the prime of the caterpillar C_8's number, lies
    # past the 2^24 prefix: once computed, C_8 gives it to every parent.
    ceiling(2**32)
    c8 = binary_caterpillar(8)
    counted = []
    count_past_prefix = primes.PrimeOracle._count_past_prefix

    def spy(oracle, x):
        counted.append(x)
        return count_past_prefix(oracle, x)

    monkeypatch.setattr(primes.PrimeOracle, "_count_past_prefix", spy)
    assert matula_number(join(c8, leaf())) == 2 * 150213691
    assert len(counted) == 1
    assert matula_number(join(c8, leaf(), leaf())) == 4 * 150213691
    assert len(counted) == 1


def test_shared_nodes_under_threads(ceiling):
    # Threads build parents over the same nodes, so they race on the nodes'
    # branch terms; among them C_8, whose prime lies past the prefix.  More
    # threads than cores and a short switch interval.
    ceiling(2**32)
    rng = random.Random(32)
    shared = [binary_caterpillar(8)] + [decode(n) for n in rng.sample(range(2, 10**6), 15)]
    reference = primes.PrimeOracle()
    prime = [reference.nth_prime(matula_number(t)) for t in shared]
    errors = []

    def worker(offset):
        try:
            for i in range(300):
                j, k = (i + offset) % len(shared), (7 * i + offset) % len(shared)
                parent = join(shared[j], leaf(), shared[k])
                assert matula_number(parent) == 2 * prime[j] * prime[k], (j, k)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]


def test_deep_trees_compare_without_recursion():
    def path(n):
        t = leaf()
        for _ in range(n - 1):
            t = join(t)
        return t

    a, b = path(3000), path(3000)
    assert a == b and a is not b
    assert compare_matula(a, b) == 0
    assert compare_matula(path(2999), a) == -1
    assert join(a, b).children == (a, a)


def test_ln_prime_bounds_contain_ln_p():
    sieve = MonolithicSieve(20_000_000)  # p_m for every m <= 1,270,607
    rng = random.Random(7)
    ms = [20, 21, 100, 39016, 39017, 39018, 1_077_871, 1_077_872, 1_270_607]
    ms += rng.sample(range(39017, 1_270_608), 40) + rng.sample(range(20, 39017), 10)
    for m in ms:
        x = log(sieve.nth(m))
        lo, hi = _ln_prime_bounds(log(m), log(m))
        assert lo * (1 - _WIDEN) <= x <= hi * (1 + _WIDEN), m
        if m > 20:  # an interval on ln m bounds ln p_m for every m inside it
            lo, hi = _ln_prime_bounds(log(m) - 1e-3, log(m) + 1e-3)
            assert lo <= x <= hi, m


def test_params_of_worked_example():
    p = params(decode(42))
    assert p.vertices == 7
    assert p.leaves == 4
    assert p.height == 2
    assert p.max_outdegree == 3


def test_star_wiener_formula():
    for n in range(1, 12):
        expected = n + 2 * (n * (n - 1) // 2)
        assert params(star(n)).wiener == expected


def test_params_against_bfs_oracle():
    from matula import TreeClass, enumerate_trees

    samples = [decode(n) for n in range(1, 200)]
    samples += [star(7), binary_caterpillar(6), join(star(3), star(2))]
    for cls in (TreeClass.TOPOLOGICAL, TreeClass.BINARY):
        for n in range(1, 9):
            samples.extend(enumerate_trees(cls, n))
    for t in samples:
        p = params(t)
        reference = bfs_params(t)
        assert p.vertices == reference["vertices"]
        assert p.leaves == reference["leaves"]
        assert p.height == reference["height"]
        assert p.max_outdegree == reference["max_outdegree"]
        assert p.outdegree_multiset == reference["outdegree_multiset"]
        assert p.wiener == reference["wiener"]


@settings(max_examples=60, deadline=None)
@given(small_trees())
def test_params_match_bfs_on_random_trees(t):
    p = params(t)
    reference = bfs_params(t)
    assert p.vertices == reference["vertices"]
    assert p.wiener == reference["wiener"]
    assert p.outdegree_multiset == reference["outdegree_multiset"]


def test_params_of_deep_trees_match_closed_forms():
    n = 5000
    p = params(binary_caterpillar(n))
    assert (p.vertices, p.leaves, p.height, p.max_outdegree) == (2 * n - 1, n, n - 1, 2)
    assert p.outdegree_multiset == (0,) * n + (2,) * (n - 1)
    p = params(deep_path(n))
    assert (p.vertices, p.leaves, p.height, p.max_outdegree) == (n + 1, 1, n, 1)
    # A path on V vertices has Wiener index C(V + 1, 3).
    assert p.wiener == n * (n + 1) * (n + 2) // 6


def test_repr_round_trips():
    assert repr(star(2)) == "Tree('(*,*)')"
