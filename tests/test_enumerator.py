import gc

import pytest

from matula import (
    DomainError,
    SizeTooLarge,
    Tree,
    TreeClass,
    count_trees,
    encode,
    enumerate_trees,
    leaf,
    params,
    serialize,
)
from matula.enumerator import _ascending_partitions

from oracles import A000081, A000669, wedderburn_etherington


def test_topological_counts_match_reference():
    for n, expected in enumerate(A000669, start=1):
        assert count_trees(TreeClass.TOPOLOGICAL, n) == expected


def test_rooted_counts_match_reference():
    for n, expected in enumerate(A000081, start=1):
        assert count_trees(TreeClass.ROOTED, n) == expected


def test_binary_counts_match_wedderburn_etherington():
    for n in range(1, 13):
        assert count_trees(TreeClass.BINARY, n) == wedderburn_etherington(n)


def test_binary_count_far_past_the_cap():
    # The reference recursion is warmed in ascending n, so it never nests
    # deeper than one level.
    for n in range(1, 1501):
        wedderburn_etherington(n)
    assert count_trees(TreeClass.BINARY, 1500) == wedderburn_etherington(1500)


def test_ascending_partitions_in_lexicographic_order():
    # OEIS A000041: the number of partitions of n.
    for n, expected in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]):
        parts = list(_ascending_partitions(n))
        assert len(parts) == len(set(parts)) == expected
        assert parts == sorted(parts)
        assert all(sum(p) == n and list(p) == sorted(p) and min(p, default=1) >= 1 for p in parts)
    assert len(list(_ascending_partitions(40))) == 37338


def test_golden_counts():
    assert count_trees(TreeClass.TOPOLOGICAL, 5) == 12
    assert count_trees(TreeClass.TOPOLOGICAL, 2) == 1
    assert count_trees(TreeClass.BINARY, 6) == 6
    assert count_trees(TreeClass.BINARY, 2) == 1
    assert count_trees(TreeClass.ROOTED, 5) == 9
    # Computed by the earlier count over integer partitions, an independent
    # algorithm.
    assert count_trees(TreeClass.ROOTED, 45) == 2212039245722726118
    assert count_trees(TreeClass.TOPOLOGICAL, 45) == 4584028190211586682876


def test_stream_length_equals_count():
    for cls, max_size in (
        (TreeClass.TOPOLOGICAL, 8),
        (TreeClass.BINARY, 9),
        (TreeClass.ROOTED, 9),
    ):
        for n in range(1, max_size + 1):
            assert len(list(enumerate_trees(cls, n))) == count_trees(cls, n)


def test_size_one_is_the_single_vertex():
    for cls in TreeClass:
        assert list(enumerate_trees(cls, 1)) == [leaf()]


def test_no_duplicate_serializations():
    for cls, size in ((TreeClass.TOPOLOGICAL, 7), (TreeClass.ROOTED, 8)):
        texts = [serialize(t) for t in enumerate_trees(cls, size)]
        assert len(texts) == len(set(texts))


def test_stream_is_sorted_by_serialization():
    for cls, size in ((TreeClass.TOPOLOGICAL, 6), (TreeClass.BINARY, 8)):
        texts = [serialize(t) for t in enumerate_trees(cls, size)]
        assert texts == sorted(texts)


def test_class_and_size_soundness():
    for t in enumerate_trees(TreeClass.TOPOLOGICAL, 6):
        assert 1 not in params(t).outdegree_multiset
        assert sum(1 for _ in _leaves(t)) == 6
    for t in enumerate_trees(TreeClass.BINARY, 7):
        assert set(params(t).outdegree_multiset) == {0, 2}
    for t in enumerate_trees(TreeClass.ROOTED, 6):
        assert _vertex_count(t) == 6


def _leaves(t):
    if not t.children:
        yield t
    for c in t.children:
        yield from _leaves(c)


def _vertex_count(t):
    return 1 + sum(_vertex_count(c) for c in t.children)


def test_matula_numbers_pairwise_distinct():
    for cls, size in (
        (TreeClass.TOPOLOGICAL, 7),
        (TreeClass.BINARY, 8),
        (TreeClass.ROOTED, 8),
    ):
        numbers = [encode(t) for t in enumerate_trees(cls, size)]
        assert len(numbers) == len(set(numbers))


@pytest.mark.parametrize("leaves,expected", [(14, 2179), (16, 10905)])
def test_binary_past_the_prefix_needs_no_prime_past_the_ceiling(ceiling, leaves, expected):
    # Canonical order decides these by bounds on ln M; exact numbers would
    # need p_11893763, past the 2 * 10^8 ceiling.
    ceiling(2 * 10**8)
    texts = [serialize(t) for t in enumerate_trees(TreeClass.BINARY, leaves)]
    assert len(texts) == len(set(texts)) == expected == wedderburn_etherington(leaves)


def _live_trees():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Tree))


def test_pools_belong_to_one_enumeration():
    for cls, size in ((TreeClass.BINARY, 6), (TreeClass.ROOTED, 2), (TreeClass.TOPOLOGICAL, 5)):
        first = list(enumerate_trees(cls, size))
        second = list(enumerate_trees(cls, size))
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
    before = _live_trees()
    assert sum(1 for _ in enumerate_trees(TreeClass.BINARY, 10)) == 98
    assert _live_trees() == before


def test_deterministic_across_runs():
    first = [serialize(t) for t in enumerate_trees(TreeClass.TOPOLOGICAL, 7)]
    second = [serialize(t) for t in enumerate_trees(TreeClass.TOPOLOGICAL, 7)]
    assert first == second


def test_caps_guard():
    with pytest.raises(SizeTooLarge) as err:
        list(enumerate_trees(TreeClass.TOPOLOGICAL, 13))
    assert err.value.cap == 12
    # Counting holds no tree, so it has a bound of its own, past every
    # enumeration cap.
    assert count_trees(TreeClass.ROOTED, 15) == 87811
    for cls in TreeClass:
        with pytest.raises(SizeTooLarge) as err:
            count_trees(cls, 2001)
        assert (err.value.size, err.value.cap) == (2001, 2000)


def test_spec_validation():
    # The class alone fixes what a size counts; only the CLI names it, so
    # a flag that does not fit the class is refused there.
    with pytest.raises(DomainError):
        count_trees(TreeClass.BINARY, 0)
    with pytest.raises(DomainError):
        list(enumerate_trees(TreeClass.ROOTED, -1))
