import gc
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    FactorOutOfRange,
    IndexOutOfRange,
    MatulaError,
    Tree,
    TreeClass,
    decode,
    encode,
    enumerate_trees,
    join,
    leaf,
    parse,
    serialize,
    star,
)
from matula import codec

from test_trees import small_trees


def test_worked_example_forward():
    assert encode(parse("((*),(*,*),*)")) == 42


def test_leaf_maps_to_one():
    assert encode(leaf()) == 1
    assert decode(1) == leaf()


def test_star_twenty():
    assert encode(star(20)) == 1048576


def test_decode_golden():
    assert decode(4) == join(leaf(), leaf())
    assert decode(42) == parse("((*),(*,*),*)")
    assert decode(2) == join(leaf())


def test_round_trip_numbers():
    # decode's trees carry their number, so encode their parsed copies.
    for n in range(1, 5000):
        assert encode(parse(serialize(decode(n)))) == n


def test_round_trip_trees():
    for cls, size in ((TreeClass.TOPOLOGICAL, 6), (TreeClass.BINARY, 7), (TreeClass.ROOTED, 7)):
        for t in enumerate_trees(cls, size):
            assert decode(encode(t)) == t


@settings(max_examples=80, deadline=None)
@given(small_trees())
def test_round_trip_random_trees(t):
    assert decode(encode(t)) == t


def test_parity_marks_leaf_child():
    # Even Matula number iff the root has a leaf child (factor 2).
    for n in range(2, 2000):
        t = decode(n)
        has_leaf_child = any(c == leaf() for c in t.children)
        assert (n % 2 == 0) == has_leaf_child


def test_encode_exceeds_branch_product():
    for t in (star(4), join(star(2), star(3)), decode(1234)):
        product = 1
        for c in t.children:
            product *= encode(c)
        assert encode(t) > product


def test_encode_memoizes_shared_subtrees():
    t = join(star(5), star(5), star(5))
    first = encode(t)
    assert encode(t) == first
    assert t.children[0]._mnum == 32


def test_decode_rejects_nonpositive():
    with pytest.raises(MatulaError):
        decode(0)
    with pytest.raises(MatulaError):
        decode(-3)


def test_encode_range_error_names_subtree(ceiling):
    small = ceiling(100)
    deep = star(200)  # needs p_1 only: fine even under a tiny ceiling
    assert encode(deep) == 2**200
    # Iterated-prime tower: encode climbs 1->2->3->5->11->31 and then needs
    # p_31 = 127, which breaches the ceiling; the error names index 31, the
    # Matula number of the smallest infeasible subtree.
    tower = leaf()
    for _ in range(6):
        tower = join(tower)
    with pytest.raises(IndexOutOfRange) as err:
        encode(tower)
    assert err.value.index == 31
    assert err.value.index > small.prime_count(small.limit_value)


def test_encode_of_a_deep_path_is_a_range_error():
    # The vertex paths have numbers 1, 2, 3, 5, 11, 31, ...; the 14-vertex
    # path's number 3657500101 is the first whose prime lies past 2^32, so
    # the 15-vertex path is the smallest infeasible subtree.  3000 levels
    # would exhaust Python's recursion limit if encode recursed.
    path = leaf()
    for _ in range(3000):
        path = join(path)
    with pytest.raises(IndexOutOfRange) as err:
        encode(path)
    assert err.value.index == 3657500101


def test_encode_reports_the_leftmost_infeasible_branch(ceiling):
    ceiling(100)
    path7 = leaf()
    for _ in range(6):
        path7 = join(path7)
    # Branches with numbers 127 = p_31 and 131 = p_32, neither encodable
    # under the ceiling; Tree() keeps both without a cached number.
    t = Tree((path7, join(star(5))))
    with pytest.raises(IndexOutOfRange) as err:
        encode(t)
    assert err.value.index == 31


def test_decode_range_error_names_the_cofactor(ceiling):
    ceiling(100)
    # 101 is prime and exceeds the ceiling, so 101^2 cannot be split.
    with pytest.raises(FactorOutOfRange) as err:
        decode(2 * 101**2)
    assert (err.value.value, err.value.cofactor) == (2 * 101**2, 101**2)


def test_decode_memo_keeps_range_errors_history_independent(ceiling):
    assert encode(decode(202)) == 202
    ceiling(100)
    # 202 = 2 * 101 and 101 is past the ceiling: the memoized tree from the
    # default ceiling may not answer.
    with pytest.raises(MatulaError):
        decode(202)


def test_each_oracle_owns_its_decode_memo(ceiling):
    first = ceiling()
    assert first._decode_memo == {}
    t = decode(42)
    assert first._decode_memo[42] is t
    # Replacing the default drops the old oracle, and its memo with it.
    dropped = weakref.ref(first)
    del first
    second = ceiling()
    gc.collect()
    assert dropped() is None
    assert second._decode_memo == {}
    assert decode(42) == t
    assert second._decode_memo[42] is not t


def test_decode_memo_keeps_its_entry_bound(ceiling, monkeypatch):
    monkeypatch.setattr(codec, "_DECODE_MEMO_SIZE", 16)
    oracle = ceiling()
    for n in range(1, 3000):
        t = decode(n)
        assert len(oracle._decode_memo) <= 16
        assert encode(t) == n
        assert encode(parse(serialize(t))) == n


def test_decode_memo_clears_while_other_threads_read(ceiling, monkeypatch):
    # More threads than cores, a short switch interval and a memo bound so
    # small that it is cleared while other threads read and fill it.
    numbers = list(range(1, 1500))
    expected = {n: serialize(decode(n)) for n in numbers}
    monkeypatch.setattr(codec, "_DECODE_MEMO_SIZE", 8)
    ceiling()
    errors = []

    def worker(offset):
        try:
            for i in range(len(numbers)):
                n = numbers[(i + offset) % len(numbers)]
                assert serialize(decode(n)) == expected[n], n
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k * 373,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
