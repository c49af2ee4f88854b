import pytest

from matula import (
    BadSize,
    DomainError,
    EnumSpec,
    IndexOutOfRange,
    PrimeOracle,
    TreeClass,
    binary_caterpillar,
    caterpillar_numbers,
    check_caterpillar_inequality,
    decode,
    encode,
    exhaustive_max,
    exhaustive_min,
    gi_max_tree,
    join,
    leaf,
    min_binary_bnb,
    min_binary_numbers,
    min_binary_tree,
    params,
    star,
)

L_VALUES = [1, 4, 14, 49, 301, 1589, 9761, 51529, 452411, 3041573, 23140153]


def test_caterpillar_numbers_golden(oracle):
    assert caterpillar_numbers(6, oracle) == [1, 4, 14, 86, 886, 13766]
    assert caterpillar_numbers(1, oracle) == [1]


def test_caterpillar_numbers_match_their_trees(oracle):
    q = caterpillar_numbers(7, oracle)
    for k, value in enumerate(q, start=1):
        assert encode(binary_caterpillar(k), oracle) == value


def test_caterpillar_numbers_out_of_range_reports_k():
    small = PrimeOracle(limit_value=10_000)
    # q_5 = 886 needs p_443 = 3083 < 10^4, but q_6 needs p_886 = 6883 and
    # q_7 needs p_6883 > 10^4.
    assert caterpillar_numbers(6, small)[-1] == 13766
    with pytest.raises(IndexOutOfRange) as err:
        caterpillar_numbers(7, small)
    assert err.value.k == 7


def test_min_binary_numbers_golden(oracle):
    assert min_binary_numbers(11, oracle) == L_VALUES
    assert min_binary_numbers(18, oracle)[-1] == 32078140605053


def test_min_binary_numbers_balanced_case(oracle):
    # Fourth value is the squared case of the recursion: p_{l_2}^2 = 7^2.
    assert min_binary_numbers(4, oracle)[-1] == 49


def test_min_binary_tree_shapes():
    assert min_binary_tree(1) == leaf()
    assert min_binary_tree(2) == join(leaf(), leaf())
    s6 = min_binary_tree(6)
    assert set(s6.children) == {min_binary_tree(2), min_binary_tree(4)}
    s13 = min_binary_tree(13)
    assert set(s13.children) == {min_binary_tree(5), min_binary_tree(8)}
    with pytest.raises(DomainError):
        min_binary_tree(0)


def test_min_binary_tree_builds_afresh_per_call():
    # No tree outlives the call that built it in a process-wide cache.
    first, second = min_binary_tree(13), min_binary_tree(13)
    assert first == second and first is not second
    assert min_binary_tree(4096) == join(min_binary_tree(2048), min_binary_tree(2048))


def test_min_binary_tree_encodes_to_sequence(oracle):
    values = min_binary_numbers(18, oracle)
    for k in (1, 2, 3, 6, 11, 13, 18):
        assert encode(min_binary_tree(k), oracle) == values[k - 1]


def test_gi_max_tree_values(oracle):
    assert encode(gi_max_tree(5), oracle) == 19
    assert encode(gi_max_tree(6), oracle) == 67
    assert params(gi_max_tree(9)).vertices == 9
    with pytest.raises(BadSize):
        gi_max_tree(4)


def test_gi_max_tree_is_brute_force_argmax(oracle):
    for n in (5, 6, 7):
        report = exhaustive_max(EnumSpec(TreeClass.ROOTED, "vertices", n), oracle)
        assert report.witness == gi_max_tree(n)
        assert report.optimum == encode(gi_max_tree(n), oracle)


def test_inequality_table_products(oracle):
    records = {
        (rec.k1, rec.k2): rec for rec in check_caterpillar_inequality(6, oracle)
    }
    table = {
        (1, 3): 86,
        (2, 2): 49,
        (1, 4): 886,
        (2, 3): 301,
        (1, 5): 13766,
        (2, 4): 3101,
        (3, 3): 1849,
    }
    for pair, product in table.items():
        assert records[pair].lhs == product
        assert records[pair].holds
    assert all(rec.holds for rec in records.values())
    # Pairs with k1 = 1 hold with equality; the others strictly.
    for rec in records.values():
        assert rec.equality == (rec.k1 == 1)


def test_inequality_lhs_matches_direct_primes(oracle):
    q = caterpillar_numbers(6, oracle)
    for rec in check_caterpillar_inequality(6, oracle):
        direct = oracle.nth_prime(q[rec.k1 - 1]) * oracle.nth_prime(q[rec.k2 - 1])
        assert rec.lhs == direct
        assert rec.rhs == q[rec.k1 + rec.k2 - 1]


def test_exhaustive_max_topological(oracle):
    report = exhaustive_max(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 4), oracle)
    assert report.optimum == 86
    assert report.witness == binary_caterpillar(4)
    assert report.examined == 5
    assert report.exhaustive
    report = exhaustive_max(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 6), oracle)
    assert report.optimum == 13766
    assert report.witness == binary_caterpillar(6)


def test_exhaustive_max_rooted_five(oracle):
    report = exhaustive_max(EnumSpec(TreeClass.ROOTED, "vertices", 5), oracle)
    assert report.optimum == 19
    assert report.examined == 9
    assert report.witness == gi_max_tree(5)


def test_exhaustive_min_topological(oracle):
    report = exhaustive_min(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 6), oracle)
    assert report.optimum == 64
    assert report.witness == star(6)
    report = exhaustive_min(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 2), oracle)
    assert report.optimum == 4
    assert report.examined == 1


def test_exhaustive_min_rooted_reports_witness(oracle):
    # No assertion about the witness shape here, only internal consistency:
    # the true minimum is whatever the stream minimum is.
    report = exhaustive_min(EnumSpec(TreeClass.ROOTED, "vertices", 5), oracle)
    assert encode(report.witness, oracle) == report.optimum
    values = [
        encode(t, oracle)
        for t in __import__("matula").enumerate_trees(
            EnumSpec(TreeClass.ROOTED, "vertices", 5)
        )
    ]
    assert report.optimum == min(values)


def test_bnb_small(oracle):
    report = min_binary_bnb(2, oracle)
    assert report.optimum == 4
    assert report.examined == 1
    assert report.exhaustive
    report = min_binary_bnb(1, oracle)
    assert report.optimum == 1
    assert report.witness == leaf()


def test_bnb_matches_sequence(oracle):
    values = min_binary_numbers(12, oracle)
    for k in range(1, 13):
        report = min_binary_bnb(k, oracle)
        assert report.exhaustive
        assert report.optimum == values[k - 1]
        assert report.witness == min_binary_tree(k)


def test_bnb_agrees_with_brute_force(oracle):
    for k in range(2, 9):
        brute = exhaustive_min(EnumSpec(TreeClass.BINARY, "leaves", k), oracle)
        report = min_binary_bnb(k, oracle)
        assert report.optimum == brute.optimum
        assert report.witness == brute.witness


def test_bnb_eleven(oracle):
    report = min_binary_bnb(11, oracle)
    assert report.optimum == 23140153
    assert report.exhaustive
    assert report.pruned > 0


def test_bnb_degrades_without_failing():
    small = PrimeOracle(limit_value=100)
    report = min_binary_bnb(6, small)
    assert not report.exhaustive
    # With primes only up to 100 the balanced levels above 4 are not all
    # evaluable; whatever optimum is reported must come from a real tree.
    assert report.optimum >= L_VALUES[5]


def test_domain_errors(oracle):
    with pytest.raises(DomainError):
        caterpillar_numbers(0, oracle)
    with pytest.raises(DomainError):
        min_binary_numbers(0, oracle)
    with pytest.raises(DomainError):
        min_binary_bnb(0, oracle)
    with pytest.raises(DomainError):
        check_caterpillar_inequality(1, oracle)
