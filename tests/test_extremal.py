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
    extremal_tree,
    gi_max_tree,
    join,
    leaf,
    min_binary_numbers,
    min_binary_tree,
    params,
    star,
)

from oracles import exhaustive_extremum

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
        report = exhaustive_extremum(EnumSpec(TreeClass.ROOTED, "vertices", n), True, oracle)
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
    spec = EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 4)
    report = exhaustive_extremum(spec, True, oracle)
    assert report.optimum == 86
    assert report.witness == binary_caterpillar(4)
    assert report.examined == 5
    spec = EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 6)
    report = exhaustive_extremum(spec, True, oracle)
    assert report.optimum == 13766
    assert report.witness == binary_caterpillar(6)
    assert extremal_tree(TreeClass.TOPOLOGICAL, 6, True, oracle) == report.witness


def test_exhaustive_max_rooted_five(oracle):
    report = exhaustive_extremum(EnumSpec(TreeClass.ROOTED, "vertices", 5), True, oracle)
    assert report.optimum == 19
    assert report.examined == 9
    assert report.witness == gi_max_tree(5)
    assert extremal_tree(TreeClass.ROOTED, 5, True, oracle) == report.witness


def test_exhaustive_min_topological(oracle):
    report = exhaustive_extremum(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 6), False, oracle)
    assert report.optimum == 64
    assert report.witness == star(6)
    assert extremal_tree(TreeClass.TOPOLOGICAL, 6, False, oracle) == star(6)
    report = exhaustive_extremum(EnumSpec(TreeClass.TOPOLOGICAL, "leaves", 2), False, oracle)
    assert report.optimum == 4
    assert report.examined == 1


def test_exhaustive_min_rooted_reports_witness(oracle):
    # No assertion about the witness shape here, only internal consistency:
    # the true minimum is whatever the stream minimum is.
    spec = EnumSpec(TreeClass.ROOTED, "vertices", 5)
    report = exhaustive_extremum(spec, False, oracle)
    assert encode(report.witness, oracle) == report.optimum
    values = [encode(t, oracle) for t in __import__("matula").enumerate_trees(spec)]
    assert report.optimum == min(values)
    assert extremal_tree(TreeClass.ROOTED, 5, False, oracle) == report.witness


# (class, the largest size the acceptance suite enumerates) for each class.
_SCANNED = [(TreeClass.TOPOLOGICAL, 8), (TreeClass.ROOTED, 10), (TreeClass.BINARY, 8)]


@pytest.mark.parametrize("maximum", [True, False], ids=["max", "min"])
@pytest.mark.parametrize("tree_class, largest", _SCANNED, ids=["topological", "rooted", "binary"])
def test_extremal_tree_matches_the_scan(oracle, tree_class, largest, maximum):
    kind = "vertices" if tree_class is TreeClass.ROOTED else "leaves"
    for n in range(1, largest + 1):
        report = exhaustive_extremum(EnumSpec(tree_class, kind, n), maximum, oracle)
        assert extremal_tree(tree_class, n, maximum, oracle) == report.witness, n


@pytest.mark.parametrize(
    "tree_class, n, maximum, claim",
    [
        (TreeClass.TOPOLOGICAL, 100, True, binary_caterpillar),
        (TreeClass.TOPOLOGICAL, 100, False, star),
        (TreeClass.ROOTED, 100, True, gi_max_tree),
        (TreeClass.BINARY, 64, False, min_binary_tree),
        (TreeClass.BINARY, 94, False, min_binary_tree),
    ],
    ids=["caterpillar", "star", "gutman-ivic", "balanced-64", "balanced-94"],
)
def test_extremal_tree_certifies_the_claims_past_the_ceiling(tree_class, n, maximum, claim):
    # Exact numbers are infeasible here (but for the star's); every
    # comparison the claim needs is decided by bounds on ln M.
    assert extremal_tree(tree_class, n, maximum) == claim(n)


def test_bnb_small(oracle):
    witness = extremal_tree(TreeClass.BINARY, 2, False, oracle)
    assert encode(witness, oracle) == 4
    assert witness == join(leaf(), leaf())
    assert extremal_tree(TreeClass.BINARY, 1, False, oracle) == leaf()


def test_bnb_matches_sequence(oracle):
    values = min_binary_numbers(12, oracle)
    for k in range(1, 13):
        witness = extremal_tree(TreeClass.BINARY, k, False, oracle)
        assert encode(witness, oracle) == values[k - 1]
        assert witness == min_binary_tree(k)


def test_bnb_agrees_with_brute_force(oracle):
    for k in range(2, 9):
        brute = exhaustive_extremum(EnumSpec(TreeClass.BINARY, "leaves", k), False, oracle)
        witness = extremal_tree(TreeClass.BINARY, k, False, oracle)
        assert encode(witness, oracle) == brute.optimum
        assert witness == brute.witness


def test_bnb_eleven(oracle):
    witness = extremal_tree(TreeClass.BINARY, 11, False, oracle)
    assert encode(witness, oracle) == 23140153
    assert witness == min_binary_tree(11)


def test_bnb_degrades_without_failing():
    # Under a ceiling of 100 the certificate either returns the claimed tree
    # or raises IndexOutOfRange naming an index; it never returns another
    # tree.
    small = PrimeOracle(limit_value=100)
    outcomes = []
    for k in range(1, 13):
        try:
            witness = extremal_tree(TreeClass.BINARY, k, False, small)
        except IndexOutOfRange as exc:
            assert exc.index is not None
            outcomes.append("range")
        else:
            assert witness == min_binary_tree(k)
            outcomes.append("claim")
    assert outcomes[0] == "claim" and "range" in outcomes


def test_domain_errors(oracle):
    with pytest.raises(DomainError):
        caterpillar_numbers(0, oracle)
    with pytest.raises(DomainError):
        min_binary_numbers(0, oracle)
    with pytest.raises(DomainError):
        extremal_tree(TreeClass.BINARY, 0, False, oracle)
    with pytest.raises(DomainError):
        check_caterpillar_inequality(1, oracle)
