from math import log

import pytest

from matula import extremal
from matula import (
    DomainError,
    IndexOutOfRange,
    TreeClass,
    binary_caterpillar,
    caterpillar_numbers,
    check_caterpillar_inequality,
    compare_matula,
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

from oracles import caterpillar_ln_intervals, exhaustive_extremum, knapsack_extremal

L_VALUES = [1, 4, 14, 49, 301, 1589, 9761, 51529, 452411, 3041573, 23140153]


def test_caterpillar_numbers_golden():
    assert caterpillar_numbers(6) == [1, 4, 14, 86, 886, 13766]
    assert caterpillar_numbers(1) == [1]


def test_caterpillar_numbers_match_their_trees():
    q = caterpillar_numbers(7)
    for k, value in enumerate(q, start=1):
        assert encode(binary_caterpillar(k)) == value


def test_caterpillar_numbers_out_of_range_reports_k(ceiling):
    ceiling(10_000)
    # q_5 = 886 needs p_443 = 3083 < 10^4, but q_6 needs p_886 = 6883 and
    # q_7 needs p_6883 > 10^4.
    assert caterpillar_numbers(6)[-1] == 13766
    with pytest.raises(IndexOutOfRange) as err:
        caterpillar_numbers(7)
    assert err.value.k == 7


def test_numbers_report_k_under_a_tiny_ceiling(ceiling):
    # Under 100, q_5 = 2 p_86 needs p_86 = 443 and l_6 = p_4 p_49 needs
    # p_49 = 227; each refusal names the first k whose number needs a prime
    # past the ceiling.
    ceiling(100)
    for numbers, k, index in ((caterpillar_numbers, 5, 86), (min_binary_numbers, 6, 49)):
        with pytest.raises(IndexOutOfRange) as err:
            numbers(extremal.SIZE_CAP)
        assert (err.value.k, err.value.index) == (k, index)


def test_min_binary_numbers_golden():
    assert min_binary_numbers(11) == L_VALUES
    assert min_binary_numbers(18)[-1] == 32078140605053


def test_min_binary_numbers_balanced_case():
    # Fourth value is the squared case of the recursion: p_{l_2}^2 = 7^2.
    assert min_binary_numbers(4)[-1] == 49


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


def test_min_binary_tree_encodes_to_sequence():
    values = min_binary_numbers(18)
    for k in (1, 2, 3, 6, 11, 13, 18):
        assert encode(min_binary_tree(k)) == values[k - 1]


@pytest.mark.parametrize("which, split", [("q", lambda k: (1, k - 1)), ("l", extremal._balanced_split)])
def test_each_family_is_one_node_shared_list(which, split):
    # Every branch is an earlier member itself, so 300 members are 300 nodes.
    # join, which orders the branches by comparing them, is a second route
    # to the proven order: M(T_k) increases with k, so a <= b is canonical.
    family = extremal._family(which, extremal.SIZE_CAP)
    assert len({id(tree) for tree in family}) == extremal.SIZE_CAP and family[0] is leaf()
    for k, tree in enumerate(family[1:], start=2):
        a, b = split(k)
        assert list(map(id, tree.children)) == [id(family[a - 1]), id(family[b - 1])]
        assert a <= b and tree == join(family[a - 1], family[b - 1]), k
        assert compare_matula(family[k - 2], tree) == -1, k
    constructor = binary_caterpillar if which == "q" else min_binary_tree
    assert constructor(extremal.SIZE_CAP) == family[-1]


def test_gi_max_tree_values():
    assert encode(gi_max_tree(5)) == 19
    assert encode(gi_max_tree(6)) == 67
    assert params(gi_max_tree(9)).vertices == 9
    with pytest.raises(DomainError, match="needs n >= 5 vertices, got 4"):
        gi_max_tree(4)


def test_gi_max_tree_is_brute_force_argmax():
    for n in (5, 6, 7):
        report = exhaustive_extremum(TreeClass.ROOTED, n, True)
        assert report.witness == gi_max_tree(n)
        assert report.optimum == encode(gi_max_tree(n))


def test_inequality_table_products():
    records = {
        (rec.k1, rec.k2): rec for rec in check_caterpillar_inequality(6)
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
        assert encode(records[pair].lhs) == product
        assert records[pair].holds
    assert all(rec.holds for rec in records.values())
    # Pairs with k1 = 1 hold with equality; the others strictly.
    for rec in records.values():
        assert rec.equality == (rec.k1 == 1)


def test_inequality_lhs_matches_direct_primes(oracle):
    q = caterpillar_numbers(6)
    for rec in check_caterpillar_inequality(6):
        direct = oracle.nth_prime(q[rec.k1 - 1]) * oracle.nth_prime(q[rec.k2 - 1])
        assert encode(rec.lhs) == direct
        assert encode(rec.rhs) == q[rec.k1 + rec.k2 - 1]


def test_inequality_sides_are_joins_of_caterpillars():
    # q increases, so the left side (C_k1, C_k2), k1 <= k2, is canonical as
    # built; join orders the same branches by comparing them.
    caterpillars = [None, *extremal._family("q", 64)]
    for rec in check_caterpillar_inequality(64):
        assert rec.lhs == join(caterpillars[rec.k1], caterpillars[rec.k2]), rec[:2]
        assert rec.rhs == caterpillars[rec.k1 + rec.k2]


def test_inequality_agrees_with_the_oracle_intervals():
    # p_{q_k} = q_{k+1} / 2, so the oracle's intervals on ln q bound both
    # sides; for k1 >= 2 they decide every instance up to the cap, and the
    # same way as the tree comparisons.
    q = caterpillar_ln_intervals(extremal.SIZE_CAP)
    least = float("inf")
    for rec in check_caterpillar_inequality(extremal.SIZE_CAP):
        if rec.k1 == 1:
            continue
        lhs_lo = q[rec.k1 + 1][0] + q[rec.k2 + 1][0] - 2 * log(2)
        lhs_hi = q[rec.k1 + 1][1] + q[rec.k2 + 1][1] - 2 * log(2)
        rhs_lo, rhs_hi = q[rec.k1 + rec.k2]
        assert (lhs_hi < rhs_lo, lhs_lo > rhs_hi) == (rec.holds, not rec.holds), rec[:2]
        assert not rec.equality
        least = min(least, rhs_lo - lhs_hi)
    assert least > 0.5


def test_exhaustive_max_topological():
    report = exhaustive_extremum(TreeClass.TOPOLOGICAL, 4, True)
    assert report.optimum == 86
    assert report.witness == binary_caterpillar(4)
    assert report.examined == 5
    report = exhaustive_extremum(TreeClass.TOPOLOGICAL, 6, True)
    assert report.optimum == 13766
    assert report.witness == binary_caterpillar(6)
    assert extremal_tree(TreeClass.TOPOLOGICAL, 6, True) == report.witness


def test_exhaustive_max_rooted_five():
    report = exhaustive_extremum(TreeClass.ROOTED, 5, True)
    assert report.optimum == 19
    assert report.examined == 9
    assert report.witness == gi_max_tree(5)
    assert extremal_tree(TreeClass.ROOTED, 5, True) == report.witness


def test_exhaustive_min_topological():
    report = exhaustive_extremum(TreeClass.TOPOLOGICAL, 6, False)
    assert report.optimum == 64
    assert report.witness == star(6)
    assert extremal_tree(TreeClass.TOPOLOGICAL, 6, False) == star(6)
    report = exhaustive_extremum(TreeClass.TOPOLOGICAL, 2, False)
    assert report.optimum == 4
    assert report.examined == 1


def test_exhaustive_min_rooted_reports_witness():
    # No assertion about the witness shape here, only internal consistency:
    # the true minimum is whatever the stream minimum is.
    report = exhaustive_extremum(TreeClass.ROOTED, 5, False)
    assert encode(report.witness) == report.optimum
    values = [encode(t) for t in __import__("matula").enumerate_trees(TreeClass.ROOTED, 5)]
    assert report.optimum == min(values)
    assert extremal_tree(TreeClass.ROOTED, 5, False) == report.witness


# (class, the largest size the acceptance suite enumerates) for each class.
_SCANNED = [(TreeClass.TOPOLOGICAL, 8), (TreeClass.ROOTED, 10), (TreeClass.BINARY, 8)]


@pytest.mark.parametrize("maximum", [True, False], ids=["max", "min"])
@pytest.mark.parametrize("tree_class, largest", _SCANNED, ids=["topological", "rooted", "binary"])
def test_extremal_tree_matches_the_scan(tree_class, largest, maximum):
    for n in range(1, largest + 1):
        report = exhaustive_extremum(tree_class, n, maximum)
        assert extremal_tree(tree_class, n, maximum) == report.witness, n


_PAIRS = [(c, m) for c in TreeClass for m in (True, False)]
_PAIR_IDS = [f"{c.value}-{'max' if m else 'min'}" for c, m in _PAIRS]


@pytest.mark.parametrize("tree_class, maximum", _PAIRS, ids=_PAIR_IDS)
def test_extremal_tree_matches_the_knapsack(tree_class, maximum):
    for n in [*range(1, 41), 100]:
        expected = knapsack_extremal(tree_class, n, maximum)
        assert extremal_tree(tree_class, n, maximum) == expected, n


@pytest.mark.parametrize("tree_class, maximum", _PAIRS, ids=_PAIR_IDS)
def test_extremal_tree_matches_the_knapsack_under_a_low_ceiling(ceiling, tree_class, maximum):
    # Past the ceiling both compare by bounds on ln M, and exact numbers
    # decide overlapping bounds where they can.  Wherever the knapsack
    # answers, the single scan answers the same.
    ceiling(5000)
    answered = 0
    for n in range(1, 41):
        try:
            expected = knapsack_extremal(tree_class, n, maximum)
        except IndexOutOfRange:
            continue
        assert extremal_tree(tree_class, n, maximum) == expected, n
        answered += 1
    assert answered > 1


@pytest.mark.parametrize(
    "tree_class, maximum, candidates",
    [
        (TreeClass.TOPOLOGICAL, False, 50 * 49 // 2),
        (TreeClass.ROOTED, True, 50 * 49 // 2),
        (TreeClass.ROOTED, False, 50 * 49 // 2),
        (TreeClass.TOPOLOGICAL, True, sum(s // 2 for s in range(2, 51))),
        (TreeClass.BINARY, True, sum(s // 2 for s in range(2, 51))),
        (TreeClass.BINARY, False, sum(s // 2 for s in range(2, 51))),
    ],
    ids=["topological-min", "rooted-max", "rooted-min", "topological-max", "binary-max",
         "binary-min"],
)
def test_extremal_tree_builds_one_candidate_per_branch_size(
    monkeypatch, tree_class, maximum, candidates
):
    # One scan per level: every candidate is one join, n(n - 1)/2 of them
    # when any branch size may come first and one per split otherwise.
    built = []

    def counted(*branches):
        built.append(len(branches))
        return join(*branches)

    monkeypatch.setattr(extremal, "join", counted)
    extremal_tree(tree_class, 50, maximum)
    assert len(built) == candidates


@pytest.mark.parametrize(
    "tree_class, n, maximum, claim",
    [
        (TreeClass.TOPOLOGICAL, 100, True, binary_caterpillar),
        (TreeClass.TOPOLOGICAL, 100, False, star),
        (TreeClass.ROOTED, 100, True, gi_max_tree),
        (TreeClass.BINARY, 64, False, min_binary_tree),
        (TreeClass.BINARY, 94, False, min_binary_tree),
        (TreeClass.BINARY, 95, False, min_binary_tree),
        (TreeClass.BINARY, 300, False, min_binary_tree),
    ],
    ids=["caterpillar", "star", "gutman-ivic", "balanced-64", "balanced-94",
         "balanced-95", "balanced-300"],
)
def test_extremal_tree_certifies_the_claims_past_the_ceiling(tree_class, n, maximum, claim):
    # Exact numbers are infeasible here (but for the star's); every
    # comparison the claim needs is decided by bounds on ln M.
    assert extremal_tree(tree_class, n, maximum) == claim(n)


def test_bnb_small():
    witness = extremal_tree(TreeClass.BINARY, 2, False)
    assert encode(witness) == 4
    assert witness == join(leaf(), leaf())
    assert extremal_tree(TreeClass.BINARY, 1, False) == leaf()


def test_bnb_matches_sequence():
    values = min_binary_numbers(12)
    for k in range(1, 13):
        witness = extremal_tree(TreeClass.BINARY, k, False)
        assert encode(witness) == values[k - 1]
        assert witness == min_binary_tree(k)


def test_bnb_agrees_with_brute_force():
    for k in range(2, 9):
        brute = exhaustive_extremum(TreeClass.BINARY, k, False)
        witness = extremal_tree(TreeClass.BINARY, k, False)
        assert encode(witness) == brute.optimum
        assert witness == brute.witness


def test_bnb_eleven():
    witness = extremal_tree(TreeClass.BINARY, 11, False)
    assert encode(witness) == 23140153
    assert witness == min_binary_tree(11)


def test_bnb_degrades_without_failing(ceiling):
    # Under a ceiling of 100 the certificate either returns the claimed tree
    # or raises IndexOutOfRange naming an index; it never returns another
    # tree.
    ceiling(100)
    outcomes = []
    for k in range(1, 13):
        try:
            witness = extremal_tree(TreeClass.BINARY, k, False)
        except IndexOutOfRange as exc:
            assert exc.index is not None
            outcomes.append("range")
        else:
            assert witness == min_binary_tree(k)
            outcomes.append("claim")
    assert outcomes[0] == "claim" and "range" in outcomes


def test_domain_errors():
    with pytest.raises(DomainError):
        caterpillar_numbers(0)
    with pytest.raises(DomainError):
        min_binary_numbers(0)
    with pytest.raises(DomainError):
        extremal_tree(TreeClass.BINARY, 0, False)
    with pytest.raises(DomainError):
        check_caterpillar_inequality(1)
