"""Acceptance suite: one test per published claim, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them stream) and asserting its stated runtime budget.
"""

import math
import time

from matula import (
    IndexOutOfRange,
    TreeClass,
    apply_merge,
    binary_caterpillar,
    caterpillar_numbers,
    check_caterpillar_inequality,
    decode,
    encode,
    enumerate_trees,
    extremal_tree,
    gi_max_tree,
    min_binary_numbers,
    min_binary_tree,
    parse,
    primes,
    star,
)

from oracles import A000669, MonolithicSieve, exhaustive_extremum


def _report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.3f}s){suffix}", flush=True)


def test_c01_worked_example():
    tree = parse("((*),(*,*),*)")
    start = time.perf_counter()
    value = encode(tree)
    elapsed = time.perf_counter() - start
    ok = value == 42 and elapsed < 1e-3
    _report("C1 worked-example", ok, elapsed, f"encode={value}")
    assert value == 42
    assert elapsed < 1e-3


def test_c02_star_is_minimum():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        report = exhaustive_extremum(TreeClass.TOPOLOGICAL, n, False)
        ok = ok and report.optimum == 2**n and report.witness == star(n)
    for n in range(2, 201):
        ok = ok and encode(star(n)) == 2**n
    elapsed = time.perf_counter() - start
    _report("C2 star-minimum", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10


def test_c03_caterpillar_is_maximum():
    start = time.perf_counter()
    q = caterpillar_numbers(8)
    ok = True
    for n in range(2, 9):
        report = exhaustive_extremum(TreeClass.TOPOLOGICAL, n, True)
        ok = ok and report.optimum == q[n - 1]
        ok = ok and report.witness == binary_caterpillar(n)
        ok = ok and report.examined == A000669[n - 1]
    elapsed = time.perf_counter() - start
    _report("C3 caterpillar-maximum", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


def test_c04_q_sequence_dual_path(ceiling):
    start = time.perf_counter()
    expected_prefix = [1, 4, 14, 86, 886, 13766]

    # Path one: a fresh oracle's segmented sieve.
    ceiling()
    reached = []
    for k in range(1, 10):
        try:
            reached = caterpillar_numbers(k)
        except IndexOutOfRange:
            break
    k_reached = len(reached)
    ok = reached[:6] == expected_prefix and k_reached >= 8

    # Path two: an independent monolithic byte sieve, rebuilt from scratch.
    markers = MonolithicSieve(160_000_000)
    independent = [1]
    for _ in range(k_reached - 1):
        independent.append(2 * markers.nth(independent[-1]))
    ok = ok and independent == reached

    elapsed = time.perf_counter() - start
    _report(
        "C4 q-sequence",
        ok and elapsed < 300,
        elapsed,
        f"k_reached={k_reached} q_k={reached[-1]}",
    )
    assert reached[:6] == expected_prefix
    assert k_reached >= 8
    assert independent == reached
    assert elapsed < 300


def test_c05_product_inequality():
    start = time.perf_counter()
    records = {(r.k1, r.k2): r for r in check_caterpillar_inequality(9)}
    table = {
        (1, 3): 86,
        (2, 2): 49,
        (1, 4): 886,
        (2, 3): 301,
        (1, 5): 13766,
        (2, 4): 3101,
        (3, 3): 1849,
    }
    ok = all(encode(records[pair].lhs) == value for pair, value in table.items())
    ok = ok and all(r.holds for r in records.values())
    ok = ok and max(k1 + k2 for k1, k2 in records) == 9
    elapsed = time.perf_counter() - start
    _report("C5 product-inequality", ok and elapsed < 300, elapsed)
    assert ok
    assert elapsed < 300


def test_c06_l_sequence():
    start = time.perf_counter()
    values = min_binary_numbers(18)
    expected = [1, 4, 14, 49, 301, 1589, 9761, 51529, 452411, 3041573, 23140153]
    ok = values[:11] == expected and values[17] == 32078140605053
    elapsed = time.perf_counter() - start
    _report("C6 l-sequence", ok and elapsed < 60, elapsed, f"l_18={values[17]}")
    assert values[:11] == expected
    assert values[17] == 32078140605053
    assert elapsed < 60


def test_c07_min_binary_certified():
    start = time.perf_counter()
    values = min_binary_numbers(12)
    ok = True
    for k in range(1, 13):
        witness = extremal_tree(TreeClass.BINARY, k, False)
        ok = ok and witness == min_binary_tree(k)
        ok = ok and encode(witness) == values[k - 1]
    elapsed = time.perf_counter() - start
    _report("C7 min-binary-certified", ok and elapsed < 600, elapsed)
    assert ok
    assert elapsed < 600


def test_c08_prime_bounds(oracle):
    def bounds(ms):
        """Rows 0 and 1 of the proven bounds at each m: Robin's lower bound
        on p_m and Rosser and Schoenfeld's upper one, valid from m = 20."""
        ln_ms = list(map(math.log, ms))
        ln_ln_ms = list(map(math.log, ln_ms))
        return [[m * f for m, f in zip(ms, primes._factors(row, ln_ms, ln_ln_ms))]
                for row in primes._BOUNDS[:2]]

    start = time.perf_counter()
    table = list(oracle.primes_up_to_index(10**6))
    ms = range(2, 10**6 + 1)
    lows, highs = bounds(ms)
    ok = all(low <= table[m - 1] for m, low in zip(ms, lows))
    ok = ok and all(table[m - 1] <= high for m, high in zip(ms, highs) if m >= 20)
    big = 32078140605053
    (lower,), (upper,) = bounds([big])
    ok = ok and math.isclose(lower, 1.07555e15, rel_tol=1e-4)
    ok = ok and math.isclose(upper, 1.09182e15, rel_tol=1e-4)
    elapsed = time.perf_counter() - start
    _report(
        "C8 prime-bounds",
        ok and elapsed < 30,
        elapsed,
        f"interval=[{lower:.5e}, {upper:.5e}]",
    )
    assert ok
    assert elapsed < 30


def test_c09_gi_maximum_unique():
    start = time.perf_counter()
    ok = True
    for n in range(5, 11):
        values = sorted(encode(t) for t in enumerate_trees(TreeClass.ROOTED, n))
        report = exhaustive_extremum(TreeClass.ROOTED, n, True)
        ok = ok and report.witness == gi_max_tree(n)
        ok = ok and report.optimum == values[-1]
        ok = ok and values[-1] > values[-2]  # strictly unique maximum
    elapsed = time.perf_counter() - start
    _report("C9 gi-maximum", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


def test_c10_bijection_suite():
    start = time.perf_counter()
    ok = True
    for cls in (TreeClass.TOPOLOGICAL, TreeClass.BINARY):
        for n in range(1, 9):
            numbers = []
            for t in enumerate_trees(cls, n):
                m = encode(t)
                numbers.append(m)
                if decode(m) != t:
                    ok = False
            if len(numbers) != len(set(numbers)):
                ok = False
    for n in range(1, 10**5 + 1):
        if encode(decode(n)) != n:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report("C10 bijection", ok and elapsed < 120, elapsed)
    assert ok
    assert elapsed < 120


def test_c11_merge_transformation():
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in range(3, 8):
        for t in enumerate_trees(TreeClass.TOPOLOGICAL, n):
            if len(t.children) < 3:
                continue
            merged = apply_merge(t)
            checked += 1
            before = encode(t)
            after = encode(merged)
            leaves = lambda x: 1 if not x.children else sum(map(leaves, x.children))
            if after <= before or leaves(merged) != leaves(t):
                ok = False
    elapsed = time.perf_counter() - start
    _report("C11 merge-transformation", ok and elapsed < 30, elapsed, f"checked={checked}")
    assert ok
    assert checked > 0
    assert elapsed < 30
