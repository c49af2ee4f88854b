import math
import random
import subprocess
import sys
import threading
from bisect import bisect_right
from itertools import compress, count, islice
from math import isqrt

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from matula import (
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    MatulaError,
    NotPrime,
    PrimeOracle,
    ValueOutOfRange,
    decode,
    is_prime_certified,
)
from matula import _sieve_py, primes
from matula.errors import brief

from oracles import MonolithicSieve, lucy_count, naive_nth_prime


def test_nth_prime_golden(oracle):
    assert oracle.nth_prime(1) == 2
    assert oracle.nth_prime(2) == 3
    assert oracle.nth_prime(3) == 5
    assert oracle.nth_prime(14) == 43
    assert oracle.nth_prime(86) == 443
    assert oracle.nth_prime(886) == 6883
    for m in (0, -1):
        with pytest.raises(DomainError, match=f"prime indices start at 1, got {m}"):
            oracle.nth_prime(m)


def test_nth_prime_matches_naive_oracle(oracle):
    for m in range(1, 60):
        assert oracle.nth_prime(m) == naive_nth_prime(m)


def test_prime_index_golden(oracle):
    assert oracle.prime_index(2) == 1
    assert oracle.prime_index(43) == 14
    assert oracle.prime_index(6883) == 886


def test_prime_index_rejects_composites(oracle):
    with pytest.raises(NotPrime):
        oracle.prime_index(4)
    with pytest.raises(NotPrime):
        oracle.prime_index(1)
    with pytest.raises(NotPrime):
        oracle.prime_index(0)


def test_round_trip_up_to_10000(oracle):
    for m in range(1, 10_001):
        assert oracle.prime_index(oracle.nth_prime(m)) == m


def test_nth_prime_exceeds_its_index(oracle):
    for m in list(range(1, 2000)) + [10**5, 10**6]:
        assert oracle.nth_prime(m) > m


def test_prime_count(oracle):
    assert oracle.prime_count(1) == 0
    assert oracle.prime_count(2) == 1
    assert oracle.prime_count(100) == 25
    assert oracle.prime_count(10**6) == 78498


def test_factorize_golden(oracle):
    assert oracle.factorize(42) == [(2, 1), (3, 1), (7, 1)]
    assert oracle.factorize(2**10) == [(2, 10)]
    # 227 is prime by trial division and 227 * 227 recomposes exactly.
    assert all(227 % d for d in range(2, 16))
    assert 227 * 227 == 51529
    assert oracle.factorize(51529) == [(227, 2)]


def test_factorize_recomposes(oracle):
    for n in range(2, 20_000):
        product = 1
        previous = 0
        for p, e in oracle.factorize(n):
            assert p > previous
            previous = p
            product *= p**e
        assert product == n


def test_factorize_of_one(oracle):
    assert oracle.factorize(1) == []
    with pytest.raises(DomainError, match="factorize needs n >= 1, got 0"):
        oracle.factorize(0)


def test_factorize_certifies_large_prime_cofactor():
    small = PrimeOracle(limit_value=1000)
    # 1009 is prime but beyond the ceiling; certification still succeeds.
    assert small.factorize(1009) == [(1009, 1)]
    assert small.factorize(2 * 1009) == [(2, 1), (1009, 1)]


def test_factorize_error_when_uncertifiable():
    small = PrimeOracle(limit_value=1000)
    composite = 1009 * 1013
    with pytest.raises(FactorOutOfRange) as err:
        small.factorize(composite)
    assert err.value.cofactor == composite


# -- factorize's trial runs ----------------------------------------------------


@pytest.fixture(scope="module")
def sieve_2_17():
    return MonolithicSieve(2**17)


def _factorize_by_trial_division(n, sieve):
    """[(p, e), ...] for n < 2^34: divide by every prime p of ``sieve``
    while p^2 <= the cofactor; what is left over 1 is prime."""
    out = []
    for p in compress(count(), sieve.flags):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _trial_divisors(oracle):
    oracle.factorize(1)  # the runs are built on the first call
    return [p for *_, run in oracle._runs for p in run]


def test_factorize_every_n_below_2_to_the_17(sieve_2_17):
    oracle = PrimeOracle()
    for n in range(1, 2**17):
        assert oracle.factorize(n) == _factorize_by_trial_division(n, sieve_2_17), n


def test_factorize_at_every_run_edge(oracle, sieve_2_17):
    divisors = _trial_divisors(oracle)
    assert divisors == list(compress(range(2**16 + 1), sieve_2_17.flags))
    runs = oracle._runs
    sizes = [primes._RUN] * (len(runs) - 1) + [len(divisors) % primes._RUN]
    assert [len(run) for *_, run in runs] == sizes
    following = [run[0] for *_, run in runs[1:]] + [65537]  # the first prime past 2^16
    for (product, first_square, last_square, run), after in zip(runs, following):
        first, last = run[0], run[-1]
        assert (product, first_square, last_square) == (math.prod(run), first**2, last**2)
        assert oracle.factorize(first * last) == [(first, 1), (last, 1)]
        assert oracle.factorize(last**2) == [(last, 2)]
        assert oracle.factorize(last * after) == [(last, 1), (after, 1)]
        # A prime below the last square is proven by the run's gcd alone.
        q = last**2 - 2
        while not is_prime_certified(q):
            q -= 2
        assert oracle.factorize(q) == [(q, 1)]


def test_factorize_around_the_last_trial_divisor(oracle):
    # 65521 is the last prime below 2^16 and 65537 the first past it.
    assert oracle.factorize(65521**2) == [(65521, 2)]
    assert oracle.factorize(65521 * 65537) == [(65521, 1), (65537, 1)]
    assert oracle.factorize(2**20 * 65521) == [(2, 20), (65521, 1)]


def test_factorize_matches_sympy_up_to_2_to_the_64(oracle):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(27)
    ns = [rng.randrange(1, 2 ** rng.randrange(1, 65)) for _ in range(300)]
    ns += [sympy.randprime(2**31, 2**32) * sympy.randprime(2**31, 2**32) for _ in range(5)]
    for n in ns:
        assert oracle.factorize(n) == sorted(sympy.factorint(n).items()), n


# Short last runs: 20 primes up to the ceiling 71, 168 = 5 * 32 + 8 up to
# 1000, and the 18 primes up to a bootstrap of 2^6 under a 2^12 prefix, as in
# test_counts_past_a_small_prefix.
@pytest.mark.parametrize(
    "ceiling, cap, bootstrap", [(71, 2**24, 2**16), (1000, 2**24, 2**16), (2**24, 2**12, 2**6)]
)
def test_factorize_under_a_short_last_run(sieve_2_17, monkeypatch, ceiling, cap, bootstrap):
    monkeypatch.setattr(primes, "_PREFIX_CAP", cap)
    monkeypatch.setattr(primes, "_BOOTSTRAP", bootstrap)
    oracle = PrimeOracle(limit_value=ceiling)
    divisors = _trial_divisors(oracle)
    assert divisors == list(compress(range(min(ceiling, bootstrap) + 1), sieve_2_17.flags))
    assert len(oracle._runs[-1][-1]) == len(divisors) % primes._RUN
    for n in range(1, 2**17):
        expected = _factorize_by_trial_division(n, sieve_2_17)
        above = [p for p, e in expected if p > ceiling for _ in range(e)]
        if len(above) > 1:
            with pytest.raises(FactorOutOfRange) as err:
                oracle.factorize(n)
            assert (err.value.value, err.value.cofactor) == (n, math.prod(above)), n
        else:
            assert oracle.factorize(n) == expected, n


def test_factorize_takes_no_lock():
    # factorize reads nothing the lock guards, so it answers while another
    # thread holds the lock (a long rho call no longer blocks other queries).
    oracle = PrimeOracle()
    answers = []
    worker = threading.Thread(
        target=lambda: answers.extend(oracle.factorize(n) for n in (4_294_049_777, 10**15 + 37))
    )
    with oracle._lock:
        worker.start()
        worker.join(timeout=10)
        finished = not worker.is_alive()
    worker.join(timeout=60)
    assert finished
    assert answers == [[(65521, 1), (65537, 1)], [(10**15 + 37, 1)]]


def test_is_prime_certified_past_the_witness_bound():
    # Past 3.3 * 10^24 a failed witness still proves a number composite; one
    # that passes them all cannot be certified, and past the square of that
    # bound no witness runs.
    assert not is_prime_certified(65537**6)
    assert not is_prime_certified((2**89 - 1) * (2**61 - 1))
    for n in (2**89 - 1, 65537**12):
        with pytest.raises(FactorOutOfRange) as err:
            is_prime_certified(n)
        assert err.value.value == n


def test_is_prime_certified_against_sieve():
    sieve = MonolithicSieve(5000)
    for n in range(5000):
        assert is_prime_certified(n) == bool(sieve.flags[n])
    assert is_prime_certified(2**61 - 1)
    assert not is_prime_certified(2**67 - 1)


def _bound(row, m):
    """The bound on p_m of ``_BOUNDS[row]``."""
    return m * primes._factors(primes._BOUNDS[row], [math.log(m)], [math.log(math.log(m))])[0]


def test_robin_lower_values():
    # Row 0 is Robin's lower bound, row 1 Rosser and Schoenfeld's upper one.
    assert math.isclose(_bound(0, 2), -1.3612572800434, rel_tol=1e-10)
    big = 32078140605053
    assert math.isclose(_bound(0, big), 1.075552e15, rel_tol=1e-4)
    assert math.isclose(_bound(1, big), 1.091824e15, rel_tol=1e-4)
    assert _bound(1, 20) >= 71  # p_20 = 71


def test_bounds_bracket_primes(oracle):
    for m in range(2, 50_000):
        p = oracle.nth_prime(m)
        assert _bound(0, m) <= p
        if m >= 20:
            assert p <= _bound(1, m)


def test_index_out_of_range_carries_index():
    small = PrimeOracle(limit_value=100)
    assert small.nth_prime(25) == 97
    with pytest.raises(IndexOutOfRange) as err:
        small.nth_prime(26)
    assert err.value.index == 26
    assert err.value.limit_value == 100


def test_value_out_of_range():
    small = PrimeOracle(limit_value=100)
    with pytest.raises(ValueOutOfRange):
        small.prime_index(101)
    with pytest.raises(ValueOutOfRange):
        small.prime_count(101)


def test_the_environment_sets_no_ceiling(monkeypatch):
    monkeypatch.setenv("MATULA_PRIME_BOUND", "5000")
    assert PrimeOracle().limit_value == 2**32


def test_constructor_validation():
    with pytest.raises(ValueError):
        PrimeOracle(limit_value=1)
    with pytest.raises(ValueError):
        PrimeOracle(limit_value=2**60)
    # The ceiling is at most the square of the sieved prefix's end.
    with pytest.raises(ValueError) as err:
        PrimeOracle(limit_value=2**48 + 1)
    assert str(err.value) == f"limit_value must be in [71, {2**48}], got {2**48 + 1}"
    assert PrimeOracle(limit_value=2**48).limit_value == 2**48
    with pytest.raises(ValueError) as err:
        PrimeOracle(limit_value=70)
    assert str(err.value) == f"limit_value must be in [71, {2**48}], got 70"


def test_the_least_ceiling_is_the_least_prime_with_an_upper_bound():
    least = min(row.least for row in primes._BOUNDS if row.side == "upper")
    assert primes._LEAST_CEILING == naive_nth_prime(least)
    # Its first sieve already holds p_1 .. p_20, so no prime is looked up
    # by bounds below m = 20, and the next index is refused by bounds.
    oracle = PrimeOracle(limit_value=primes._LEAST_CEILING)
    assert repr(oracle) == f"PrimeOracle(limit_value=71, sieved_to=72, cached={least})"
    assert oracle.nth_prime(least) == 71
    with pytest.raises(IndexOutOfRange) as err:
        oracle.nth_prime(least + 1)
    assert err.value.index == least + 1


def test_segment_matches_monolithic_sieve():
    base = _sieve_py.simple_sieve(1000)
    reference = MonolithicSieve(500_000)
    expected = [p for p in range(65537, 200_001) if reference.flags[p]]
    assert list(_sieve_py.sieve_segment(65537, 200_001, base)) == expected


def test_segment_rounds_an_even_start_up_to_odd():
    base = _sieve_py.simple_sieve(1000)
    for lo in (4, 65538, 69998):
        expected = _sieve_py.sieve_segment(lo + 1, 70000, base)
        assert _sieve_py.sieve_segment(lo, 70000, base) == expected, lo
    assert list(_sieve_py.sieve_segment(4, 5, base)) == []
    with pytest.raises(ValueError):
        _sieve_py.sieve_segment(2, 70000, base)


_BLOCK = _sieve_py._BLOCK
_SMALL_LIMIT = 2**22 + 12 * _BLOCK


@pytest.fixture(scope="module")
def small_sieve():
    """A flat sieve over [0, 2^22 + 12 * _BLOCK], past every segment below."""
    return MonolithicSieve(_SMALL_LIMIT)


def _expected(sieve, lo, hi):
    return list(compress(range(lo, hi), sieve.flags[lo:hi]))


# 1009^2 = 1018081: a start just past it strikes 1009 from its next odd
# multiple rather than from its square.
@pytest.mark.parametrize("lo", [70_000, 100_001, 1009**2 + 1, 1009**2 + 2])
@pytest.mark.parametrize("odd", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_segment_at_extraction_block_boundaries(small_sieve, lo, odd):
    # Extraction reads the flags _BLOCK odd candidates at a time; a segment
    # of `odd` candidates ends with an even or an odd hi.
    base = _sieve_py.simple_sieve(isqrt(_SMALL_LIMIT))
    first = lo | 1
    for hi in (first + 2 * odd - 1, first + 2 * odd):
        if hi <= lo:
            continue  # an odd lo has no empty segment within the contract
        assert len(range(first, hi, 2)) == odd
        found = _sieve_py.sieve_segment(lo, hi, base)
        assert list(found) == _expected(small_sieve, lo, hi), (lo, hi)


@seed(25)
@settings(max_examples=200, deadline=None)
@given(lo=st.integers(3, 2**22), odd=st.integers(0, 6 * _BLOCK))
def test_segment_matches_monolithic_sieve_anywhere(small_sieve, lo, odd):
    hi = max((lo | 1) + 2 * odd, lo + 1)
    base = _sieve_py.simple_sieve(isqrt(_SMALL_LIMIT))
    assert list(_sieve_py.sieve_segment(lo, hi, base)) == _expected(small_sieve, lo, hi)


def test_segment_just_below_2_to_the_32_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lo, hi = 2**32 - 10**5 - 1, 2**32
    found = _sieve_py.sieve_segment(lo, hi, _sieve_py.simple_sieve(2**16))
    assert list(found) == list(sympy.primerange(lo, hi))
    assert found[-1] == 4_294_967_291


def test_sieved_prefix_published_values():
    # pi(2^24) = 1077871, and the largest prime below 2^24 is 2^24 - 3.
    oracle = PrimeOracle()
    oracle._extend_to_value(oracle._prefix_end)
    assert oracle._sieved_to == 2**24 + 1
    assert len(oracle._primes) == 1_077_871
    assert oracle._primes[-1] == 16_777_213
    assert PrimeOracle().prime_count(2**24) == 1_077_871
    assert PrimeOracle().nth_prime(1_077_871) == 16_777_213


def test_extension_alignment_is_history_independent():
    # Mixed odd/even growth targets must not skew segment boundaries.
    jagged = PrimeOracle()
    for x in (70_000, 70_001, 123_456, 1_000_000, 1_234_568):
        jagged.prime_count(x)
    straight = PrimeOracle()
    straight.prime_count(1_234_568)
    m = straight.prime_count(1_234_568)
    assert list(jagged.primes_up_to_index(m)) == list(straight.primes_up_to_index(m))


def test_oracle_repr_shows_ceiling_and_reach():
    text = repr(PrimeOracle(limit_value=10**6))
    assert "limit_value=1000000" in text
    assert "sieved_to=65537" in text


# -- past the sieved prefix: Meissel's pi, windowed nth prime, rho ----------

PI_2_24 = 1_077_871  # pi(2^24): the last index the sieved prefix holds


@pytest.fixture(scope="module")
def big_sieve():
    """A flat sieve over [0, 2 * 10^8] (200 MB), the independent route."""
    return MonolithicSieve(2 * 10**8)


def test_lucy_pi_matches_monolithic_sieve(big_sieve):
    # Lucy_Hedgehog is the second route to pi past the prefix.
    rng = random.Random(7)
    points = [2, 3, 10, 2**16, 2**24 - 1, 2**24, 2**24 + 1, 2 * 10**8]
    points += [rng.randrange(2**24, 2 * 10**8) for _ in range(4)]
    oracle = PrimeOracle()
    for x in points:
        assert lucy_count(x) == big_sieve.count(x), x
        assert oracle.prime_count(x) == big_sieve.count(x), x


def test_meissel_pi_matches_monolithic_sieve(big_sieve):
    rng = random.Random(13)
    oracle = PrimeOracle()
    for x in [2**24 + 1, 2 * 10**8] + [rng.randrange(2**24, 2 * 10**8) for _ in range(24)]:
        assert oracle.prime_count(x) == big_sieve.count(x), x


def test_meissel_pi_at_edge_points(big_sieve):
    # Squares of primes move b = pi(sqrt x), cubes of primes a = pi(x^(1/3));
    # cubes of composites test the integer cube root, 30030 the wheel.
    squares = [p * p for p in (4099, 9973, 14107)]
    cubes = [n**3 for n in (257, 401, 577, 300, 432, 584)]
    wheel = [30030 * q for q in (559, 560, 3000, 6659)]
    points = [2**24 + 1, 2**24 + 2]
    points += [v + d for v in squares + cubes + wheel for d in (-1, 0, 1)]
    oracle = PrimeOracle()
    for x in points:
        assert oracle.prime_count(x) == big_sieve.count(x), x


def _brute_phi(y, k, table):
    """How many of 1..y have no prime factor among the first k primes."""
    survivors = bytearray(b"\x01") * (y + 1)
    survivors[0] = 0
    for p in islice(table, k):
        survivors[::p] = bytes(len(range(0, y + 1, p)))
    return survivors.count(1)


def test_phi_at_its_cut_offs():
    # phi(y, k) switches from expansion to a pi read at y = p_{k+1}^2 and
    # p_{k+1}^3, and past the table end once y // p_i reaches it.
    table = _sieve_py.simple_sieve(2**20)
    # Only the primes below 2^10: a table end low enough to force the
    # expansions of nodes whose pi would lie past it.
    low = table[: bisect_right(table, 2**10)]
    for k in (6, 7, 8, 9, 12, 30):
        q = table[k]  # p_{k+1}
        for y in (q * q - 1, q * q, q * q + 1, q**3 - 1, q**3, q**3 + 1, 30030 * k + 1):
            if y < 3 * 10**6:
                expected = _brute_phi(y, k, table)
                assert primes._phi(y, k, table, 2**20 + 1) == expected, (y, k)
                assert primes._phi(y, k, low, 2**10 + 1) == expected, (y, k)


def test_meissel_pi_matches_lucy():
    rng = random.Random(17)
    oracle = PrimeOracle()
    for x in [rng.randrange(2 * 10**8, 2**32) for _ in range(3)]:
        assert oracle.prime_count(x) == lucy_count(x), x


def test_pi_published_values():
    oracle = PrimeOracle()
    assert oracle.prime_count(10**9) == 50_847_534
    assert oracle.prime_count(2**32) == 203_280_221
    assert PrimeOracle(limit_value=10**10).prime_count(10**10) == 455_052_511


@pytest.mark.parametrize("cap, bootstrap", [(2**16, 2**16), (2**12, 2**6)])
def test_counts_past_a_small_prefix(big_sieve, monkeypatch, cap, bootstrap):
    # With the prefix cut to 2^16, x^(2/3) lies past it from x = 2^24 on, so
    # the sum's terms past the prefix come from the counting walk.  Cut to
    # 2^12, the ceiling is at most 2^24, and phi also expands nodes whose pi
    # would lie past the table from x = 23 * 2^18 on.
    monkeypatch.setattr(primes, "_PREFIX_CAP", cap)
    monkeypatch.setattr(primes, "_BOOTSTRAP", bootstrap)
    with pytest.raises(ValueError):
        PrimeOracle(limit_value=cap * cap + 1)
    top = min(cap * cap, 2 * 10**8)
    oracle = PrimeOracle(limit_value=top)
    rng = random.Random(19)
    low = 23 * top // 64  # 23 * 2^18 under the 2^12 prefix
    for x in [10**7, 2**24 - 1, min(2**24 + 1, top)] + [rng.randrange(low, top) for _ in range(4)]:
        assert oracle.prime_count(x) == big_sieve.count(x), x
    last = big_sieve.count(top)
    for m in [big_sieve.count(cap) + 1, 10**6, last] + [rng.randrange(10**6, last) for _ in range(3)]:
        p = big_sieve.nth(m)
        assert oracle.nth_prime(m) == p, m
        assert PrimeOracle(limit_value=top).prime_index(p) == m, m
    assert f"cached={big_sieve.count(cap)})" in repr(oracle)


def test_the_default_ceiling_edge():
    oracle = PrimeOracle()
    assert oracle.nth_prime(203_280_221) == 4_294_967_291
    assert oracle.prime_count(2**32) == 203_280_221
    with pytest.raises(IndexOutOfRange) as err:
        oracle.nth_prime(203_280_222)
    assert err.value.index == 203_280_222


def test_nth_prime_and_index_across_the_prefix_cap(big_sieve):
    assert big_sieve.count(2**24) == PI_2_24
    for m in (PI_2_24 - 1, PI_2_24, PI_2_24 + 1, 5_761_455, 11_078_937):
        p = big_sieve.nth(m)
        # A fresh oracle per route, so neither answer comes from the memo.
        assert PrimeOracle().nth_prime(m) == p, m
        assert PrimeOracle().prime_index(p) == m, m
    with pytest.raises(NotPrime):
        PrimeOracle().prime_index(99_999_991)  # 7 * 13 * 769 * 1429


@pytest.fixture
def pi_counts(monkeypatch):
    """The x of every pi count past the prefix, in call order."""
    calls = []
    original = PrimeOracle._count_past_prefix

    def spy(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(PrimeOracle, "_count_past_prefix", spy)
    return calls


def test_index_out_of_range_just_past_pi_of_ceiling(big_sieve, pi_counts):
    oracle = PrimeOracle(limit_value=2 * 10**8)
    last = big_sieve.count(2 * 10**8)
    assert oracle.nth_prime(last) == big_sieve.nth(last)
    # One count at Dusart's bound; the walk from it decides, not pi(ceiling).
    assert len(pi_counts) == 1 and pi_counts[0] < 2 * 10**8
    with pytest.raises(IndexOutOfRange) as err:
        oracle.nth_prime(last + 1)
    assert err.value.index == last + 1
    assert err.value.limit_value == 2 * 10**8


def test_window_at_the_top_of_the_range_reads_its_base_primes_from_the_table():
    # The window [2^48 - 2^17, 2^48] needs every prime up to 2^24, the
    # prefix's end: all of them come from the table.
    lo, hi = 2**48 - 2**17, 2**48 + 1
    oracle = PrimeOracle(limit_value=2**48)
    found = oracle._window(lo, hi)
    assert f"sieved_to={2**24 + 1}," in repr(oracle)
    assert list(found) == [n for n in range(lo + 1, hi, 2) if is_prime_certified(n)]
    assert len(found) == 3928


def test_prefix_stays_capped():
    oracle = PrimeOracle()
    m = PI_2_24 + 3000
    table = list(oracle.primes_up_to_index(m))
    assert len(table) == m
    assert table[m - 1] == oracle.nth_prime(m)
    assert all(a < b for a, b in zip(table[PI_2_24 - 5 :], table[PI_2_24 - 4 :]))
    assert table[PI_2_24 - 1] == 16_777_213 and table[PI_2_24] == 16_777_259
    # The copy came from windows; the cached prefix did not grow past 2^24.
    assert f"sieved_to={2**24 + 1}," in repr(oracle)
    oracle.nth_prime(10**8)
    assert f"cached={PI_2_24})" in repr(oracle)


def test_a_prime_just_past_the_bootstrap_doubles_the_table():
    # p_6543 = 65537 is the first prime past the bootstrap sieve; the table
    # grows to its upper bound or twice its reach, not by a whole segment.
    oracle = PrimeOracle()
    assert oracle.nth_prime(6543) == 65537
    assert oracle._sieved_to <= 2**18


def test_prefix_prime_answers_inside_the_prefix_only():
    oracle = PrimeOracle()
    assert oracle._prefix_prime(1) == 2
    assert oracle._prefix_prime(PI_2_24) == 16_777_213
    assert f"sieved_to={2**24 + 1}," in repr(oracle)
    assert oracle._prefix_prime(PI_2_24 + 1) is None
    # Robin's bound, or p_m > m, already puts these past the prefix: no
    # sieving at all, and no float overflow for a huge m.
    fresh = PrimeOracle()
    assert fresh._prefix_prime(2 * 10**6) is None
    assert fresh._prefix_prime(10**400) is None
    assert "sieved_to=65537," in repr(fresh)


def test_nth_prime_refuses_a_huge_index(pi_counts):
    # p_m > m, Dusart's bound past the ceiling, or a prefix that covers the
    # ceiling: each refuses before any count.
    for limit_value, m in [(2**32, 10**400), (10**6, 78_499), (2**32, 10**12),
                           (2**32, 204_280_222)]:
        with pytest.raises(IndexOutOfRange) as err:
            PrimeOracle(limit_value=limit_value).nth_prime(m)
        assert err.value.index == m
    assert pi_counts == []


P_2000000 = 32_452_843


@pytest.mark.parametrize("lower", [P_2000000 + 2, P_2000000 * 101 // 100])
def test_a_lower_bound_past_the_prime_is_a_loud_error(overshoot, lower):
    # Just past p_m the count at the bound is m (the walk would return the
    # last prime of its first window); 1% past it the count exceeds m.
    overshoot(2_000_000, lower)
    with pytest.raises(MatulaError) as err:
        PrimeOracle().nth_prime(2_000_000)
    assert not isinstance(err.value, IndexOutOfRange)
    x0 = int(lower * (1 - primes._WIDEN))
    count = PrimeOracle().prime_count(x0)
    assert count >= 2_000_000
    assert str(err.value) == f"lower bound {x0} on p_2000000 fails: pi({x0}) = {count} >= 2000000"


def test_prime_stream_past_the_prefix_matches_the_sieve(big_sieve):
    # Past the prefix the stream runs through two whole sieved windows.
    m = big_sieve.count(primes._PREFIX_CAP + 2 * primes._SEGMENT_SPAN + 5)
    stream = islice(PrimeOracle().primes_up_to_index(m), PI_2_24, None)
    sieved = islice(compress(count(), big_sieve.flags), PI_2_24, m)
    for k, (p, q) in enumerate(zip(stream, sieved, strict=True), PI_2_24 + 1):
        assert p == q, k


def test_sympy_agrees_past_the_prefix():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    oracle = PrimeOracle()
    for _ in range(2):
        m = rng.randrange(PI_2_24, 203_280_221)
        p = oracle.nth_prime(m)
        assert p == sympy.prime(m), m
        x = rng.randrange(2**24, 2**32)
        assert oracle.prime_count(x) == sympy.primepi(x), x


def test_certification_past_2_to_the_64_agrees_with_sympy():
    # Seeded draws in [2^64, 3.3 * 10^24): 100 primes and 100 products of two
    # primes; then three p q with p < 2^32 < q, split under a 2^40 ceiling.
    sympy = pytest.importorskip("sympy")
    from sympy.core.random import rng  # the generator sympy.randprime draws from

    top = 33 * 10**23
    saved = rng.getstate()
    rng.seed(32)
    try:
        ns = [sympy.randprime(2**64, top) for _ in range(100)]
        for _ in range(100):
            p = sympy.randprime(2**17, 2**41)
            ns.append(p * sympy.randprime(-(-(2**64) // p), top // p))
        products = [sympy.randprime(2**17, 2**32) * sympy.randprime(2**32, 2**40) for _ in range(3)]
    finally:
        rng.setstate(saved)
    assert all(2**64 <= n < top for n in ns)
    for n in ns:
        assert is_prime_certified(n) == sympy.isprime(n), n
    assert sum(map(is_prime_certified, ns)) == 100
    oracle = PrimeOracle(limit_value=2**40)
    for n in products:
        assert oracle.factorize(n) == sorted(sympy.factorint(n).items()), n


def test_huge_integers_raise_typed_errors_with_short_messages():
    # Past 60 digits a message shows an integer by its ends and its digit
    # count, so these hold under Python's default limit of 4300 digits on
    # int-to-str conversion; the errors keep the exact integers.
    repunit = (10**5000 - 1) // 9
    shown = r"1000000000\.\.\.0000000000 \(5001 digits\)"
    cofactor = r"\d{10}\.\.\.\d{10} \(4933 digits\)"
    with pytest.raises(FactorOutOfRange, match=f"^cannot certify primality of {cofactor} ") as err:
        decode(repunit)
    assert repunit % err.value.value == 0
    with pytest.raises(IndexOutOfRange, match=f"^prime index {shown} is not answerable") as err:
        PrimeOracle().nth_prime(10**5000)
    assert err.value.index == 10**5000
    with pytest.raises(ValueOutOfRange, match=f"^{shown} exceeds the oracle ceiling") as err:
        PrimeOracle().prime_count(10**5000)
    assert err.value.value == 10**5000


def test_brief_shows_up_to_60_digits_whole():
    assert brief(10**60 - 1) == "9" * 60
    assert brief(-(10**59)) == "-1" + "0" * 59
    assert brief(10**60 + 7) == "1000000000...0000000007 (61 digits)"
    assert brief(-(2**1000)) == "-1071508607...5668069376 (302 digits)"


def _next_prime_by_trial_division(n):
    while any(n % d == 0 for d in range(2, isqrt(n) + 1)):
        n += 1
    return n


def test_factorize_products_of_25_bit_primes(oracle):
    rng = random.Random(3)
    for _ in range(4):
        p = _next_prime_by_trial_division(rng.randrange(2**24, 2**25))
        q = _next_prime_by_trial_division(rng.randrange(p, 2**25))
        expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert oracle.factorize(p * q) == expected
        assert oracle.factorize(p * p * q) == ([(p, 3)] if p == q else [(p, 2), (q, 1)])


def test_factorize_large_prime_without_trial_division(oracle):
    assert oracle.factorize(10**15 + 37) == [(10**15 + 37, 1)]
    assert oracle.factorize(2 * 3 * (10**15 + 37)) == [(2, 1), (3, 1), (10**15 + 37, 1)]


def test_factorize_ceiling_contract():
    small = PrimeOracle(limit_value=1000)
    # Exactly one prime factor above the ceiling: answered.
    assert small.factorize(4 * 1013) == [(2, 2), (1013, 1)]
    # Two or more, counted with multiplicity: refused, cofactor their product.
    for n, cofactor in ((1009 * 1013, 1009 * 1013), (7 * 1009**2, 1009**2),
                        (3 * 1009 * 1013 * 1019, 1009 * 1013 * 1019)):
        with pytest.raises(FactorOutOfRange) as err:
            small.factorize(n)
        assert err.value.cofactor == cofactor
        assert err.value.value == n
    # Two factors past the default ceiling (the two primes after 2^32).
    with pytest.raises(FactorOutOfRange) as err:
        PrimeOracle().factorize(4_294_967_311 * 4_294_967_357)
    assert err.value.cofactor == 4_294_967_311 * 4_294_967_357
    # A cofactor too large to certify still raises (2^89 - 1 is prime).
    with pytest.raises(FactorOutOfRange):
        PrimeOracle().factorize(2**89 - 1)


def test_factorize_recomposes_at_scale(oracle):
    rng = random.Random(5)
    for digits in range(6, 19):
        for _ in range(4):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            product = 1
            previous = 0
            for p, e in oracle.factorize(n):
                assert p > previous and e >= 1
                assert is_prime_certified(p)
                previous = p
                product *= p**e
            assert product == n


def test_factorize_refuses_when_rho_gives_up(monkeypatch):
    monkeypatch.setattr(primes, "_RHO_BUDGET", 0)
    oracle = PrimeOracle()
    for n, cofactor in ((65537 * 65539, 65537 * 65539),
                        (6 * 16_777_259 * 16_777_289, 16_777_259 * 16_777_289)):
        with pytest.raises(FactorOutOfRange) as err:
            oracle.factorize(n)
        assert (err.value.cofactor, err.value.value) == (cofactor, n)


# Two 41-bit primes: the product is certifiable (below 3.3 * 10^24), and
# rho needs more steps to split it than a budget of 2^20 allowed.
_P41, _Q41 = 1_811_095_800_043, 1_811_096_800_063


def test_factorize_splits_two_41_bit_primes():
    # In a child with a timeout: a factorization that falls back to trial
    # division would walk toward 1.8 * 10^12 instead of failing.
    code = (
        "from matula import PrimeOracle; "
        f"print(PrimeOracle(limit_value=2**48).factorize({_P41} * {_Q41}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[({_P41}, 1), ({_Q41}, 1)]\n"


def _row_bounds(row, ms):
    """The bound of ``row`` on p_m for each m of ms."""
    ln_ms = [math.log(m) for m in ms]
    factors = primes._factors(row, ln_ms, [math.log(x) for x in ln_ms])
    return [m * f for m, f in zip(ms, factors)]


def _holds(row, bound, p):
    return bound < p if row.side == "lower" else p < bound


def test_dusart_lower_bound_lies_below_p_m():
    # Every row of the table at every m from its least m up to pi(2^24).
    table = list(PrimeOracle().primes_up_to_index(PI_2_24))
    for row in primes._BOUNDS:
        ms = range(row.least, PI_2_24 + 1)
        for m, bound in zip(ms, _row_bounds(row, ms)):
            assert _holds(row, bound, table[m - 1]), (row.name, m)
    # Published: p_50847534 = 999999937, the last prime below 10^9, and
    # p_203280221 = 4294967291, the last below 2^32.
    for m, p in [(50_847_534, 999_999_937), (203_280_221, 4_294_967_291)]:
        for row in primes._BOUNDS:
            assert _holds(row, _row_bounds(row, [m])[0], p), (row.name, m)


# Published p_(10^k) for k = 6..12.
_P_POWERS_OF_TEN = [
    15_485_863,
    179_424_673,
    2_038_074_743,
    22_801_763_489,
    252_097_800_623,
    2_760_727_302_517,
    29_996_224_275_833,
]


def test_published_primes_lie_inside_the_tightest_bounds():
    for k, p in enumerate(_P_POWERS_OF_TEN, start=6):
        m = 10**k
        bounds = {row.side: [] for row in primes._BOUNDS}
        for row in primes._BOUNDS:
            bounds[row.side] += _row_bounds(row, [m])
        assert max(bounds["lower"]) < p < min(bounds["upper"]), k
        lo, hi = primes._ln_prime_bounds(math.log(m), math.log(m))
        assert lo < math.log(p) < hi, k
        assert math.isclose(lo, math.log(max(bounds["lower"])), rel_tol=1e-14), k
        assert math.isclose(hi, math.log(min(bounds["upper"])), rel_tol=1e-14), k


def test_factorize_splits_the_least_strong_pseudoprime_to_every_witness():
    # 3317044064679887385961981 passes all thirteen witnesses yet is
    # composite, so rho splits it, where a probable prime past it is refused.
    p, q = 1_287_836_182_261, 2_575_672_364_521
    assert p * q == primes._MR_CERTIFIED_BOUND
    assert PrimeOracle(limit_value=2**42).factorize(p * q) == [(p, 1), (q, 1)]


def test_the_least_strong_pseudoprime_to_twelve_bases_is_not_certified():
    # psi_12 passes the first twelve prime bases, 2 to 37; base 41 exposes it.
    p, q = 399_165_290_221, 798_330_580_441
    assert not is_prime_certified(p * q)
    assert PrimeOracle(limit_value=2**40).factorize(p * q) == [(p, 1), (q, 1)]


def test_shared_oracle_under_threads():
    # More threads than cores and a short switch interval.
    indices = [PI_2_24 + k for k in range(0, 4000, 250)]
    reference = PrimeOracle()
    expected = {m: reference.nth_prime(m) for m in indices}
    # A ceiling just past every answer.  No count at the ceiling is kept, so
    # the threads race on the table and the window walks.
    shared = PrimeOracle(limit_value=17_000_000)
    errors = []

    def worker(offset):
        try:
            for i in range(len(indices)):
                m = indices[(i + offset) % len(indices)]
                p = shared.nth_prime(m)
                assert p == expected[m], m
                assert shared.prime_index(p) == m, m
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
