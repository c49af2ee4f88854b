import math

import pytest

from matula import (
    DomainError,
    FactorOutOfRange,
    IndexOutOfRange,
    NotPrime,
    PrimeOracle,
    ValueOutOfRange,
    is_prime_certified,
    robin_lower,
    rosser_schoenfeld_upper,
)
from matula import _sieve_py

from oracles import MonolithicSieve, naive_nth_prime


def test_nth_prime_golden(oracle):
    assert oracle.nth_prime(1) == 2
    assert oracle.nth_prime(2) == 3
    assert oracle.nth_prime(3) == 5
    assert oracle.nth_prime(14) == 43
    assert oracle.nth_prime(86) == 443
    assert oracle.nth_prime(886) == 6883


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


def test_is_prime(oracle):
    assert oracle.is_prime(2)
    assert not oracle.is_prime(1)
    assert not oracle.is_prime(0)
    assert oracle.is_prime(6883)
    assert not oracle.is_prime(6883 * 3)
    sieve = MonolithicSieve(3000)
    for n in range(3000):
        assert oracle.is_prime(n) == bool(sieve.flags[n])


def test_is_prime_certified_against_sieve():
    sieve = MonolithicSieve(5000)
    for n in range(5000):
        assert is_prime_certified(n) == bool(sieve.flags[n])
    assert is_prime_certified(2**61 - 1)
    assert not is_prime_certified(2**67 - 1)


def test_robin_lower_values():
    assert math.isclose(robin_lower(2), -1.3612572800434, rel_tol=1e-10)
    big = 32078140605053
    assert math.isclose(robin_lower(big), 1.075552e15, rel_tol=1e-4)
    assert math.isclose(rosser_schoenfeld_upper(big), 1.091824e15, rel_tol=1e-4)


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        robin_lower(1)
    with pytest.raises(DomainError):
        rosser_schoenfeld_upper(19)
    assert rosser_schoenfeld_upper(20) >= 71  # p_20 = 71


def test_bounds_bracket_primes(oracle):
    for m in range(2, 50_000):
        p = oracle.nth_prime(m)
        assert robin_lower(m) <= p
        if m >= 20:
            assert p <= rosser_schoenfeld_upper(m)


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


def test_limit_index_is_answerable():
    small = PrimeOracle(limit_value=100)
    assert small.limit_index == 25
    mid = PrimeOracle(limit_value=10**7)
    m = mid.limit_index
    # Certified answerable, and p_m stays under the ceiling.
    assert mid.nth_prime(m) <= mid.limit_value
    # Not wildly conservative either: within 3% of the true count.
    assert m >= int(0.97 * mid.prime_count(10**7))


def test_env_override(monkeypatch):
    monkeypatch.setenv("MATULA_PRIME_BOUND", "5000")
    assert PrimeOracle().limit_value == 5000
    monkeypatch.delenv("MATULA_PRIME_BOUND")
    assert PrimeOracle().limit_value == 2**32


def test_constructor_validation():
    with pytest.raises(ValueError):
        PrimeOracle(limit_value=1)
    with pytest.raises(ValueError):
        PrimeOracle(limit_value=2**60)


def test_segment_matches_monolithic_sieve():
    base = _sieve_py.simple_sieve(1000)
    reference = MonolithicSieve(500_000)
    expected = [p for p in range(65537, 200_001) if reference.flags[p]]
    assert list(_sieve_py.sieve_segment(65537, 200_001, base)) == expected


def test_segment_rejects_even_start():
    base = _sieve_py.simple_sieve(1000)
    with pytest.raises(ValueError):
        _sieve_py.sieve_segment(65538, 70000, base)


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
