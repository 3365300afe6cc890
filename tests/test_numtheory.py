import time
from math import comb

import pytest

from quivercount.numtheory import binomial_row, divisors, integer_binomial, is_prime, mobius


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    with pytest.raises(ValueError):
        divisors(0)


def test_mobius():
    values = [mobius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_inversion_identity():
    # sum_{d|n} mobius(d) = [n == 1]
    for n in range(1, 40):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-5, 10**5) if is_prime(n)] == \
        [n for n in range(-5, 10**5) if trial(n)]


@pytest.mark.parametrize("n", [
    561,                    # Carmichael number
    2047,                   # strong pseudoprime to base 2
    3215031751,             # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,    # strong pseudoprime to bases 2..23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 2**63 - 25, 2**63 + 29, 2**64 - 59])
def test_is_prime_is_fast_on_large_primes(n):
    # trial division would take sqrt(n), up to 4.3e9 steps, here
    start = time.perf_counter()
    assert is_prime(n)
    assert time.perf_counter() - start < 0.5


def test_integer_binomial():
    assert integer_binomial(5, 2) == 10
    assert integer_binomial(3, 5) == 0
    assert integer_binomial(-1, 4) == 1
    assert integer_binomial(-3, 2) == 6
    assert integer_binomial(-2, 3) == -4
    with pytest.raises(ValueError):
        integer_binomial(4, -1)
    # one row gives every binomial: C(n, k) for n >= 0, and
    # C(n, k) = (-1)^k C(k - n - 1, k) for n < 0
    for n in range(-12, 13):
        row = binomial_row(n, 20)
        expected = [comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)
                    for k in range(20)]
        assert row == expected, n
        assert [integer_binomial(n, k) for k in range(20)] == expected, n
        assert binomial_row(n, 0) == [] and binomial_row(n, 1) == [1]
