"""Small number-theoretic helpers: divisors, Mobius function, primality,
binomials."""

from __future__ import annotations


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    if n < 1:
        raise ValueError("divisors defined for n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """The number-theoretic Mobius function (not the slope function)."""
    if n < 1:
        raise ValueError("mobius defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, exact for
    n < 3.18 * 10^23, far past 2^64 (no composite below that bound is a
    strong pseudoprime to all twelve bases); O(log n) multiplications per
    base."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_binomial(n: int, k: int) -> int:
    """Generalized binomial C(n, k) for any integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = 1
    den = 1
    for j in range(k):
        num *= n - j
        den *= j + 1
    assert num % den == 0
    return num // den
