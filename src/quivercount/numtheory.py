"""Small number-theoretic helpers: divisors, Mobius function, necklace
counts, primality, binomials (every one read off a binomial row)."""

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


def necklace_count(colors: int, beads: int) -> int:
    """Number of primitive (aperiodic) necklaces of `beads` beads in `colors`
    colours: (1/d) sum_{k|d} mobius(d/k) m^k."""
    if colors < 1 or beads < 1:
        raise ValueError("colors and beads must be >= 1")
    total = sum(mobius(beads // k) * colors**k for k in divisors(beads))
    assert total % beads == 0
    return total // beads


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


def binomial_row(n: int, length: int) -> list[int]:
    """The generalized binomials C(n, 0), ..., C(n, length - 1) for any
    integer n, each from the one before by (j + 1) C(n, j + 1) = (n - j) C(n, j)."""
    row = [1][:length]
    for j in range(length - 1):
        c, r = divmod((n - j) * row[j], j + 1)
        assert not r
        row.append(c)
    return row


def integer_binomial(n: int, k: int) -> int:
    """Generalized binomial C(n, k) for any integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return binomial_row(n, k + 1)[-1]
