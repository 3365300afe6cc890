import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount import qpoly
from quivercount.qpoly import (
    _KRONECKER_MIN,
    PoleError,
    QPoly,
    RationalFunction,
    _int_combine,
    _int_mul,
    _int_pdivmod,
    binomial_jet,
    poly_gcd,
    trunc_div,
    trunc_mul,
)

Q = QPoly.gen()
ONE = QPoly.one()


def rand_poly(rng, max_deg=3):
    return QPoly([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                  for _ in range(rng.randint(1, max_deg + 1))])


def rand_rf(rng):
    num = rand_poly(rng)
    den = QPoly()
    while den.is_zero:
        den = rand_poly(rng)
    return RationalFunction(num, den)


class TestQPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).is_zero
        assert QPoly().degree == -1

    def test_exact_div_rejects_remainders(self):
        with pytest.raises(ValueError):
            (Q * Q + 1).exact_div(Q - 1)

    def test_adams_spreads_exponents(self):
        p = QPoly([1, 2, 3])
        assert p.adams(2) == QPoly([1, 0, 2, 0, 3])
        assert p.adams(1) == p

    def test_shift_basis_examples(self):
        assert Q.shifted().coeffs == (1, 1)
        assert (Q * Q).shifted().coeffs == (1, 2, 1)
        assert (Q**3 - Q).shifted().coeffs == (0, 2, 3, 1)
        assert QPoly().shifted().coeffs == ()

    def test_shift_basis_reconstruction(self):
        rng = random.Random(1)
        for _ in range(30):
            p = rand_poly(rng, 5)
            coeffs = p.shifted().coeffs
            rebuilt = QPoly()
            for n, c in enumerate(coeffs):
                rebuilt = rebuilt + QPoly([-1, 1]) ** n * c
            assert rebuilt == p

    def test_gcd(self):
        a = (ONE - Q) * (ONE + Q)
        b = (ONE + Q) * QPoly([3])
        g = poly_gcd(a, b)
        assert g == ONE + Q  # monic
        assert poly_gcd(QPoly(), b) == ONE + Q
        assert poly_gcd(QPoly(), QPoly()).is_zero
        # a power of q on one side only comes out with the gcd
        assert poly_gcd(QPoly(), Q * Q * b) == Q * Q * (ONE + Q)
        assert poly_gcd(Q * a, Q * Q * Q * b) == Q * (ONE + Q)


class TestRationalFunction:
    def test_additive_inverse(self):
        a = RationalFunction(1, ONE - Q)
        assert (a + (-a)).is_zero

    def test_division_cancels(self):
        assert RationalFunction(ONE - Q * Q) / RationalFunction(ONE - Q) == \
            RationalFunction(ONE + Q)

    def test_multiplicative_identity(self):
        rng = random.Random(2)
        for _ in range(10):
            x = rand_rf(rng)
            assert x * RationalFunction.one() == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.one() / RationalFunction.zero()

    def test_normal_form(self):
        rng = random.Random(3)
        for _ in range(25):
            x = rand_rf(rng) + rand_rf(rng) * rand_rf(rng)
            if x.is_zero:
                continue
            assert x.den.leading() == 1
            assert poly_gcd(x.num, x.den).degree == 0

    def test_constant_denominator_skips_the_gcd(self, monkeypatch):
        calls = []
        real = qpoly.poly_gcd
        monkeypatch.setattr(qpoly, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
        poly = QPoly([Fraction(1, 2), 0, -3, 1])
        assert RationalFunction(poly).num == poly
        x = RationalFunction(poly, Fraction(3, 2))
        assert (x.num, x.den) == (poly * Fraction(2, 3), ONE)
        assert calls == []

    def test_field_axioms_random(self):
        rng = random.Random(4)
        for _ in range(25):
            a, b, c = (rand_rf(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a

    def test_adams_examples(self):
        a = RationalFunction(1, ONE - Q)
        assert a.adams(2) == RationalFunction(1, ONE - QPoly.monomial(2))
        f = RationalFunction(Q, ONE + Q)
        assert f.adams(1) == f
        assert f.adams(2).adams(3) == f.adams(6)

    def test_adams_is_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(15):
            a, b = rand_rf(rng), rand_rf(rng)
            k = rng.randint(1, 4)
            assert (a * b).adams(k) == a.adams(k) * b.adams(k)
            assert (a + b).adams(k) == a.adams(k) + b.adams(k)

    def test_bar_examples(self):
        assert RationalFunction(Q).bar() == RationalFunction(1, Q)
        a = RationalFunction(1, ONE - Q)
        assert a.bar() == RationalFunction(Q, Q - 1)
        c = RationalFunction(Fraction(5, 3))
        assert c.bar() == c

    def test_bar_involutive_homomorphism(self):
        rng = random.Random(6)
        for _ in range(15):
            a, b = rand_rf(rng), rand_rf(rng)
            assert a.bar().bar() == a
            assert (a * b).bar() == a.bar() * b.bar()
            assert (a + b).bar() == a.bar() + b.bar()

    def test_evaluate(self):
        a = RationalFunction(1, ONE - Q)
        assert a.evaluate(2) == -1
        assert RationalFunction(ONE - Q * Q, ONE - Q).evaluate(1) == 2
        with pytest.raises(PoleError, match="1"):
            a.evaluate(1)

    def test_taylor_at_one(self):
        for m in range(5):
            tail = RationalFunction(QPoly.monomial(m)).taylor_at_one(1)
            assert tail == QPoly([1, m])
        assert RationalFunction(ONE - Q * Q, ONE - Q).taylor_at_one(1) == QPoly([2, 1])
        with pytest.raises(PoleError):
            RationalFunction(1, ONE - Q).taylor_at_one(3)

    def test_taylor_matches_shift_basis_on_polynomials(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(rng, 4)
            if p.is_zero:
                continue
            assert RationalFunction(p).taylor_at_one(p.degree + 2) == \
                p.shifted()

    def test_q_power(self):
        assert RationalFunction.q_power(3) == RationalFunction(QPoly.monomial(3))
        assert RationalFunction.q_power(-2) == RationalFunction(1, QPoly.monomial(2))
        assert RationalFunction.q_power(-2) * RationalFunction.q_power(2) == \
            RationalFunction.one()

    def test_str(self):
        assert str(RationalFunction(ONE + Q)) == "q + 1"
        assert "/" in str(RationalFunction(1, ONE - Q))


small_polys = st.lists(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2))),
    min_size=1, max_size=4,
).map(QPoly)
orders = st.integers(0, 5)


def pad(coeffs, n):
    coeffs = list(coeffs)[:n]
    return coeffs + [Fraction(0)] * (n - len(coeffs))


def cut(coeffs, n):
    """The jet of n terms with the given leading coefficients."""
    return QPoly(list(coeffs)[:n])


def jet_of(p, n):
    """The (q-1)-basis coefficients of p as a jet of n terms."""
    return cut(p.shifted().coeffs, n)


class TestJets:
    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys, orders)
    def test_product(self, a, b, order):
        n = order + 1
        got = trunc_mul(jet_of(a, n), jet_of(b, n), n)
        assert got == jet_of(a * b, n)
        assert got == RationalFunction(a * b).taylor_at_one(order)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys, small_polys, orders)
    def test_quotient(self, a, b, c, order):
        n = order + 1
        if b.evaluate(1) == 0:
            with pytest.raises(PoleError):
                trunc_div(jet_of(a, n), jet_of(b, n), n)
            return
        quot = trunc_div(jet_of(a, n), jet_of(b, n), n)
        assert trunc_mul(jet_of(b, n), quot, n) == jet_of(a, n)
        # an exact quotient (b c) / b comes back as c
        assert trunc_div(jet_of(b * c, n), jet_of(b, n), n) == jet_of(c, n)
        # a / b agrees with the expansion of the reduced rational function
        assert quot == RationalFunction(a, b).taylor_at_one(order)

    def test_quotient_of_no_terms(self):
        # modulo x^0 every quotient is the zero jet; a zero constant term in
        # the divisor still raises
        assert trunc_div(QPoly([2, 1]), QPoly([2, 1]), 0) == QPoly()
        assert repr(trunc_div(QPoly([1, 1]), QPoly([2, 1]), 0)) == "QPoly[0]"
        with pytest.raises(PoleError):
            trunc_div(ONE, Q, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), st.integers(-3, 3), orders)
    def test_binomial_jet(self, e, c, order):
        n = order + 1
        if e >= 0:
            assert binomial_jet(e, c, n) == cut((QPoly([1, c]) ** e).coeffs, n)
        assert trunc_mul(binomial_jet(e, c, n), binomial_jet(-e, c, n), n) == ONE
        # with c = 1 the jet variable is t = q - 1, so (1 + t)^e is q^e
        assert binomial_jet(e, 1, n) == RationalFunction.q_power(e).taylor_at_one(order)


# -- the integer core, against plain Fraction references ----------------------

def is_canonical(p):
    n, d = p._n, p._d
    return (all(type(c) is int for c in n) and type(d) is int and d > 0
            and (not n or n[-1] != 0) and gcd(d, *n) == 1)


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_mul(a, b):
    """Schoolbook product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_horner(coeffs, v):
    """sum coeffs[i] v^i, for a scalar v or a polynomial v given as a list."""
    if not isinstance(v, list):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * v + c
        return acc
    acc = []
    for c in reversed(coeffs):
        acc = ref_mul(acc, v) or [0]
        acc[0] += c
    return strip(acc)


# small, negative and wider-than-64-bit integers and fractions
integers = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
scalars = st.one_of(integers, st.builds(Fraction, integers, st.integers(1, 2**40)))
polys = st.lists(scalars, max_size=7).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
units_at_zero = polys.filter(lambda p: not p.is_zero and p.coeff(0))
int_lists = st.lists(integers, min_size=1, max_size=2 * _KRONECKER_MIN + 4)
int_divisors = st.lists(integers, min_size=1, max_size=7).filter(lambda v: v[-1] != 0)
shifts = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9),
                                                 st.integers(1, 6)))
# up to 10 coefficients, the constant term nonzero and zeros inside
series_with_unit = st.builds(lambda c, rest: [Fraction(c)] + rest, scalars.filter(bool),
                             st.lists(st.one_of(st.just(0), scalars), max_size=9))
small_rfs = st.builds(RationalFunction, small_polys,
                      small_polys.filter(lambda p: not p.is_zero))


class TestIntegerCore:
    @given(st.lists(scalars, max_size=7))
    def test_construction_is_canonical(self, coeffs):
        p = QPoly(coeffs)
        assert is_canonical(p)
        assert list(p.coeffs) == strip(coeffs)
        assert QPoly(p.coeffs) == p and hash(QPoly(p.coeffs)) == hash(p)
        assert QPoly(list(p.coeffs) + [0, Fraction(0)]) == p
        assert p.has_integer_coeffs() == all(c.denominator == 1 for c in p.coeffs)

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        for x in (a + b, a - b, a * b, -a, a * Fraction(3, 7), a * 0):
            assert is_canonical(x)
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero and a + QPoly() == a and a * QPoly.one() == a
        # equal values built differently have equal hashes
        assert hash((a + b) - b) == hash(a) and hash(a * b) == hash(b * a)

    @given(polys, polys)
    def test_operations_match_fraction_coefficients(self, a, b):
        ca, cb = list(a.coeffs), list(b.coeffs)
        assert list((a * b).coeffs) == strip(ref_mul(ca, cb))
        n = max(len(ca), len(cb))
        pad_a, pad_b = ca + [0] * (n - len(ca)), cb + [0] * (n - len(cb))
        assert list((a + b).coeffs) == strip(x + y for x, y in zip(pad_a, pad_b))

    @given(int_lists, int_lists)
    def test_int_mul_matches_schoolbook(self, a, b):
        # lengths reach past _KRONECKER_MIN, so both routes are exercised
        assert _int_mul(a, b) == ref_mul(a, b)
        assert _int_mul(b, a) == ref_mul(a, b)

    def test_int_mul_kronecker_edge_digits(self):
        n = _KRONECKER_MIN + 1
        for a, b in [([-1] * n, [-1] * n), ([2**64] * n, [-(2**64)] * n),
                     ([1] + [0] * (n - 2) + [-1], [-(2**200)] + [0] * (n - 1) + [1]),
                     ([2**70 - 1, -(2**70)] * n, [1, -1] * n)]:
            assert _int_mul(a, b) == ref_mul(a, b)
        # constant factors make the middle coefficient reach the digit-size
        # bound len * max|a| * max|b|, at every bit length up to 16
        for n in (_KRONECKER_MIN, _KRONECKER_MIN + 3):
            for x in range(1, 48):
                assert _int_mul([x] * n, [x] * n) == ref_mul([x] * n, [x] * n)
                assert _int_mul([x] * n, [-x] * n) == ref_mul([x] * n, [-x] * n)

    @given(polys, nonzero_polys)
    def test_exact_div_round_trip(self, a, b):
        quot = (a * b).exact_div(b)
        assert quot == a and is_canonical(quot)

    @given(polys, nonzero_polys)
    def test_inexact_division_raises(self, a, b):
        # b divides a over Q exactly when the pseudo-remainder of the
        # numerators vanishes
        _, _, rem = _int_pdivmod(a._n, b._n)
        if not any(rem):
            assert a.exact_div(b) * b == a
        else:
            with pytest.raises(ValueError, match="inexact"):
                a.exact_div(b)

    def test_inexact_lead_raises(self):
        # the quotient (q + 1)/2 is not integral over the primitive divisor
        with pytest.raises(ValueError, match="inexact"):
            QPoly([1, 2, 1]).exact_div(QPoly([1, 2]))
        assert QPoly([1, 2, 1]).exact_div(QPoly([2, 2])) == \
            QPoly([Fraction(1, 2), Fraction(1, 2)])

    @given(st.lists(integers, max_size=7), int_divisors)
    def test_divmod_reconstruction(self, u, v):
        # the pseudo-division under poly_gcd: s u = quot v + rem over Z
        s, quot, rem = _int_pdivmod(u, v)
        assert s > 0 and len(rem) < len(v)
        n = max(len(u), len(quot) + len(v) - 1, len(rem))
        lhs = pad(ref_mul([s], u), n)
        rhs = [x + y for x, y in zip(pad(ref_mul(quot, v), n), pad(rem, n))]
        assert lhs == rhs

    @given(units_at_zero, units_at_zero, st.integers(0, 6), st.integers(0, 6))
    def test_gcd_takes_out_the_powers_of_q(self, a, b, i, j):
        # gcd(q^i a, q^j b) = q^min(i, j) gcd(a, b) when a(0) and b(0) are
        # nonzero; the gcd divides both, and leaves coprime cofactors
        x, y = QPoly.monomial(i) * a, QPoly.monomial(j) * b
        g = poly_gcd(x, y)
        assert g == QPoly.monomial(min(i, j)) * poly_gcd(a, b)
        assert g.leading() == 1 and is_canonical(g)
        assert poly_gcd(x.exact_div(g), y.exact_div(g)) == ONE

    @given(polys)
    def test_qminus1_coeffs_match_horner(self, p):
        assert is_canonical(p.shifted())
        assert list(p.shifted().coeffs) == ref_horner(list(p.coeffs), [1, 1])

    @given(polys, shifts)
    def test_evaluate_matches_horner(self, p, v):
        value = p.evaluate(v)
        assert isinstance(value, Fraction)
        assert value == ref_horner(list(p.coeffs), Fraction(v))

    @given(polys, st.integers(1, 4))
    def test_adams(self, p, k):
        spread = p.adams(k)
        assert is_canonical(spread)
        assert spread == QPoly(ref_horner(list(p.coeffs), [0] * k + [1]))

    @given(st.lists(scalars, max_size=10), series_with_unit, st.integers(0, 8))
    def test_trunc_div_matches_the_fraction_recurrence(self, a, b, n):
        # b can be longer than n and have zeros among its first n terms, and
        # neither operand is cut to n terms before the division
        ca, cb = pad(a, n), pad(b, n)
        v = []  # b_0 v_k = a_k - sum_{1<=j<=k} b_j v_{k-j}
        for k in range(n):
            v.append((ca[k] - sum(cb[j] * v[k - j] for j in range(1, k + 1))) / cb[0])
        quot = trunc_div(QPoly(a), QPoly(b), n)
        assert quot == QPoly(v) and is_canonical(quot)
        # the integral quotient (B C) / B of the numerators comes back unscaled
        B, C = QPoly(QPoly(b)._n), QPoly(QPoly(a)._n)
        exact = trunc_div(B * C, B, n)
        assert exact == cut(C.coeffs, n) and exact._d == 1


# terms (shift, scalar, factors) of an integer linear combination: signed and
# wide coefficients, zero scalars, empty and all-zero factors, no factors
factor_tuples = st.lists(integers, max_size=2 * _KRONECKER_MIN).map(tuple)
int_terms = st.tuples(st.integers(0, 20), st.one_of(st.just(0), integers),
                      st.lists(factor_tuples, max_size=3))


def ref_combine(terms):
    """sum scalar q^shift prod factors as the sum of _int_mul products."""
    out = []
    for shift, scalar, factors in terms:
        value = [scalar]
        for f in factors:
            value = _int_mul(value, f) if f else []
            if not value:
                break
        out = [x + y for x, y in zip_longest(out, [0] * shift + value, fillvalue=0)]
    return strip(out)


class TestLinearCombination:
    @given(st.lists(int_terms, max_size=5))
    def test_matches_the_sum_of_products(self, terms):
        assert strip(_int_combine(terms)) == ref_combine(terms)

    @given(st.lists(int_terms, max_size=5), st.lists(int_terms, max_size=5))
    def test_shared_cache(self, first, second):
        # factors cached at one width serve a later sum at another width
        cache = {}
        assert strip(_int_combine(first, cache)) == ref_combine(first)
        assert strip(_int_combine(second + first, cache)) == ref_combine(second + first)

    def test_degenerate_sums(self):
        f = (3, -1, 4)
        assert _int_combine([]) == []
        assert _int_combine([(2, 0, (f,)), (0, 5, (f, ())), (1, 7, ((0, 0),))]) == []
        assert _int_combine([(3, -2, ())]) == [0, 0, 0, -2]
        assert strip(_int_combine([(0, 1, (f,)), (0, -1, (f,))])) == []
        assert _int_combine([(1, 2, (f, f))]) == [0] + ref_mul([2], ref_mul(f, f))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_width_edges(self, k, sign):
        # every term adds to the coefficient of q^3, so it reaches the 1-norm
        # bound; the bound 2^(8k-1) - 1 packs at width k, 2^(8k-1) at k + 1
        for bound, width in ((2 ** (8 * k - 1) - 1, k), (2 ** (8 * k - 1), k + 1)):
            f, g = (0, 0, sign * (bound - 3)), (0, sign)
            cache = {}
            terms = [(1, 1, (f,)), (3, sign, ()), (2, 2, (g,))]
            assert _int_combine(terms, cache) == [0, 0, 0, sign * bound]
            assert set(cache[f][1]) == set(cache[g][1]) == {width}
            # the one-term case behind _int_mul
            n = _KRONECKER_MIN
            assert _int_mul([sign * bound] + [0] * n, [1] + [0] * (n - 1)) == \
                [sign * bound] + [0] * (2 * n - 1)

    @given(st.lists(st.tuples(st.integers(0, 6), scalars, st.lists(polys, max_size=3)),
                   max_size=4))
    def test_qpoly_terms(self, terms):
        # rational scalars and factors are scaled to the lcm of the denominators
        got = QPoly.linear_combination(terms)
        want = QPoly()
        for shift, scalar, factors in terms:
            value = QPoly.monomial(shift, scalar)
            for f in factors:
                value = value * f
            want = want + value
        assert got == want and is_canonical(got)


class TestRationalFunctionLaws:
    @settings(max_examples=60)
    @given(small_rfs, small_rfs, small_rfs)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        if not a.is_zero:
            assert a * a.inverse() == RationalFunction.one()
        if not b.is_zero:
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)

    @settings(max_examples=60)
    @given(small_rfs, small_rfs)
    def test_normal_form(self, a, b):
        for x in (a + b, a * b):
            assert is_canonical(x.num) and is_canonical(x.den)
            assert x.den.leading() == 1
            assert poly_gcd(x.num, x.den).degree == 0
