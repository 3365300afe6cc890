import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount.counting import CountingContext, semistable_series
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import (
    Quiver,
    TruncationSpec,
    dim_vectors,
    form_pairing,
    slope,
    subvectors,
    vec_sub,
)
from quivercount.series import (
    Series,
    TruncationError,
    adams,
    monomial_twist,
    ordinary_exp,
    ordinary_log,
    plethystic_exp,
    plethystic_log,
    plethystic_pow,
    q_exponential,
    series_bar,
    twisted_inverse,
    twisted_mul,
)

ONE = QPoly.one()
Q = QPoly.gen()
INV_1Q = RationalFunction(1, ONE - Q)


def rand_rf(rng):
    num = QPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
    den = rng.choice([ONE, ONE - Q, ONE + Q, ONE - QPoly.monomial(2)])
    return RationalFunction(num, den)


def rand_series(rng, trunc, constant):
    coeffs = {trunc.zero_vector(): constant}
    for alpha in trunc.vectors():
        if sum(alpha) and rng.random() < 0.6:
            coeffs[alpha] = rand_rf(rng)
    return Series(trunc, coeffs)


class TestSeriesBasics:
    def test_truncation_drops_high_terms(self):
        tr = TruncationSpec(1, 2)
        s = Series(tr, {(0,): 1, (1,): 2, (3,): 5})
        assert s.coeff((3,)).is_zero
        assert s.coeff((1,)) == RationalFunction(2)

    def test_cone_theta_must_match_the_variables(self):
        with pytest.raises(ValueError):
            TruncationSpec(2, 3, (1,), 0)
        # theta defaults to the zero stability, whose only vector of
        # nonzero slope mu is the zero vector
        assert set(TruncationSpec(2, 3, None, Fraction(1, 2)).vectors()) == {(0, 0)}

    def test_truncation_spec_is_an_immutable_value(self):
        default, explicit = TruncationSpec(2, 3), TruncationSpec(2, 3, (0, 0), 0)
        assert default == explicit and hash(default) == hash(explicit)
        assert default != TruncationSpec(2, 3, (1, 0), 0)
        coerced = TruncationSpec(2, 3, None, 1 / 2)
        assert coerced.theta == (0, 0) and coerced.mu == Fraction(1, 2)
        assert TruncationSpec(2, 3, [1, 0], Fraction(1, 2)).theta == (1, 0)
        assert type(coerced.mu) is Fraction
        with pytest.raises(AttributeError):
            default.max_height = 4
        with pytest.raises(ValueError, match="alpha length"):
            default.excess((1, 1, 1))

    def test_mul_unit_and_binomials(self):
        tr = TruncationSpec(1, 3)
        x = Series.variable(tr, 0)
        s = Series.one(tr) + x * 3
        assert s * Series.one(tr) == s
        assert (Series.one(tr) + x) * (Series.one(tr) - x) == \
            Series.one(tr) - Series.monomial(tr, (2,))

    def test_incompatible_truncations(self):
        a = Series.one(TruncationSpec(1, 3))
        b = Series.one(TruncationSpec(1, 4))
        with pytest.raises(TruncationError):
            a * b
        with pytest.raises(TruncationError):
            a + Series.one(TruncationSpec(2, 3))

    def test_support_filter_is_part_of_the_truncation(self):
        # the slope-cone series keeps 3 terms, the full series 15, so a sum
        # taken on either truncation would depend on the operand order
        kronecker = Quiver.from_matrix([[0, 2], [0, 0]])
        ctx = CountingContext.create(kronecker, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        a = semistable_series(ctx)
        b = q_exponential(TruncationSpec(2, 4))
        for combine in (lambda x, y: x + y, lambda x, y: x * y,
                        lambda x, y: twisted_mul(x, y, kronecker.ringel_matrix())):
            with pytest.raises(TruncationError):
                combine(a, b)
            with pytest.raises(TruncationError):
                combine(b, a)
        assert a + a == a * 2

    def test_equal_contexts_combine(self):
        # the slope-cone filter is compared by value, so two separately
        # created but equal contexts give compatible series
        kronecker = Quiver.from_matrix([[0, 2], [0, 0]])

        def cone_series(mu):
            return semistable_series(CountingContext.create(
                kronecker, theta=(1, 0), mu=mu, max_height=4))

        a, b = cone_series(Fraction(1, 2)), cone_series(Fraction(1, 2))
        assert a.trunc == b.trunc and a + b == a * 2
        with pytest.raises(TruncationError, match="different support filters"):
            a + cone_series(Fraction(1, 3))

    def test_zero_stability_is_the_full_truncation(self):
        # a context without a stability holds the same truncation as the
        # plain one, so their series combine and compare by coefficients
        kronecker = Quiver.from_matrix([[0, 2], [0, 0]])
        ctx = CountingContext.create(kronecker, max_height=3)
        full = TruncationSpec(2, 3)
        assert ctx.trunc == full and hash(ctx.trunc) == hash(full)
        a = semistable_series(ctx)
        b = q_exponential(full)
        assert (a * b).trunc == full
        assert twisted_mul(a, b, kronecker.ringel_matrix()) == Series.one(full)
        rebuilt = Series(full, a.items())
        assert a == rebuilt and hash(a) == hash(rebuilt)

    def test_equality_and_hash_include_the_support_filter(self):
        # equal coefficients on different supports are different series,
        # as they cannot be combined; equal contexts give equal series
        kronecker = Quiver.from_matrix([[0, 2], [0, 0]])
        cone = TruncationSpec(2, 3, (1, 0), Fraction(1, 2))
        coeffs = {(0, 0): 1, (1, 1): 2}
        assert Series(cone, coeffs) != Series(TruncationSpec(2, 3), coeffs)

        def cone_series():
            return semistable_series(CountingContext.create(
                kronecker, theta=(1, 0), mu=Fraction(1, 2), max_height=4))

        a, b = cone_series(), cone_series()
        assert a == b and hash(a) == hash(b)

    def test_two_variable_product_of_q_exponentials(self):
        # the coefficient of x^(a,b) in the 2-variable q-exponential factors
        tr2 = TruncationSpec(2, 4)
        tr1 = TruncationSpec(1, 4)
        p2 = q_exponential(tr2)
        p1 = q_exponential(tr1)
        for (a, b), c in p2.items():
            assert c == p1.coeff((a,)) * p1.coeff((b,))


class TestTwisted:
    A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])

    def test_unit_vector_weights(self):
        tr = TruncationSpec(2, 3)
        R = self.A2.ringel_matrix()
        e1 = Series.monomial(tr, (1, 0))
        e2 = Series.monomial(tr, (0, 1))
        prod = twisted_mul(e1, e2, R)
        assert prod.coeff((1, 1)) == RationalFunction.q_power(1)
        one = Series.one(tr)
        assert twisted_mul(e1, one, R) == e1

    def test_zero_form_is_plain_product(self):
        rng = random.Random(11)
        tr = TruncationSpec(1, 4)
        loop = Quiver.from_matrix([[1]])  # <d, e> = 0
        a = rand_series(rng, tr, RationalFunction.one())
        b = rand_series(rng, tr, rand_rf(rng))
        assert twisted_mul(a, b, loop.ringel_matrix()) == a * b

    def test_associativity_and_unit(self):
        rng = random.Random(12)
        tr = TruncationSpec(2, 3)
        R = self.A2.ringel_matrix()
        for _ in range(8):
            a = rand_series(rng, tr, rand_rf(rng))
            b = rand_series(rng, tr, rand_rf(rng))
            c = rand_series(rng, tr, rand_rf(rng))
            lhs = twisted_mul(twisted_mul(a, b, R), c, R)
            rhs = twisted_mul(a, twisted_mul(b, c, R), R)
            assert lhs == rhs
            assert twisted_mul(a, Series.one(tr), R) == a

    def test_inverse_round_trip(self):
        rng = random.Random(13)
        tr = TruncationSpec(2, 3)
        R = self.A2.ringel_matrix()
        assert twisted_inverse(Series.one(tr), R) == Series.one(tr)
        for _ in range(8):
            a = rand_series(rng, tr, RationalFunction.one())
            inv = twisted_inverse(a, R)
            assert twisted_mul(a, inv, R) == Series.one(tr)

    def test_inverse_requires_unit(self):
        tr = TruncationSpec(1, 3)
        with pytest.raises(ZeroDivisionError, match="not invertible|constant"):
            twisted_inverse(Series.variable(tr, 0), ((0,),))


class TestAdams:
    def test_identity_and_substitution(self):
        tr = TruncationSpec(1, 4)
        x = Series.variable(tr, 0)
        s = x * INV_1Q
        assert adams(s, 1) == s
        expected = Series.monomial(tr, (2,)) * \
            RationalFunction(1, ONE - QPoly.monomial(2))
        assert adams(s, 2) == expected

    def test_composition(self):
        rng = random.Random(14)
        tr = TruncationSpec(1, 6)
        for _ in range(8):
            s = rand_series(rng, tr, rand_rf(rng))
            assert adams(adams(s, 2), 3) == adams(s, 6)

    def test_commutes_with_mul(self):
        rng = random.Random(15)
        tr = TruncationSpec(1, 6)
        for _ in range(8):
            a = rand_series(rng, tr, rand_rf(rng))
            b = rand_series(rng, tr, rand_rf(rng))
            assert adams(a * b, 2) == adams(a, 2) * adams(b, 2)

    def test_commutes_with_exp_under_truncation(self):
        rng = random.Random(16)
        tr = TruncationSpec(1, 6)
        for _ in range(5):
            coeffs = {(h,): rand_rf(rng) for h in (1, 2, 3)}
            a = Series(tr, coeffs)
            assert adams(plethystic_exp(a), 2) == plethystic_exp(adams(a, 2))


class TestExpLog:
    def test_exp_examples(self):
        tr = TruncationSpec(1, 5)
        x = Series.variable(tr, 0)
        assert plethystic_exp(Series.zero(tr)) == Series.one(tr)
        assert plethystic_exp(x * INV_1Q) == q_exponential(tr)
        assert plethystic_exp(-x) == Series.one(tr) - x

    def test_exp_rejects_constant_terms(self):
        tr = TruncationSpec(1, 3)
        with pytest.raises(ValueError):
            plethystic_exp(Series.one(tr))
        with pytest.raises(ValueError):
            plethystic_log(Series.zero(tr))

    def test_log_examples(self):
        tr = TruncationSpec(1, 5)
        x = Series.variable(tr, 0)
        assert plethystic_log(Series.one(tr)).is_zero
        assert plethystic_log(q_exponential(tr)) == x * INV_1Q

    def test_mutual_inversion_random(self):
        rng = random.Random(17)
        for _ in range(10):
            nv = rng.choice((1, 2))
            tr = TruncationSpec(nv, 4)
            a = rand_series(rng, tr, RationalFunction.zero())
            assert plethystic_log(plethystic_exp(a)) == a
            b = rand_series(rng, tr, RationalFunction.one())
            assert plethystic_exp(plethystic_log(b)) == b

    def test_exp_turns_sums_into_products(self):
        rng = random.Random(18)
        for _ in range(10):
            tr = TruncationSpec(2, 4)
            a = rand_series(rng, tr, RationalFunction.zero())
            b = rand_series(rng, tr, RationalFunction.zero())
            assert plethystic_exp(a + b) == plethystic_exp(a) * plethystic_exp(b)

    def test_pow_basics(self):
        rng = random.Random(19)
        tr = TruncationSpec(1, 4)
        f = rand_series(rng, tr, RationalFunction.one())
        assert plethystic_pow(f, Series.one(tr)) == f
        assert plethystic_pow(f, Series.zero(tr)) == Series.one(tr)
        assert plethystic_pow(f, Series.one(tr) * 2) == f * f

    def test_ordinary_exp_log_round_trip(self):
        rng = random.Random(20)
        tr = TruncationSpec(1, 5)
        a = rand_series(rng, tr, RationalFunction.zero())
        assert ordinary_log(ordinary_exp(a)) == a


class TestTwists:
    def test_weight_twist_inverse(self):
        rng = random.Random(21)
        tr = TruncationSpec(2, 3)
        s = rand_series(rng, tr, rand_rf(rng))
        assert monomial_twist(s, lambda a: 0) == s
        there = monomial_twist(s, lambda a: 2 * a[0] - a[1])
        assert there != s
        assert monomial_twist(there, lambda a: a[1] - 2 * a[0]) == s

    def test_quadratic_twist(self):
        loop2 = Quiver.from_matrix([[2]])
        tr = TruncationSpec(1, 3)
        s = Series(tr, {(0,): 1, (2,): 1})
        t = monomial_twist(s, loop2.tits_form)
        assert t.coeff((0,)) == RationalFunction.one()
        assert t.coeff((2,)) == RationalFunction.q_power(-4)  # (1-m) d^2 = -4
        twice = monomial_twist(t, loop2.tits_form)
        assert twice.coeff((2,)) == RationalFunction.q_power(-8)

    def test_bar(self):
        tr = TruncationSpec(1, 4)
        s = Series.one(tr) + Series.variable(tr, 0) * RationalFunction(Q)
        b = series_bar(s)
        assert b.coeff((1,)) == RationalFunction.q_power(-1)
        assert series_bar(b) == s

    def test_bar_of_q_exponential(self):
        tr = TruncationSpec(1, 4)
        barp = series_bar(q_exponential(tr))
        for k in range(5):
            expected = RationalFunction.one()
            for i in range(1, k + 1):
                expected = expected * (
                    RationalFunction.one() - RationalFunction.q_power(-i)
                ).inverse()
            assert barp.coeff((k,)) == expected


# -- the series recurrences against the loops they replaced ---------------------


def reference_exp(a):
    """exp(a) as the power sum sum_n a^n / n!."""
    acc = term = Series.one(a.trunc)
    for n in range(1, a.trunc.max_height + 1):
        term = term * a * Fraction(1, n)
        acc = acc + term
    return acc


def reference_log(a):
    """log(a) as the power sum sum_n (-1)^{n+1} (a-1)^n / n."""
    u = a - 1
    acc, power = Series.zero(a.trunc), Series.one(a.trunc)
    for n in range(1, a.trunc.max_height + 1):
        power = power * u
        acc = acc + power * Fraction((-1) ** (n + 1), n)
    return acc


def reference_twisted_inverse(a, form):
    """The twisted inverse by a direct loop over alpha and 0 < beta <= alpha."""
    trunc = a.trunc
    zero = trunc.zero_vector()
    inv0 = a.constant_term.inverse()
    out = {zero: inv0}
    for alpha in trunc.vectors():
        if alpha == zero:
            continue
        acc = RationalFunction.zero()
        for beta in subvectors(alpha):
            rest = vec_sub(alpha, beta)
            if beta != zero and rest in out:
                acc = acc + a.coeff(beta) * out[rest] * \
                    RationalFunction.q_power(-form_pairing(form, beta, rest))
        out[alpha] = -(inv0 * acc)
    return Series(trunc, out)


def reference_twisted_mul(a, b, form):
    """Each coefficient of the twisted product from its defining sum."""
    coeffs = {}
    for alpha in a.trunc.vectors():
        acc = RationalFunction.zero()
        for beta in subvectors(alpha):
            rest = vec_sub(alpha, beta)
            acc = acc + a.coeff(beta) * b.coeff(rest) * \
                RationalFunction.q_power(-form_pairing(form, beta, rest))
        coeffs[alpha] = acc
    return Series(a.trunc, coeffs)


def restrict(s, trunc):
    return Series(trunc, s.items())


small_rfs = st.builds(
    RationalFunction,
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(QPoly),
    st.sampled_from([ONE, ONE - Q, ONE + Q, ONE - QPoly.monomial(2)]),
)


@st.composite
def truncations(draw):
    """1-3 variables to height <= 4, either full or on a slope cone, plus a
    pairing matrix; the cone's slope is that of a drawn vector, so it is
    never empty."""
    nvars = draw(st.integers(1, 3))
    max_height = draw(st.integers(1, 4))
    full = TruncationSpec(nvars, max_height)
    trunc = full
    if draw(st.booleans()):
        theta = tuple(draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)))
        gamma = draw(st.sampled_from([a for a in full.vectors() if sum(a)]))
        trunc = TruncationSpec(nvars, max_height, theta, slope(theta, gamma))
    form = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
                         min_size=nvars, max_size=nvars))
    return full, trunc, form


def series_on(draw, trunc, constant):
    coeffs = {alpha: draw(st.one_of(st.just(0), small_rfs))
              for alpha in trunc.vectors() if sum(alpha)}
    coeffs[trunc.zero_vector()] = constant
    return Series(trunc, coeffs)


@st.composite
def cases(draw, constant=None):
    """(full truncation, truncation, form, series) with the given constant
    term, or a random one."""
    full, trunc, form = draw(truncations())
    c = draw(small_rfs) if constant is None else constant
    return full, trunc, form, series_on(draw, trunc, c)


class TestRecurrences:
    @settings(max_examples=60)
    @given(truncations())
    def test_cone_is_the_slope_set_and_closed_under_differences(self, case):
        _, trunc, _ = case
        zero = trunc.zero_vector()
        cone = set(trunc.vectors())
        everything = set(dim_vectors(trunc.nvars, trunc.max_height))
        assert cone == {zero} | {a for a in everything if a != zero and
                                 slope(trunc.theta, a) == trunc.mu}
        for a in everything - {zero}:
            e, d = trunc.excess(a), slope(trunc.theta, a) - trunc.mu
            assert e == (trunc.mu.denominator * sum(map(mul, trunc.theta, a))
                         - trunc.mu.numerator * sum(a))
            assert (e > 0, e < 0) == (d > 0, d < 0), (trunc, a)
        for alpha in cone:
            for beta in subvectors(alpha):
                if beta in cone:
                    assert vec_sub(alpha, beta) in cone, (trunc, alpha, beta)

    @settings(max_examples=40)
    @given(cases(constant=0))
    def test_exp_matches_power_sum_and_cone_restriction(self, case):
        full, trunc, _, a = case
        e = ordinary_exp(a)
        assert e == reference_exp(a)
        assert e == restrict(ordinary_exp(restrict(a, full)), trunc)
        assert ordinary_log(e) == a

    @settings(max_examples=40)
    @given(cases(constant=1))
    def test_log_matches_power_sum_and_cone_restriction(self, case):
        full, trunc, _, a = case
        f = ordinary_log(a)
        assert f == reference_log(a)
        assert f == restrict(ordinary_log(restrict(a, full)), trunc)
        assert ordinary_exp(f) == a

    @settings(max_examples=40)
    @given(cases().filter(lambda case: not case[3].constant_term.is_zero))
    def test_twisted_inverse_matches_loop_and_cone_restriction(self, case):
        full, trunc, form, a = case
        g = twisted_inverse(a, form)
        assert g == reference_twisted_inverse(a, form)
        assert g == restrict(twisted_inverse(restrict(a, full), form), trunc)
        assert twisted_mul(a, g, form) == Series.one(trunc)

    @settings(max_examples=40)
    @given(st.data())
    def test_twisted_mul_matches_coefficient_sum(self, data):
        full, trunc, form, a = data.draw(cases())
        b = series_on(data.draw, trunc, data.draw(small_rfs))
        zero_form = [[0] * trunc.nvars for _ in range(trunc.nvars)]
        assert twisted_mul(a, b, form) == reference_twisted_mul(a, b, form)
        assert twisted_mul(a, b, zero_form) == a * b
        assert a * b == reference_twisted_mul(a, b, zero_form)
        assert twisted_mul(a, b, form) == restrict(
            twisted_mul(restrict(a, full), restrict(b, full), form), trunc)


@pytest.mark.parametrize("build, error", [
    (lambda tr: Series(tr, {(1,): 1}), ValueError),
    (lambda tr: Series(tr, {(1, 0): "q"}), TypeError),
    (lambda tr: adams(Series.one(tr), 0), ValueError),
    (lambda tr: ordinary_exp(Series.one(tr)), ValueError),
    (lambda tr: ordinary_log(Series.zero(tr)), ValueError),
], ids=["key-length", "coefficient-type", "adams-zero", "exp-constant-term",
        "log-constant-term"])
def test_input_checks(build, error):
    with pytest.raises(error):
        build(TruncationSpec(2, 3))
