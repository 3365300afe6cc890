import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount.counting import (
    CountTable,
    CountingContext,
    IntegralityError,
    InvariantError,
    _gl_order,
    _hn_count,
    absolutely_stable_table,
    loop_layer_checks,
    necklace_count,
    positivity_report,
    rep_ratio,
    residual_q1_expansion,
    residual_series_recursive,
    semistable_ratio,
    semistable_series,
    stable_end_degree_poly,
)
from quivercount import qpoly, quiver as quiver_module
from quivercount.numtheory import divisors
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import Quiver, TruncationSpec, dim_vectors, slope
from quivercount.series import (
    Series,
    adams,
    ordinary_pow,
    plethystic_exp,
    plethystic_pow,
    q_exponential,
    residual_series,
    semistable_ratio_reference,
    semistable_series_closed,
    twisted_inverse,
    twisted_mul,
)

ONE = QPoly.one()
Q = QPoly.gen()
INV_1Q = RationalFunction(1, ONE - Q)

A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])
A3 = Quiver.from_arrows(("1", "2", "3"), [("1", "2"), ("2", "3")])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])
CYCLIC = Quiver.from_matrix([[0, 2], [1, 0]])


def loop(m):
    return Quiver.from_matrix([[m]])


def taylor_layers(series, order):
    """Layers 0..order of the (q-1) expansions of the coefficients of series."""
    layers = [{} for _ in range(order + 1)]
    for alpha, c in series.items():
        for n, value in enumerate(c.taylor_at_one(order).coeffs):
            if value:
                layers[n][alpha] = value
    return layers


def exp_of_table(ctx, table):
    """Exp(a / (1-q)) assembled from a counting table."""
    coeffs = {
        alpha: RationalFunction(poly) * INV_1Q
        for alpha, poly in table.entries.items()
    }
    return plethystic_exp(Series(ctx.trunc, coeffs))


class TestContext:
    def test_cone_filter(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=6)
        cone = [a for a in ctx.trunc.vectors() if sum(a)]
        assert cone == [(1, 1), (2, 2), (3, 3)]

    def test_equality_ignores_the_caches(self):
        a = CountingContext.create(loop(2), max_height=3)
        b = CountingContext.create(loop(2), max_height=3)
        absolutely_stable_table(a)
        assert a._hn_cache and a._packed and not b._hn_cache
        assert a == b and hash(a) == hash(b)
        assert a != CountingContext.create(loop(2), max_height=4)
        with pytest.raises(AttributeError):
            a.trunc = b.trunc

    def test_empty_cone_rejected(self):
        # slope 1/5 first appears at (1, 4), beyond height 3
        with pytest.raises(ValueError):
            CountingContext.create(A2, theta=(1, 0), mu=Fraction(1, 5),
                                   max_height=3)


class TestRepRatio:
    def test_trivial(self):
        assert rep_ratio(loop(1), (0,)) == RationalFunction.one()

    def test_one_loop(self):
        assert rep_ratio(loop(1), (1,)) == RationalFunction(Q, Q - 1)

    def test_gl_order_is_the_signed_pochhammer_product(self):
        # #GL_n = (-1)^n q^{n(n-1)/2} prod_{i<=n} (1 - q^i), against the product
        # of the q^n - q^j that _gl_order takes as its definition
        assert _gl_order((0,)).is_one
        assert _gl_order((1,)) == Q - 1
        assert _gl_order((2,)).evaluate(2) == 6
        for n in range(11):
            pochhammer = ONE
            for i in range(1, n + 1):
                pochhammer = pochhammer * (ONE - QPoly.monomial(i))
            assert _gl_order((n,)) == QPoly.monomial(n * (n - 1) // 2, (-1) ** n) * pochhammer, n
        assert _gl_order((2, 0, 3)) == _gl_order((2,)) * _gl_order((3,))

    def test_gl_order_splits_into_the_mobius_scale(self):
        # #GL_alpha(q) = scale_k * #GL_{alpha/k}(q^k), and the scale is 1 at k = 1
        for nvars in (1, 2, 3):
            for alpha in dim_vectors(nvars, 8):
                if not sum(alpha):
                    continue
                assert _gl_order(alpha, 1).is_one
                for k in divisors(gcd(*alpha)):
                    base = tuple(a // k for a in alpha)
                    assert _gl_order(alpha, k) * _gl_order(base).adams(k) == \
                        _gl_order(alpha), (alpha, k)

    def test_gl_order_takes_no_qpoly_product(self, monkeypatch):
        # one integer list: a zero entry adds no step, and no QPoly is multiplied
        expected = _gl_order((3,)) * _gl_order((2,))
        scale = _gl_order((4,)).exact_div(_gl_order((2,)).adams(2)) * \
            _gl_order((6,)).exact_div(_gl_order((3,)).adams(2))

        def forbidden(*args):
            raise AssertionError("QPoly product in _gl_order")

        monkeypatch.setattr(QPoly, "__mul__", forbidden)
        assert _gl_order((0,) * 500 + (3, 0, 2)) == expected
        assert _gl_order((4, 0, 6), 2) == scale

    def test_closed_form_via_conjugated_binomial(self):
        for quiver in (loop(1), loop(2), A2, KRONECKER):
            tr = TruncationSpec(quiver.nvertices, 3)
            exponential = q_exponential(tr)
            for alpha in tr.vectors():
                lhs = rep_ratio(quiver, alpha)
                rhs = RationalFunction.q_power(-quiver.tits_form(alpha)) * \
                    exponential.coeff(alpha).bar()
                assert lhs == rhs, (quiver, alpha)


class TestSemistableRatio:
    def test_zero_stability_gives_rep_ratio(self):
        ctx = CountingContext.create(loop(2), max_height=5)
        for d in range(1, 6):
            assert semistable_ratio(ctx, (d,)) == rep_ratio(loop(2), (d,))

    def test_kronecker_slope_half(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        # decompositions of (1,1): the whole vector, and e1 then e2; the
        # admissible split contributes with twist <e2, e1> = 0
        t11 = rep_ratio(KRONECKER, (1, 1))
        t10 = rep_ratio(KRONECKER, (1, 0))
        t01 = rep_ratio(KRONECKER, (0, 1))
        expected = t11 - t10 * t01
        got = semistable_ratio(ctx, (1, 1))
        assert got == expected
        assert got == RationalFunction(ONE + Q, Q - 1)

    def test_slope_mismatch_rejected(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        for ratio in (semistable_ratio, semistable_ratio_reference):
            with pytest.raises(ValueError):
                ratio(ctx, (1, 0))
            # theta.alpha = mu |alpha| on the first two entries alone
            with pytest.raises(ValueError):
                ratio(ctx, (1, 1, 0))
            assert ratio(ctx, (0, 0)) == RationalFunction.one()

    def test_dp_matches_reference_enumeration(self):
        configs = [
            (KRONECKER, (1, 0), Fraction(1, 2), [(1, 1), (2, 2)]),
            (KRONECKER, (1, 0), Fraction(1), [(1, 0), (2, 0), (3, 0)]),
            (A2, (1, 0), Fraction(1, 2), [(1, 1), (2, 2)]),
            (A2, (2, -1), Fraction(1, 2), [(1, 1), (2, 2)]),
            (A3, (1, 0, -1), Fraction(0), [(1, 1, 1), (1, 0, 1), (0, 1, 0)]),
        ]
        for quiver, theta, mu, alphas in configs:
            ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=5)
            for alpha in alphas:
                if sum(alpha) == 0:
                    continue
                assert semistable_ratio(ctx, alpha) == \
                    semistable_ratio_reference(ctx, alpha), (quiver, theta, alpha)

    @pytest.mark.parametrize("quiver,height", [(KRONECKER, 10), (CYCLIC, 8)],
                             ids=["kronecker", "cyclic"])
    def test_recursion_runs_without_gcds(self, monkeypatch, quiver, height):
        # the recursion runs on point counts in Z[q]; only the final division
        # by #GL normalizes, once per cone vector
        calls = []
        gcd = qpoly.poly_gcd
        monkeypatch.setattr(qpoly, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        ctx = CountingContext.create(quiver, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=height)
        semistable_series(ctx)
        assert 0 < len(calls) <= sum(1 for _ in ctx.trunc.vectors())

    def test_series_constant_term(self):
        ctx = CountingContext.create(A2, max_height=3)
        assert semistable_series(ctx).constant_term.is_one

    def test_zero_stability_closed_form(self):
        for quiver in (loop(1), loop(3), A2, KRONECKER):
            ctx = CountingContext.create(quiver, max_height=4)
            assert semistable_series(ctx) == semistable_series_closed(ctx)

    def test_acyclic_inverse_is_q_exponential(self):
        for quiver in (A2, KRONECKER):
            ctx = CountingContext.create(quiver, max_height=4)
            closed = semistable_series_closed(ctx)
            p = q_exponential(ctx.trunc)
            assert twisted_mul(closed, p, quiver.ringel_matrix()) == \
                Series.one(ctx.trunc)
            assert twisted_inverse(closed, quiver.ringel_matrix()) == p


def assert_inverse_is_the_non_strict_sum(ctx):
    inverse = twisted_inverse(semistable_series(ctx), ctx.quiver.ringel_matrix())
    for alpha in ctx.trunc.vectors():
        if sum(alpha):
            assert RationalFunction(-_hn_count(ctx, alpha, 0), _gl_order(alpha)) == \
                inverse.coeff(alpha), (ctx.quiver, ctx.trunc.theta, ctx.trunc.mu, alpha)


class TestTwistedInverse:
    """-_hn_count(ctx, alpha, 0) / #GL_alpha, the Harder-Narasimhan sum with
    >= in place of > in its slope test, is the twisted inverse of the
    semistable series at every nonzero cone vector."""

    @pytest.mark.parametrize("quiver,theta,mu", [
        (loop(1), None, Fraction(0)), (loop(2), None, Fraction(0)),
        (loop(3), None, Fraction(0)), (A2, None, Fraction(0)), (A3, None, Fraction(0)),
        (KRONECKER, None, Fraction(0)), (CYCLIC, None, Fraction(0)),
        (A3, (2, 1, 0), Fraction(1)), (A3, (1, 0, 0), Fraction(1, 3)),
        (CYCLIC, (0, 1), Fraction(1, 3)), (KRONECKER, (0, 1), Fraction(1, 2)),
        (KRONECKER, (1, 0), Fraction(1, 2)), (CYCLIC, (1, 0), Fraction(1, 2)),
    ], ids=["loop1", "loop2", "loop3", "a2", "a3", "kronecker", "cyclic",
            "a3-cone", "a3-third-cone", "cyclic-reversed-cone", "kronecker-reversed-cone",
            "kronecker-cone", "cyclic-cone"])
    def test_named_quivers(self, quiver, theta, mu):
        assert_inverse_is_the_non_strict_sum(
            CountingContext.create(quiver, theta=theta, mu=mu, max_height=5))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                    min_size=2, max_size=2),
           st.lists(st.integers(-3, 3), min_size=2, max_size=2),
           st.lists(st.integers(0, 2), min_size=2, max_size=2).filter(any))
    def test_two_vertex_quivers(self, matrix, theta, v):
        # mu is the slope of v, so v lies on the cone
        ctx = CountingContext.create(Quiver.from_matrix(matrix), theta=theta,
                                     mu=slope(theta, v), max_height=5)
        assert_inverse_is_the_non_strict_sum(ctx)


class TestStableClassTable:
    def test_acyclic_counts_unit_vectors_only(self):
        for quiver in (A2, A3):
            ctx = CountingContext.create(quiver, max_height=4)
            table = absolutely_stable_table(ctx)
            for alpha, poly in table.entries.items():
                if sum(alpha) == 1:
                    assert poly == ONE
                else:
                    assert poly.is_zero

    def test_loop_quivers_linear_count(self):
        for m in (1, 2, 3):
            ctx = CountingContext.create(loop(m), max_height=3)
            table = absolutely_stable_table(ctx)
            assert table.poly((1,)) == QPoly.monomial(m)

    def test_one_loop_higher_counts_vanish(self):
        ctx = CountingContext.create(loop(1), max_height=6)
        table = absolutely_stable_table(ctx)
        for d in range(2, 7):
            assert table.poly((d,)).is_zero

    def test_kronecker_slope_half_count(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        table = absolutely_stable_table(ctx)
        assert table.poly((1, 1)) == ONE + Q

    def test_inversion_round_trip(self):
        configs = [
            (loop(2), None, Fraction(0)),
            (A2, None, Fraction(0)),
            (KRONECKER, (1, 0), Fraction(1, 2)),
        ]
        for quiver, theta, mu in configs:
            ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=4)
            table = absolutely_stable_table(ctx)
            prod = twisted_mul(semistable_series(ctx), exp_of_table(ctx, table),
                               quiver.ringel_matrix())
            assert prod == Series.one(ctx.trunc)

    def test_off_by_one_point_count_is_an_integrality_error(self):
        ctx = CountingContext.create(loop(2), max_height=3)
        # the table reads the non-strict sum, least = 0, which is minus the
        # #GL-scaled twisted inverse
        ctx._hn_cache[((2,), 0)] = _hn_count(ctx, (2,), 0) + ONE
        with pytest.raises(IntegralityError, match=r"^count at \(2,\) "):
            absolutely_stable_table(ctx)

    def test_negative_stable_count_is_an_invariant_error(self):
        # a count of -q at (1,) gives s_{(2,), 2} = (q - q^2) / 2, which is -1
        # at q = 2
        ctx = CountingContext.create(loop(1), max_height=2)
        table = CountTable({(1,): -Q}, ctx)
        with pytest.raises(InvariantError, match=(r"^stable count for \(2,\) with degree 2 "
                                                  r"evaluates to -1 at q = 2$")):
            stable_end_degree_poly(table, (1,), 2)

    @pytest.mark.parametrize("quiver,theta,height", [(loop(3), None, 8),
                                                     (KRONECKER, (1, 0), 12),
                                                     (CYCLIC, None, 6),
                                                     (KRONECKER, None, 8)],
                             ids=["loop3", "kronecker-cone", "cyclic", "kronecker"])
    def test_table_does_no_rational_function_arithmetic(self, monkeypatch, quiver,
                                                        theta, height):
        # every series of the table is #GL-scaled and stays in Z[q]; #GL and the
        # q-binomials are built from their definitions, so the only division
        # left is each count's integrality check.  The Log is taken through the
        # Euler operator, so every packed sum has int scalars and integer
        # factors, and each count divides an integer polynomial.  The caches
        # start cold, so that no division hides in an earlier test's entries.
        def forbidden(*args):
            raise AssertionError("rational function arithmetic in the count table")

        monkeypatch.setattr(qpoly, "poly_gcd", forbidden)
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(RationalFunction, name, forbidden)
        terms, dividends = [], []
        combine, exact_div = QPoly.linear_combination, QPoly.exact_div

        def recorded_combine(new_terms, cache=None):
            new_terms = list(new_terms)
            terms.extend(new_terms)
            return combine(new_terms, cache)

        monkeypatch.setattr(QPoly, "linear_combination", staticmethod(recorded_combine))
        monkeypatch.setattr(QPoly, "exact_div",
                            lambda a, b: dividends.append(a) or exact_div(a, b))
        monkeypatch.setattr(quiver_module, "_QBINOMS", [])
        mu = Fraction(1, 2) if theta else Fraction(0)
        ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=height)
        counts = sum(1 for a in ctx.trunc.vectors() if sum(a))
        assert len(absolutely_stable_table(ctx).entries) == counts
        assert len(dividends) <= counts
        assert terms and dividends
        for _, scalar, factors in terms:
            assert type(scalar) is int and all(f._d == 1 for f in factors)
        assert all(a._d == 1 for a in dividends)

    def test_table_json_shape(self):
        ctx = CountingContext.create(loop(2), max_height=2)
        table = absolutely_stable_table(ctx)
        assert [list(row) for row in table.to_json()] == \
            [["alpha", "poly_q", "poly_qminus1"]] * 2
        with pytest.raises(AttributeError):
            table.entries = {}


class TestEndDegreeCounts:
    def setup_method(self):
        self.ctx = CountingContext.create(loop(2), max_height=4)
        self.table = absolutely_stable_table(self.ctx)

    def test_degree_one_is_the_table(self):
        assert stable_end_degree_poly(self.table, (1,), 1) == \
            self.table.poly((1,))

    def test_adams_decomposition(self):
        # psi_r(a_alpha) = sum_{k|r} k s_{k alpha, k}
        from quivercount.numtheory import divisors
        a1 = self.table.poly((1,))
        for r in range(1, 5):
            total = QPoly.zero()
            for k in divisors(r):
                total = total + stable_end_degree_poly(self.table, (1,), k) * k
            assert total == a1.adams(r), r

    def test_power_identity(self):
        rng = random.Random(40)
        tr = self.ctx.trunc
        for _ in range(5):
            coeffs = {(0,): RationalFunction.one()}
            for h in range(1, 5):
                coeffs[(h,)] = RationalFunction(
                    QPoly([rng.randint(-2, 2) for _ in range(2)]))
            f = Series(tr, coeffs)
            a1 = RationalFunction(self.table.poly((1,)))
            lhs = plethystic_pow(f, Series.one(tr) * a1)
            rhs = Series.one(tr)
            for r in range(1, 5):
                s = stable_end_degree_poly(self.table, (1,), r)
                rhs = rhs * ordinary_pow(adams(f, r),
                                         Series.one(tr) * RationalFunction(s))
            assert lhs == rhs

    def test_degree_two_is_the_mobius_sum(self):
        # s_{2 alpha, 2} = (a_alpha(q^2) - a_alpha(q)) / 2
        a1 = self.table.poly((1,))
        assert stable_end_degree_poly(self.table, (1,), 2) == \
            (a1.adams(2) - a1) * Fraction(1, 2)
        with pytest.raises(ValueError):
            stable_end_degree_poly(self.table, (1,), 0)


class TestResidualSeries:
    def test_acyclic_residual_is_one(self):
        ctx = CountingContext.create(A2, max_height=4)
        table = absolutely_stable_table(ctx)
        assert residual_series(table) == Series.one(ctx.trunc)
        assert residual_series_recursive(ctx) == Series.one(ctx.trunc)
        assert residual_q1_expansion(ctx, 0)[0] == {(0, 0): 1}
        layers = residual_q1_expansion(ctx, 2)
        assert layers[0] == {(0, 0): 1}
        assert layers[1] == {} and layers[2] == {}
        with pytest.raises(ValueError, match="order must be nonnegative"):
            residual_q1_expansion(ctx, -1)

    def test_exp_and_recursion_agree(self):
        for m in (1, 2, 3):
            ctx = CountingContext.create(loop(m), max_height=5)
            table = absolutely_stable_table(ctx)
            assert residual_series(table) == residual_series_recursive(ctx)

    def test_loop_value_at_one(self):
        for m in (1, 2, 3, 4):
            ctx = CountingContext.create(loop(m), max_height=6)
            assert residual_q1_expansion(ctx, 0)[0] == {(0,): 1, (1,): -m}

    def test_at_one_matches_taylor_slice(self):
        # the cyclic quiver is a two-vertex case with nonzero layers
        for quiver in (loop(2), loop(3), CYCLIC):
            ctx = CountingContext.create(quiver, max_height=5)
            assert residual_q1_expansion(ctx, 3) == \
                taylor_layers(residual_series_recursive(ctx), 3)

    def test_loop_layer_checks(self):
        for m in (1, 2, 3, 4):
            ctx = CountingContext.create(loop(m), max_height=6)
            layers = residual_q1_expansion(ctx, 2)
            assert loop_layer_checks(ctx, layers) == \
                (True, [0, None, None] if m == 1 else [0, 2, 5]), m
            layers[1][(3,)] = layers[1].get((3,), 0) + 1
            assert loop_layer_checks(ctx, layers)[0] is False, m

    def test_requires_zero_stability(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        for needs_zero_stability in (residual_series_recursive, semistable_series_closed,
                                     lambda c: residual_series(absolutely_stable_table(c))):
            with pytest.raises(ValueError, match="defined for the zero stability"):
                needs_zero_stability(ctx)


class TestCardinalityPositivity:
    def test_values_at_prime_powers_are_nonnegative(self):
        # ratios and counts are cardinalities (divided by group orders), so
        # every evaluation at a prime power must be nonnegative
        configs = [
            (loop(2), None, Fraction(0)),
            (A2, None, Fraction(0)),
            (KRONECKER, (1, 0), Fraction(1, 2)),
        ]
        for quiver, theta, mu in configs:
            ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=4)
            table = absolutely_stable_table(ctx)
            for alpha in ctx.trunc.vectors():
                if sum(alpha) == 0:
                    continue
                for q in (2, 3, 4, 5):
                    assert semistable_ratio(ctx, alpha).evaluate(q) >= 0
                    assert table.poly(alpha).evaluate(q) >= 0


class TestNecklaces:
    def test_values(self):
        assert necklace_count(2, 1) == 2
        assert necklace_count(2, 2) == 1
        assert necklace_count(2, 3) == 2
        assert necklace_count(3, 2) == 3
        assert necklace_count(2, 6) == 9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            necklace_count(0, 3)


class TestPositivityReport:
    def test_loop2_report(self):
        ctx = CountingContext.create(loop(2), max_height=4)
        table = absolutely_stable_table(ctx)
        by_alpha = {row.alpha: row for row in positivity_report(table)}
        # proven facts: constant term vanishes beyond height one, the linear
        # term counts primitive necklaces
        assert by_alpha[(1,)].linear_term == 2
        for d in range(2, 5):
            row = by_alpha[(d,)]
            assert row.constant_term == 0
            assert row.necklaces == necklace_count(2, d)
            assert row.linear_matches_necklaces
            assert row.all_integer
        # experimental observation, reported not asserted: record shape only
        assert isinstance(by_alpha[(3,)].all_nonnegative, bool)

    def test_multi_vertex_has_no_necklace_column(self):
        ctx = CountingContext.create(A2, max_height=2)
        rows = positivity_report(absolutely_stable_table(ctx))
        assert all(row.necklaces is None for row in rows)
        assert list(rows[0].to_json()) == [
            "alpha", "coeffs_qminus1", "constant_term", "linear_term",
            "all_nonnegative", "all_integer", "necklaces", "linear_matches_necklaces"]
        with pytest.raises(AttributeError):
            rows[0].necklaces = 1
