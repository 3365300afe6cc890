import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount import quiver as quiver_module
from quivercount.counting import qbinom_jet
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import (
    Quiver,
    TruncationSpec,
    dim_vectors,
    qbinom,
    _qbinom_poly,
    qbinom_vec,
    slope,
)
from quivercount.series import (
    Series,
    monomial_twist,
    plethystic_exp,
    q_binomial_series,
    q_exponential,
    series_bar,
)

ONE = QPoly.one()
Q = QPoly.gen()
INV_1Q = RationalFunction(1, ONE - Q)

A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])
A3 = Quiver.from_arrows(("1", "2", "3"), [("1", "2"), ("2", "3")])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])


def loop(m):
    return Quiver.from_matrix([[m]])


class TestQuiverStructure:
    def test_parsing_both_forms(self):
        via_arrows = Quiver.from_json(
            {"vertices": ["a", "b"], "arrows": [["a", "b"], ["a", "b"]]})
        via_matrix = Quiver.from_json(
            {"vertices": ["a", "b"], "matrix": [[0, 2], [0, 0]]})
        assert via_arrows == via_matrix
        assert via_arrows.arrow_list() == ((0, 1), (0, 1))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            Quiver.from_json({})
        with pytest.raises(ValueError):
            Quiver.from_json({"vertices": ["a"], "arrows": [["a", "b"]]})
        with pytest.raises(ValueError):
            Quiver.from_json({"vertices": ["a", "b"], "matrix": [[0, 1]]})

    def test_duplicate_vertex_names(self):
        with pytest.raises(ValueError, match="distinct"):
            Quiver.from_arrows(("v", "v"), [("v", "v")])
        with pytest.raises(ValueError, match="distinct"):
            Quiver.from_matrix([[0, 1], [0, 0]], ("v", "v"))

    @pytest.mark.parametrize("entry", ["a", 1.5, True, -1, None])
    def test_arrow_counts_are_nonnegative_ints(self, entry):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Quiver.from_matrix([[entry]])

    @pytest.mark.parametrize("vertices, counts, message", [
        ((), (), "quiver needs at least one vertex"),
        (("a", "a"), ((0, 0), (0, 0)), "vertex names must be distinct"),
        (("a", "b"), ((0, 1),), "arrow matrix must be square with one row per vertex"),
        (("a",), ((0, 1),), "arrow matrix must be square with one row per vertex"),
        (("a",), ((-1,),), "arrow counts must be nonnegative integers"),
    ], ids=["no-vertex", "duplicate", "missing-row", "long-row", "negative"])
    def test_constructor_messages(self, vertices, counts, message):
        with pytest.raises(ValueError) as info:
            Quiver(vertices, counts)
        assert str(info.value) == message

    def test_quiver_is_an_immutable_value(self):
        a, b = Quiver(("1",), ((2,),)), loop(2)
        assert a == b and hash(a) == hash(b) and a != loop(3)
        with pytest.raises(AttributeError):
            a.vertices = ("x",)

    def test_json_round_trip(self):
        q = KRONECKER
        assert Quiver.from_json(json.loads(json.dumps(q.to_json()))) == q

    def test_ringel_form_examples(self):
        assert A2.ringel_form((3, 4), (0, 0)) == 0
        for m in range(1, 4):
            for d in range(3):
                for e in range(3):
                    assert loop(m).ringel_form((d,), (e,)) == (1 - m) * d * e
        assert A2.ringel_form((1, 0), (0, 1)) == -1
        assert A2.ringel_form((0, 1), (1, 0)) == 0
        with pytest.raises(ValueError):
            A2.ringel_form((1,), (1, 0))

    def test_tits_form_examples(self):
        assert A2.tits_form((0, 0)) == 0
        assert loop(3).tits_form((2,)) == (1 - 3) * 4
        assert KRONECKER.tits_form((1, 1)) == 0

    def test_form_matches_matrix(self):
        rng = random.Random(30)
        for quiver in (A2, A3, KRONECKER, loop(2)):
            R = quiver.ringel_matrix()
            n = quiver.nvertices
            for _ in range(10):
                a = tuple(rng.randint(0, 3) for _ in range(n))
                b = tuple(rng.randint(0, 3) for _ in range(n))
                via_matrix = sum(
                    a[i] * R[i][j] * b[j] for i in range(n) for j in range(n))
                assert quiver.ringel_form(a, b) == via_matrix

    def test_ringel_matrix_values(self):
        assert A2.ringel_matrix() == ((1, -1), (0, 1))
        assert loop(2).ringel_matrix() == ((-1,),)


class TestDimVectors:
    def test_order_is_height_then_lex(self):
        for nvars in range(1, 5):
            for h in range(7):
                expected = sorted((v for v in product(range(h + 1), repeat=nvars)
                                   if sum(v) <= h), key=lambda v: (sum(v), v))
                assert list(dim_vectors(nvars, h)) == expected, (nvars, h)

    def test_many_vertices_need_no_recursion(self):
        # 200 vertices at height 2, with 40 frames to spare on the stack
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            count = sum(1 for _ in dim_vectors(200, 2))
        finally:
            sys.setrecursionlimit(limit)
        assert count == 1 + 200 + 200 * 201 // 2


class TestSlope:
    def test_examples(self):
        assert slope((0, 0), (2, 3)) == 0
        assert slope((1, 0), (1, 1)) == Fraction(1, 2)
        for k in range(1, 4):
            assert slope((1, 0), (k, k)) == slope((1, 0), (1, 1))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            slope((1, 0), (0, 0))


def qbinom_literal(n, m):
    num = RationalFunction.one()
    den = RationalFunction.one()
    for i in range(1, m + 1):
        num = num * (RationalFunction.one() - RationalFunction.q_power(n + i))
        den = den * (RationalFunction.one() - RationalFunction.q_power(i))
    return num / den


class TestQBinomials:
    def test_trivial_and_vanishing(self):
        for n in (-3, 0, 2, 7):
            assert qbinom(n, 0).is_one
        assert q_exponential(TruncationSpec(1, 1)).constant_term.is_one
        for n in range(1, 5):
            assert qbinom(-n, n).is_zero

    def test_small_values(self):
        assert qbinom(1, 1) == RationalFunction(ONE + Q)
        assert q_exponential(TruncationSpec(1, 1)).coeff((1,)) == INV_1Q
        assert qbinom(2, 2) == RationalFunction(QPoly([1, 1, 2, 1, 1]))

    def test_against_defining_product(self):
        for n in range(-7, 7):
            for m in range(0, 5):
                assert qbinom(n, m) == qbinom_literal(n, m), (n, m)
        exponential = q_exponential(TruncationSpec(1, 4))
        for m in range(0, 5):
            assert exponential.coeff((m,)) == qbinom_literal_inf(m)

    def test_polynomial_case_is_the_defining_product(self):
        # [n, m] prod_{i<=m} (1 - q^i) = prod_{i<=m} (1 - q^{n+i}), n, m <= 12
        for n in range(13):
            for m in range(13):
                lhs, rhs = _qbinom_poly(n, m), ONE
                for i in range(1, m + 1):
                    lhs = lhs * (ONE - QPoly.monomial(i))
                    rhs = rhs * (ONE - QPoly.monomial(n + i))
                assert lhs == rhs, (n, m)

    def test_symmetric_entries_are_one(self, monkeypatch):
        # [n, m] = [m, n] is one table entry, whichever is asked for first
        monkeypatch.setattr(quiver_module, "_QBINOMS", [])
        for n in range(9):
            for m in range(9):
                assert _qbinom_poly(n, m) is _qbinom_poly(m, n), (n, m)

    def test_deep_table_from_cold(self, monkeypatch):
        # the q-Pascal table fills 1501 rows at the default recursion limit
        monkeypatch.setattr(quiver_module, "_QBINOMS", [])
        geometric = QPoly([1] * 1501)
        assert _qbinom_poly(1500, 1) == geometric
        assert _qbinom_poly(1, 1500) == geometric

    def test_specialize_to_binomials(self):
        for n in range(0, 6):
            for m in range(0, 5):
                assert qbinom(n, m).evaluate(1) == math.comb(n + m, m)

    def test_vector_version(self):
        assert qbinom_vec((5, -2), (0, 0)).is_one
        assert q_exponential(TruncationSpec(2, 2)).coeff((1, 1)) == INV_1Q * INV_1Q
        assert qbinom_vec((1, 2), (1, 1)) == qbinom(1, 1) * qbinom(2, 1)
        with pytest.raises(ValueError):
            qbinom_vec((1,), (1, 1))

    def test_acyclic_vanishing(self):
        # the vector binomial [-R a, a] vanishes for every a > 0
        for quiver in (A2, A3, KRONECKER):
            R = quiver.ringel_matrix()
            n = quiver.nvertices
            tr = TruncationSpec(n, 4)
            for alpha in tr.vectors():
                if sum(alpha) == 0:
                    continue
                lam = tuple(-sum(R[i][j] * alpha[j] for j in range(n))
                            for i in range(n))
                assert qbinom_vec(lam, alpha).is_zero, (quiver, alpha)

    def test_acyclic_vanishing_has_reflected_factor(self):
        # in topological order, the last supported vertex contributes [-n, n]
        order = (0, 1, 2)
        alpha = (1, 2, 1)
        R = A3.ringel_matrix()
        lam = tuple(-sum(R[i][j] * alpha[j] for j in range(3)) for i in range(3))
        last = max((v for v in order if alpha[v]), key=lambda v: order.index(v))
        assert lam[last] == -alpha[last]


def qbinom_literal_inf(m):
    den = RationalFunction.one()
    for i in range(1, m + 1):
        den = den * (RationalFunction.one() - RationalFunction.q_power(i))
    return den.inverse()


class TestGeneratingSeries:
    def test_q_exponential_coefficients(self):
        tr = TruncationSpec(1, 5)
        p = q_exponential(tr)
        assert p.constant_term.is_one
        for k in range(6):
            assert p.coeff((k,)) == qbinom_literal_inf(k)

    def test_two_variable_q_exponential_coefficients(self):
        p = q_exponential(TruncationSpec(2, 5))
        for (a, b) in TruncationSpec(2, 5).vectors():
            assert p.coeff((a, b)) == qbinom_literal_inf(a) * qbinom_literal_inf(b)

    def test_q_exponential_is_plethystic_exp(self):
        tr = TruncationSpec(2, 4)
        x0 = Series.variable(tr, 0)
        x1 = Series.variable(tr, 1)
        assert q_exponential(tr) == plethystic_exp((x0 + x1) * INV_1Q)

    def test_binomial_series_heine_form(self):
        tr = TruncationSpec(1, 5)
        x = Series.variable(tr, 0)
        for n in (-4, -1, 0, 1, 3):
            coeff = (RationalFunction.one() - RationalFunction.q_power(n + 1)) * INV_1Q
            assert q_binomial_series((n,), tr) == plethystic_exp(x * coeff)

    def test_binomial_series_from_shifted_conjugate(self):
        tr = TruncationSpec(2, 4)
        p = q_exponential(tr)
        for lam in [(0, 0), (2, -1), (-3, 1)]:
            expected = p * monomial_twist(
                series_bar(p), lambda a: sum(w * x for w, x in zip(lam, a)))
            assert q_binomial_series(lam, tr) == expected

    def test_at_one_examples(self):
        # at q = 1 the series is prod_i (1 - x_i)^(-lam^i - 1)
        tr = TruncationSpec(2, 4)
        for alpha in tr.vectors():
            assert qbinom_jet((0, 0), alpha, 0) == QPoly.one()  # geometric
            assert qbinom_jet((-1, -1), alpha, 0) == QPoly([1 if alpha == (0, 0) else 0])
        for n in range(0, 4):
            for k in range(6):
                assert qbinom_jet((n,), (k,), 0) == QPoly([math.comb(n + k, k)])

    def test_at_one_matches_taylor_slice(self):
        tr = TruncationSpec(2, 3)
        for lam in [(1, 1), (3, -2), (-4, 0)]:
            series = q_binomial_series(lam, tr)
            for alpha in tr.vectors():
                assert qbinom_jet(lam, alpha, 2) == series.coeff(alpha).taylor_at_one(2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
           st.lists(st.integers(0, 3), min_size=2, max_size=2),
           st.integers(0, 3))
    def test_weight_jet_matches_taylor(self, lam, beta, order):
        assert qbinom_jet(lam, beta, order) == qbinom_vec(lam, beta).taylor_at_one(order)
