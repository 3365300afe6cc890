import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quivercount
from quivercount import oracle
from quivercount.counting import (
    CountingContext,
    absolutely_stable_table,
    semistable_ratio,
    stable_end_degree_poly,
)
from quivercount.oracle import (
    _BLOCK,
    BudgetError,
    RepPoint,
    _batch_end_dims,
    _batch_rank,
    _candidate_constraints,
    _column_groups,
    _digit_blocks,
    _elim_dtype,
    _mod,
    _no_invariant_mask,
    _product_dtype,
    _proper_subdims,
    _rref,
    _stable_end_tally,
    _tuple_is_invariant,
    _violating_tuples,
    count_absolutely_stable,
    count_points,
    count_semistable_ratio,
    count_stable_with_end_dim,
    endomorphism_dim,
    enumerate_points,
    gl_order,
    is_semistable,
    is_stable,
    rep_space_dim,
    subspace_bases,
)
from quivercount.quiver import Quiver, slope

A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])
CYCLIC = Quiver.from_matrix([[0, 2], [1, 0]])
# both ends of the int8 and int16 ranges of the rank kernel, and one past
PRIMES = (2, 3, 5, 7, 11, 13, 181, 191)


def loop(m):
    return Quiver.from_matrix([[m]])


def gaussian_binomial_int(n, k, p):
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_points(loop(1), (1,), 2))) == 2
        assert len(list(enumerate_points(A2, (1, 1), 2))) == 2
        assert len(list(enumerate_points(A2, (0, 0), 3))) == 1
        assert len(list(enumerate_points(KRONECKER, (1, 1), 3))) == 9

    def test_deterministic(self):
        first = list(enumerate_points(loop(2), (1,), 3))
        second = list(enumerate_points(loop(2), (1,), 3))
        assert first == second

    def test_budget(self):
        with pytest.raises(BudgetError, match="budget"):
            list(enumerate_points(loop(2), (4,), 2))
        with pytest.raises(BudgetError):
            list(enumerate_points(loop(1), (1,), 5, max_points=3))

    def test_prime_required(self):
        with pytest.raises(ValueError):
            list(enumerate_points(loop(1), (1,), 4))

    def test_matrix_shapes(self):
        pt = next(iter(enumerate_points(A2, (2, 1), 2)))
        assert len(pt.mats) == 1
        assert len(pt.mats[0]) == 1  # target dimension rows
        assert len(pt.mats[0][0]) == 2

    @pytest.mark.parametrize("quiver, alpha, p", [
        (KRONECKER, (1, 2), 3),
        (CYCLIC, (2, 1), 2),
    ])
    def test_point_n_has_the_base_p_digits_of_n(self, quiver, alpha, p):
        dim = rep_space_dim(quiver, alpha)
        points = list(enumerate_points(quiver, alpha, p))
        assert len(points) == p**dim
        for n, pt in enumerate(points):
            flat = [x for mat in pt.mats for row in mat for x in row]
            assert flat == [(n // p**e) % p for e in range(dim)]

    @pytest.mark.parametrize("quiver, alpha, p", [
        (loop(1), (0,), 5), (A2, (1, 1), 2), (KRONECKER, (1, 2), 3), (CYCLIC, (2, 1), 2),
        (loop(1), (1,), 181), (loop(1), (1,), 65537),
    ])
    def test_count_points(self, quiver, alpha, p):
        # the budget admits exactly p^dim points; the per-point stream agrees
        total = p ** rep_space_dim(quiver, alpha)
        assert count_points(quiver, alpha, p, max_points=total) == total
        if total <= 1 << 16:
            assert sum(1 for _ in enumerate_points(quiver, alpha, p)) == total
        if total > 1:
            with pytest.raises(BudgetError, match=f"exceeds the budget of {total - 1}"):
                count_points(quiver, alpha, p, max_points=total - 1)
        with pytest.raises(ValueError, match="not prime"):
            count_points(quiver, alpha, p + 2 if p == 2 else p + 1)

    def test_rep_space_dim(self):
        assert rep_space_dim(loop(2), (3,)) == 18
        assert rep_space_dim(A2, (2, 3)) == 6


class TestSubspaces:
    def test_counts_match_gaussian_binomials(self):
        for p in (2, 3):
            for n in range(0, 5):
                for d in range(0, n + 1):
                    assert len(subspace_bases(n, d, p)) == \
                        gaussian_binomial_int(n, d, p), (n, d, p)

    def test_rref_uniqueness(self):
        seen = set(subspace_bases(3, 2, 2))
        assert len(seen) == 7


class TestPredicates:
    def test_zero_stability_semistable(self):
        for pt in enumerate_points(loop(2), (2,), 2):
            assert is_semistable(pt, (0,))

    def test_nilpotent_jordan_block_not_stable(self):
        j2 = RepPoint(loop(1), (2,), 2, (((0, 1), (0, 0)),))
        assert is_semistable(j2, (0,))
        assert not is_stable(j2, (0,))

    def test_companion_matrix_stable_not_absolutely(self):
        companion = RepPoint(loop(1), (2,), 2, (((0, 1), (1, 1)),))
        assert is_stable(companion, (0,))
        assert endomorphism_dim(companion) == 2

    def test_scalar_point_full_commutant(self):
        scalar = RepPoint(loop(1), (2,), 2, (((1, 0), (0, 1)),))
        assert endomorphism_dim(scalar) == 4

    def test_a2_stability(self):
        nonzero = RepPoint(A2, (1, 1), 2, (((1,),),))
        zero = RepPoint(A2, (1, 1), 2, (((0,),),))
        assert is_stable(nonzero, (1, 0))
        assert not is_semistable(zero, (1, 0))
        assert not is_stable(zero, (1, 0))

    def test_stable_implies_semistable(self):
        for theta in ((0, 0), (1, 0)):
            for pt in enumerate_points(KRONECKER, (1, 1), 2):
                if is_stable(pt, theta):
                    assert is_semistable(pt, theta)

    def test_unit_vector_end_dim(self):
        for pt in enumerate_points(loop(3), (1,), 3):
            assert endomorphism_dim(pt) == 1


class TestCounts:
    def test_semistable_ratio_zero_stability(self):
        for p in (2, 3):
            for d in range(0, 3):
                got = count_semistable_ratio(loop(2), (d,), (0,), p)
                dim = rep_space_dim(loop(2), (d,))
                assert got == Fraction(p**dim, gl_order((d,), p))

    def test_semistable_ratio_matches_formula(self):
        ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                     max_height=4)
        for p in (2, 3):
            got = count_semistable_ratio(KRONECKER, (1, 1), (1, 0), p)
            assert got == semistable_ratio(ctx, (1, 1)).evaluate(p)

    def test_one_loop_class_counts(self):
        assert count_absolutely_stable(loop(1), (1,), (0,), 2) == 2
        assert count_absolutely_stable(loop(1), (1,), (0,), 3) == 3
        for p in (2, 3):
            assert count_absolutely_stable(loop(1), (2,), (0,), p) == 0
        assert count_stable_with_end_dim(loop(1), (2,), (0,), 2, 2) == 1

    def test_counts_match_per_point_reference(self):
        cells = [
            (loop(1), (2,), (0,), 2),
            (loop(1), (2,), (0,), 3),
            (loop(2), (2,), (0,), 2),
            (A2, (1, 1), (1, 0), 2),
            (A2, (1, 1), (0, 0), 3),
            (KRONECKER, (1, 1), (1, 0), 2),
        ]
        for quiver, alpha, theta, p in cells:
            tally = {}
            semi = 0
            for pt in enumerate_points(quiver, alpha, p):
                if is_semistable(pt, theta):
                    semi += 1
                if is_stable(pt, theta):
                    r = endomorphism_dim(pt)
                    tally[r] = tally.get(r, 0) + 1
            glo = gl_order(alpha, p)
            assert count_semistable_ratio(quiver, alpha, theta, p) == \
                Fraction(semi, glo)
            expected_abs = tally.get(1, 0) * (p - 1) // glo
            assert count_absolutely_stable(quiver, alpha, theta, p) == expected_abs
            for r in (1, 2):
                expected = tally.get(r, 0) * (p**r - 1)
                assert expected % glo == 0
                assert count_stable_with_end_dim(quiver, alpha, theta, p, r) == \
                    expected // glo

    def test_two_loop_cross_validation(self):
        ctx = CountingContext.create(loop(2), max_height=2)
        table = absolutely_stable_table(ctx)
        s = stable_end_degree_poly(ctx, table, (1,), 2)
        for p in (2, 3):
            assert count_absolutely_stable(loop(2), (2,), (0,), p) == \
                table.poly((2,)).evaluate(p)
            assert count_stable_with_end_dim(loop(2), (2,), (0,), p, 2) == \
                s.evaluate(p)

    def test_zero_vector(self):
        assert count_semistable_ratio(loop(1), (0,), (0,), 2) == 1
        assert count_absolutely_stable(loop(1), (0,), (0,), 2) == 0

    def test_budget_paths(self):
        with pytest.raises(BudgetError):
            count_absolutely_stable(loop(2), (3,), (0,), 3)
        # semistability at zero stability needs no enumeration at all
        got = count_semistable_ratio(loop(2), (3,), (0,), 3)
        assert got == Fraction(3**18, gl_order((3,), 3))
        with pytest.raises(BudgetError):
            count_absolutely_stable(loop(1), (2,), (0,), 2, max_points=10)

    def test_unmovable_dims_build_no_candidates(self, monkeypatch):
        # with no arrow, or with A2's arrow into a zero space, every subspace
        # tuple of dimension (1,), (2,) or (1, 0) is invariant: the point is
        # not stable, and no subspace needs to be listed to know that
        def no_subspaces(*args):
            raise AssertionError("subspace search for an unmovable dimension vector")

        monkeypatch.setattr(oracle, "subspace_bases", no_subspaces)
        _stable_end_tally.cache_clear()
        try:
            assert count_absolutely_stable(loop(0), (3,), (0,), 1009) == 0
            assert count_stable_with_end_dim(loop(0), (3,), (0,), 1009, 3) == 0
            assert count_absolutely_stable(A2, (2, 0), (0, 0), 1009) == 0
        finally:
            _stable_end_tally.cache_clear()

    @pytest.mark.parametrize("alpha, p, names_p2", [((4,), 3, True), ((5,), 2, False),
                                                    ((5,), 3, False)])
    def test_stability_bound_message_names_what_helps(self, alpha, p, names_p2):
        # the point budget never moves stable_height(p), so the message must
        # not send the reader to it; p = 2 helps only up to its bound
        dim = rep_space_dim(loop(1), alpha)
        with pytest.raises(BudgetError) as info:
            count_absolutely_stable(loop(1), alpha, (0,), p, max_points=p**dim)
        message = str(info.value)
        assert "budget" not in message
        assert "smaller alpha" in message
        assert ("p = 2" in message) == names_p2


class TestKernels:
    """The blocked kernels against the per-point reference functions."""

    def test_elimination_dtype_bounds(self):
        # entries lie in [-(ncols-1)(p-1)^2, p-1]
        assert _elim_dtype(2, 9) == np.int8 and _elim_dtype(3, 9) == np.int8
        assert _elim_dtype(5, 9) == np.int8 and _elim_dtype(5, 10) == np.int16
        assert _elim_dtype(2, 16) == np.int8 and _elim_dtype(7, 16) == np.int16
        assert _elim_dtype(11, 2) == np.int8 and _elim_dtype(11, 3) == np.int16
        assert _elim_dtype(127, 1) == np.int8 and _elim_dtype(131, 1) == np.int16
        assert _elim_dtype(181, 2) == np.int16 and _elim_dtype(191, 2) == np.int64
        assert _elim_dtype(13, 228) == np.int16 and _elim_dtype(13, 229) == np.int64

    @pytest.mark.parametrize("p, dtype, limit", [
        (3, np.int8, 128), (5, np.int8, 128), (11, np.int8, 128),
        (41, np.int16, 32768), (181, np.int16, 32768),
    ])
    def test_batch_rank_at_the_edge_of_each_dtype(self, p, dtype, limit):
        # the widest system of a tier, and one column more, which needs the
        # next tier; the row `last` loses (p-1)^2 from its last entry at every
        # column before it, reaching -(ncols-1)(p-1)^2 exactly, so a dtype one
        # tier too small wraps it and changes its residue mod p.  Without the
        # pivot at column ncols - 2, `last` is that column's pivot row, and
        # the row after it cancels against it only if its last entry, then
        # -(ncols-2)(p-1)^2, is reduced before it is scaled by 1/(p-1)
        edge = 1 + limit // (p - 1) ** 2
        assert _elim_dtype(p, edge) == dtype and _elim_dtype(p, edge + 1) != dtype
        rng = np.random.default_rng(p)
        for ncols in (edge, edge + 1):
            pivots = np.eye(ncols - 1, ncols, dtype=np.int64)
            pivots[:, -1] = p - 1
            last = np.full((1, ncols), p - 1, dtype=np.int64)
            last[0, -1] = 0
            cancels = np.eye(1, ncols, ncols - 2, dtype=np.int64)
            cancels[0, -1] = (ncols - 2) % p
            mats = [np.vstack([pivots, last]), np.vstack([pivots[:-1], last, cancels])]
            mats += list(rng.choice([0, 1, p - 1], size=(3, ncols, ncols)))
            mats += [rng.integers(0, p, size=(ncols, ncols))]
            expected = [len(_rref(m.tolist(), p)[1]) for m in mats]
            assert _batch_rank(np.array(mats), p).tolist() == expected

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_batch_rank_matches_rref(self, p, data):
        # U V has rank at most k, so wrong arithmetic shows as too high a
        # rank; the entries 0 and +-1 of U put p - 1 into the elimination
        # often, where products reach (p-1)^2; multiples of p are then added
        # to put entries outside [0, p), negative ones included.  The shapes
        # reach those of the end-dim systems: 16 unknowns at height 4
        n = data.draw(st.integers(0, 5))
        rows = data.draw(st.integers(0, 18))
        cols = data.draw(st.integers(0, 16))
        k = data.draw(st.integers(0, max(rows, cols)))
        sign = st.sampled_from((0, 1, p - 1))
        u = data.draw(arrays(np.int64, (n, rows, k), elements=sign))
        v = data.draw(arrays(np.int64, (n, k, cols),
                             elements=st.one_of(sign, st.integers(0, p - 1))))
        shift = data.draw(arrays(np.int64, (n, rows, cols), elements=st.integers(-3, 3)))
        mats = (u @ v) % p + p * shift
        expected = [len(_rref(m.tolist(), p)[1]) for m in mats]
        assert _batch_rank(mats, p).tolist() == expected

    @pytest.mark.parametrize("p", [65537, 1048573, 16777213])
    def test_batch_rank_at_large_primes(self, p):
        # pivots near p need a true inverse mod p; products reach (p-1)^2
        rng = np.random.default_rng(p)
        mats = [rng.integers(0, p, size=(4, 5, 5)),
                rng.choice([0, 1, p - 1], size=(4, 5, 5)),
                rng.integers(0, p, size=(4, 5, 2)) @ rng.integers(0, p, size=(4, 2, 5)) % p,
                rng.integers(0, p, size=(4, 3, 6)) - p]
        for stack in mats:
            expected = [len(_rref(m.tolist(), p)[1]) for m in stack]
            assert _batch_rank(stack, p).tolist() == expected

    def test_batch_rank_cost_does_not_grow_with_p(self, monkeypatch):
        # one pivot inverse by repeated squaring, not a table of p inverses
        calls = []

        def counted_pow(*args):
            calls.append(args)
            if len(calls) > 100:
                raise AssertionError("pow called more than 100 times")
            return pow(*args)

        monkeypatch.setattr(oracle, "pow", counted_pow, raising=False)
        p = 16777213
        assert _batch_rank(np.array([[[2, 3], [4, 6]]]), p).tolist() == [1]

    @pytest.mark.parametrize("shape", [(0, 3, 2), (4, 0, 3), (4, 3, 0), (0, 0, 0)])
    def test_batch_rank_of_empty_shapes(self, shape):
        assert _batch_rank(np.zeros(shape, dtype=np.int64), 5).tolist() == \
            [0] * shape[0]

    @pytest.mark.parametrize("quiver, alpha, theta", [
        (loop(2), (2,), (0,)),
        (KRONECKER, (1, 1), (1, 0)),
        (KRONECKER, (2, 1), (1, 0)),
        (A2, (1, 1), (1, 0)),
        (CYCLIC, (1, 1), (0, 0)),
        (CYCLIC, (2, 1), (1, 0)),
    ])
    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_mask_and_end_dims_match_per_point(self, quiver, alpha, theta, p, data):
        # the two halves of a stable tally: the subspace search, then the
        # endomorphism dimensions of the points it keeps
        dim = rep_space_dim(quiver, alpha)
        digit = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
        digits = data.draw(arrays(np.int64, (data.draw(st.integers(1, 12)), dim),
                                  elements=digit))
        points = [_point(quiver, alpha, p, row) for row in digits.tolist()]
        mu = slope(theta, alpha)
        for strict in (True, False):
            dims = [d for d in _proper_subdims(alpha)
                    if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]
            groups = _column_groups(_candidate_constraints(quiver, alpha, p, dims),
                                    dim, p)
            mask = _no_invariant_mask(digits, p, groups)
            assert mask.tolist() == [
                not any(_tuple_is_invariant(pt, bases, p)
                        for bases in _violating_tuples(pt, theta, strict))
                for pt in points
            ]
        kept = [pt for pt, keep in zip(points, mask) if keep]
        assert _batch_end_dims(digits[mask], quiver, alpha, p).tolist() == \
            [endomorphism_dim(pt) for pt in kept]

    @pytest.mark.parametrize("quiver, alpha, theta", [
        (A2, (1, 1), (1, 0)),
        (A2, (1, 1), (0, 1)),
        (KRONECKER, (1, 1), (1, 0)),
    ])
    @pytest.mark.parametrize("p", [208067, 262147])
    def test_mask_int64_branch_matches_per_point(self, quiver, alpha, theta, p):
        # the first primes with (p-1)^3 >= 2^53: the products leave float64
        # and the remainder must stay an integer one
        dim = rep_space_dim(quiver, alpha)
        assert dim * (p - 1) ** 3 >= 1 << 53
        _assert_mask_matches_per_point(quiver, alpha, theta, p)

    def test_product_dtype_rungs(self):
        # dim (p-1)^3 against 2^24 and 2^53, at the primes either side of
        # each edge: 256^3 = 2^24 for dim 1, and 2 * 198^3 < 2^24 < 2 * 210^3
        assert _product_dtype(1, 251) == np.float32 and _product_dtype(1, 257) == np.float64
        assert _product_dtype(2, 199) == np.float32 and _product_dtype(2, 211) == np.float64
        assert _product_dtype(1, 208057) == np.float64 and _product_dtype(1, 208067) == np.int64

    @pytest.mark.parametrize("quiver, alpha, theta, p, dtype", [
        (A2, (1, 1), (1, 0), 251, np.float32),
        (A2, (1, 1), (1, 0), 257, np.float64),
        (A2, (1, 1), (0, 1), 251, np.float32),
        (A2, (1, 1), (0, 1), 257, np.float64),
        (KRONECKER, (1, 1), (1, 0), 199, np.float32),
        (KRONECKER, (1, 1), (1, 0), 211, np.float64),
        (loop(1), (2,), (0,), 157, np.float32),
        (loop(1), (2,), (0,), 163, np.float64),
    ])
    def test_mask_float32_edge_matches_per_point(self, quiver, alpha, theta, p, dtype):
        # the last primes of the float32 rung and the first past it.  The
        # one-dimensional subspaces of A2 and Kronecker (1, 1) give matrix
        # entries 1 only; those of F_p^2 give entries up to (p-1)^2, so the
        # loop's products reach 4 * 156^3, just below 2^24, where float32
        # quotients are closest to rounding up to the next integer
        assert _product_dtype(rep_space_dim(quiver, alpha), p) == dtype
        _assert_mask_matches_per_point(quiver, alpha, theta, p)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_mod_matches_python_on_every_value(self, dtype):
        # every value of the dtype, its minimum included, where x // p * p
        # leaves the dtype (int8 -128 at p = 3: -43 * 3 = -129 wraps to 127);
        # a dtype the kernels choose holds p - 1 and so p
        x = np.arange(np.iinfo(dtype).min, np.iinfo(dtype).max + 1).astype(dtype)
        for p in (2, 3, 5, 7, 127, 181, 251):
            if p > np.iinfo(dtype).max:
                continue
            r = _mod(x, p)
            assert r.dtype == dtype
            assert r.tolist() == [v % p for v in x.tolist()]

    @pytest.mark.parametrize("p, ndigits", [
        # one table covers the largest k digits with p^k <= _BLOCK (at least
        # one): 15, 9, 6, 5 and 2 digits below; each p is tried below, at and
        # above its k, two above for more than one high digit, and a p past
        # _BLOCK splits its one digit
        (2, 14), (2, 15), (2, 16), (2, 17), (3, 8), (3, 9), (3, 10), (3, 11),
        (5, 5), (5, 6), (5, 7),
        (7, 4), (7, 5), (7, 6), (181, 1), (181, 2), (181, 3), (65537, 0), (65537, 1),
    ])
    def test_digit_blocks_are_the_base_p_digits(self, p, ndigits):
        start = 0
        for block in _digit_blocks(ndigits, p):
            assert 0 < block.shape[0] <= _BLOCK and block.shape[1] == ndigits
            assert block.dtype.itemsize <= (1 if p < 128 else 8)
            idx = np.arange(start, start + block.shape[0], dtype=np.int64)
            assert (block == (idx[:, None] // p ** np.arange(ndigits)) % p).all()
            start += block.shape[0]
        assert start == p**ndigits


def _assert_mask_matches_per_point(quiver, alpha, theta, p):
    """`_no_invariant_mask` against the per-point reference, on the digit
    rows 0 and p - 1, on digits from {0, 1, p - 1}, and on random digits."""
    dim = rep_space_dim(quiver, alpha)
    rng = np.random.default_rng(p + dim)
    digits = np.vstack([
        np.zeros((1, dim), dtype=np.int64),
        np.full((1, dim), p - 1, dtype=np.int64),
        rng.choice([0, 1, p - 1], size=(500, dim)),
        rng.integers(0, p, size=(1500, dim)),
    ])
    points = [_point(quiver, alpha, p, row) for row in digits.tolist()]
    mu = slope(theta, alpha)
    for strict in (True, False):
        dims = [d for d in _proper_subdims(alpha)
                if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]
        groups = _column_groups(_candidate_constraints(quiver, alpha, p, dims), dim, p)
        assert _no_invariant_mask(digits, p, groups).tolist() == [
            not any(_tuple_is_invariant(pt, bases, p)
                    for bases in _violating_tuples(pt, theta, strict))
            for pt in points
        ]


def _point(quiver, alpha, p, digits):
    """The point whose flattened entries are the given digits."""
    mats = []
    pos = 0
    for i, j in quiver.arrow_list():
        rows, cols = alpha[j], alpha[i]
        mats.append(tuple(tuple(digits[pos + r * cols:pos + (r + 1) * cols])
                          for r in range(rows)))
        pos += rows * cols
    return RepPoint(quiver, alpha, p, tuple(mats))


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_blas_threads_default_to_one(preset, expected):
    # importing the oracle sets the BLAS thread default, and a value the
    # environment already has wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(quivercount.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, quivercount.oracle; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == expected
