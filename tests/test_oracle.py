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
from quivercount.counting import (
    CountingContext,
    absolutely_stable_table,
    semistable_ratio,
    stable_end_degree_poly,
)
from quivercount.oracle import (
    Budget,
    BudgetError,
    RepPoint,
    _batch_end_dims,
    _batch_rank,
    _candidate_constraints,
    _elim_dtype,
    _no_invariant_mask,
    _proper_subdims,
    _rref,
    _tuple_is_invariant,
    _violating_tuples,
    count_absolutely_stable,
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
        tight = Budget(max_points=3)
        with pytest.raises(BudgetError):
            list(enumerate_points(loop(1), (1,), 5, tight))

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
        tight = Budget(max_points=10)
        with pytest.raises(BudgetError):
            count_absolutely_stable(loop(1), (2,), (0,), 2, tight)


class TestKernels:
    """The blocked kernels against the per-point reference functions."""

    def test_elimination_dtype_bounds(self):
        assert _elim_dtype(11) == np.int8 and _elim_dtype(13) == np.int16
        assert _elim_dtype(181) == np.int16 and _elim_dtype(191) == np.int64

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_batch_rank_matches_rref(self, p, data):
        # U V has rank at most k, so wrong arithmetic shows as too high a
        # rank; the entries 0 and +-1 of U put p - 1 into the elimination
        # often, where products reach (p-1)^2; multiples of p are then added
        # to put entries outside [0, p), negative ones included
        n = data.draw(st.integers(0, 5))
        rows = data.draw(st.integers(0, 6))
        cols = data.draw(st.integers(0, 6))
        k = data.draw(st.integers(0, max(rows, cols)))
        sign = st.sampled_from((0, 1, p - 1))
        u = data.draw(arrays(np.int64, (n, rows, k), elements=sign))
        v = data.draw(arrays(np.int64, (n, k, cols),
                             elements=st.one_of(sign, st.integers(0, p - 1))))
        shift = data.draw(arrays(np.int64, (n, rows, cols), elements=st.integers(-3, 3)))
        mats = (u @ v) % p + p * shift
        expected = [len(_rref(m.tolist(), p)[1]) for m in mats]
        assert _batch_rank(mats, p).tolist() == expected

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
            mask = _no_invariant_mask(
                digits, p, _candidate_constraints(quiver, alpha, p, dims))
            assert mask.tolist() == [
                not any(_tuple_is_invariant(pt, bases, p)
                        for bases in _violating_tuples(pt, theta, strict))
                for pt in points
            ]
        kept = [pt for pt, keep in zip(points, mask) if keep]
        assert _batch_end_dims(digits[mask], quiver, alpha, p).tolist() == \
            [endomorphism_dim(pt) for pt in kept]


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
