import itertools
import os
import subprocess
import sys
import tracemalloc
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
    _annihilator,
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
    _stable_end_tally,
    check_prime,
    count_absolutely_stable,
    count_semistable_ratio,
    count_stable_with_end_dim,
    enumerate_points,
    gl_order,
    rep_space_dim,
    subspace_bases,
)
from quivercount.quiver import Quiver, slope

from oracle_reference import (
    _nullspace,
    _rref,
    _tuple_is_invariant,
    _violating_tuples,
    endomorphism_dim,
    is_semistable,
    is_stable,
)

A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])
CYCLIC = Quiver.from_matrix([[0, 2], [1, 0]])
# a loop at each of two vertices and one arrow between them
LOOPED = Quiver.from_matrix([[1, 1], [0, 1]])
# a loop at each of two vertices and no arrow between them
TWO_LOOPS = Quiver.from_matrix([[1, 0], [0, 1]])
# both ends of the int8 and int16 ranges of the rank kernel, and one past
PRIMES = (2, 3, 5, 7, 11, 13, 181, 191)


def loop(m):
    return Quiver.from_matrix([[m]])


# cells of the per-point cross-check.  The scan slices one arrow by its
# group orbits and the other loops by their scalar shifts; these cover loops
# at vertices with alpha_v > 0 and alpha_v = 0, a semistable scan with
# loops, no free digit left, and no loop
REFERENCE_CELLS = [
    (loop(1), (2,), (0,), 2),
    (loop(1), (2,), (0,), 3),
    (loop(2), (2,), (0,), 2),
    (A2, (1, 1), (1, 0), 2),
    (A2, (1, 1), (0, 0), 3),
    (KRONECKER, (1, 1), (1, 0), 2),
    *[(LOOPED, alpha, theta, p) for alpha in ((1, 1), (2, 1), (0, 2))
      for theta in ((1, 0), (0, 0)) for p in (2, 3)],
    *[(loop(2), (1,), (0,), p) for p in (2, 3)],
    *[(loop(0), (2,), (0,), p) for p in (2, 3)],
    # the first prime whose 1 x 1 table does not fit one block: unsliced
    (A2, (1, 1), (1, 0), 4099),
]
# cells whose sliced arrow has orbits of more than one point: a non-loop
# arrow, a loop beside a shifted loop, and a 1 x 1 arrow at p = 4093, the
# largest prime whose table fits one block
SLICED_CELLS = [
    *[(KRONECKER, alpha, (1, 0), p) for alpha in ((2, 1), (1, 2)) for p in (2, 3)],
    (loop(2), (2,), (0,), 3),
    (A2, (1, 1), (1, 0), 4093),
]


def _reference_counts(quiver, alpha, theta, p):
    """Semistable points and stable points by endomorphism dimension, point
    by point."""
    semi, tally = 0, {}
    for mats in enumerate_points(quiver, alpha, p):
        semi += is_semistable(quiver, alpha, p, mats, theta)
        if is_stable(quiver, alpha, p, mats, theta):
            r = endomorphism_dim(quiver, alpha, p, mats)
            tally[r] = tally.get(r, 0) + 1
    return semi, tally


def _scan_counts(quiver, alpha, theta, p):
    """The same two counts from the sliced scan."""
    semi = oracle._scan(quiver, alpha, p, oracle._violating_dims(alpha, theta, True),
                        oracle.DEFAULT_MAX_POINTS)
    tally = oracle._scan(quiver, alpha, p, oracle._violating_dims(alpha, theta, False),
                         oracle.DEFAULT_MAX_POINTS,
                         lambda digits: _batch_end_dims(digits, quiver, alpha, p))
    return semi.get(0, 0), tally


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
        # the largest prime below 2^63 is admitted
        assert len(list(enumerate_points(A2, (1, 0), 2**63 - 25))) == 1

    @pytest.mark.parametrize("entry", [
        check_prime,
        lambda p: next(enumerate_points(A2, (1, 0), p)),
        lambda p: count_semistable_ratio(A2, (1, 1), (1, 0), p),
        lambda p: count_absolutely_stable(A2, (1, 1), (1, 0), p),
        lambda p: count_stable_with_end_dim(A2, (1, 1), (1, 0), p, 1),
    ], ids=["check_prime", "enumerate_points", "count_semistable_ratio",
            "count_absolutely_stable", "count_stable_with_end_dim"])
    def test_prime_from_2_63_on_is_rejected(self, entry):
        with pytest.raises(ValueError, match=r"is not below 2\^63"):
            entry(2**63 + 29)

    def test_matrix_shapes(self):
        mats = next(iter(enumerate_points(A2, (2, 1), 2)))
        assert len(mats) == 1
        assert len(mats[0]) == 1  # target dimension rows
        assert len(mats[0][0]) == 2

    @pytest.mark.parametrize("quiver, alpha, p", [
        (KRONECKER, (1, 2), 3),
        (CYCLIC, (2, 1), 2),
    ])
    def test_point_n_has_the_base_p_digits_of_n(self, quiver, alpha, p):
        dim = rep_space_dim(quiver, alpha)
        points = list(enumerate_points(quiver, alpha, p))
        assert len(points) == p**dim
        for n, mats in enumerate(points):
            flat = [x for mat in mats for row in mat for x in row]
            assert flat == [(n // p**e) % p for e in range(dim)]

    @pytest.mark.parametrize("quiver, alpha, p", [
        (loop(1), (0,), 5), (A2, (1, 1), 2), (KRONECKER, (1, 2), 3), (CYCLIC, (2, 1), 2),
        (loop(1), (1,), 181), (loop(1), (1,), 65537),
    ])
    def test_count_points(self, quiver, alpha, p):
        # the budget admits exactly the p^dim points of the stream
        total = p ** rep_space_dim(quiver, alpha)
        assert sum(1 for _ in enumerate_points(quiver, alpha, p, max_points=total)) == total
        if total > 1:
            with pytest.raises(BudgetError, match=f"exceeds the budget of {total - 1}"):
                next(enumerate_points(quiver, alpha, p, max_points=total - 1))
        with pytest.raises(ValueError, match="not prime"):
            next(enumerate_points(quiver, alpha, p + 2 if p == 2 else p + 1))

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

    def test_annihilator_matches_the_reference_nullspace(self):
        # read off the RREF basis, row for row and in order, on every
        # subspace of F_p^n
        for p in (2, 3, 5, 7):
            for n in range(5):
                for d in range(n + 1):
                    for basis in subspace_bases(n, d, p):
                        assert _annihilator(basis, n, p) == tuple(
                            map(tuple, _nullspace([list(r) for r in basis], n, p)))


class TestPredicates:
    """The per-point reference on points whose answers are known."""

    def test_zero_stability_semistable(self):
        for mats in enumerate_points(loop(2), (2,), 2):
            assert is_semistable(loop(2), (2,), 2, mats, (0,))

    def test_nilpotent_jordan_block_not_stable(self):
        j2 = (((0, 1), (0, 0)),)
        assert is_semistable(loop(1), (2,), 2, j2, (0,))
        assert not is_stable(loop(1), (2,), 2, j2, (0,))

    def test_companion_matrix_stable_not_absolutely(self):
        companion = (((0, 1), (1, 1)),)
        assert is_stable(loop(1), (2,), 2, companion, (0,))
        assert endomorphism_dim(loop(1), (2,), 2, companion) == 2

    def test_scalar_point_full_commutant(self):
        assert endomorphism_dim(loop(1), (2,), 2, (((1, 0), (0, 1)),)) == 4

    def test_a2_stability(self):
        nonzero, zero = (((1,),),), (((0,),),)
        assert is_stable(A2, (1, 1), 2, nonzero, (1, 0))
        assert not is_semistable(A2, (1, 1), 2, zero, (1, 0))
        assert not is_stable(A2, (1, 1), 2, zero, (1, 0))

    def test_stable_implies_semistable(self):
        for theta in ((0, 0), (1, 0)):
            for mats in enumerate_points(KRONECKER, (1, 1), 2):
                if is_stable(KRONECKER, (1, 1), 2, mats, theta):
                    assert is_semistable(KRONECKER, (1, 1), 2, mats, theta)

    def test_unit_vector_end_dim(self):
        for mats in enumerate_points(loop(3), (1,), 3):
            assert endomorphism_dim(loop(3), (1,), 3, mats) == 1


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
        for quiver, alpha, theta, p in REFERENCE_CELLS + SLICED_CELLS:
            semi, tally = _reference_counts(quiver, alpha, theta, p)
            assert _scan_counts(quiver, alpha, theta, p) == (semi, tally)
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

    def test_sliced_scan_visits_one_point_per_orbit(self, monkeypatch):
        # loop2 at alpha=(3,), p = 2: 7 conjugacy-and-shift orbits of the
        # first loop times 2^8 values of the second loop without its (0, 0)
        # entry, against 2^16 points for the scalar shifts alone; no cell
        # visits more points than the scan by the shifts alone
        visited = []

        def counted(digits, p, groups):
            visited.append(digits.shape[0])
            return no_invariant_mask(digits, p, groups)

        def stable_scan_visits(quiver, alpha, theta, p):
            visited.clear()
            oracle._scan(quiver, alpha, p, oracle._violating_dims(alpha, theta, False),
                         oracle.DEFAULT_MAX_POINTS)
            return sum(visited)

        no_invariant_mask = oracle._no_invariant_mask
        monkeypatch.setattr(oracle, "_no_invariant_mask", counted)
        assert stable_scan_visits(loop(2), (3,), (0,), 2) == 1792
        for quiver, alpha, theta, p in REFERENCE_CELLS + SLICED_CELLS:
            shifts = sum(1 for i, j in quiver.arrow_list() if i == j and alpha[i])
            assert stable_scan_visits(quiver, alpha, theta, p) <= \
                p ** (rep_space_dim(quiver, alpha) - shifts)

    def test_orbit_sizes_are_load_bearing(self, monkeypatch):
        # with every orbit weighted 1 instead of its size, each sliced cell
        # miscounts
        orbits = oracle._arrow_orbits
        monkeypatch.setattr(oracle, "_arrow_orbits",
                            lambda *key: (orbits(*key)[0], (1,) * len(orbits(*key)[1])))
        for quiver, alpha, theta, p in SLICED_CELLS:
            assert _scan_counts(quiver, alpha, theta, p) != \
                _reference_counts(quiver, alpha, theta, p)

    @pytest.mark.parametrize("quiver, alpha, theta", [
        (loop(1), (2,), (0,)),
        (loop(1), (3,), (0,)),
        (loop(2), (2,), (0,)),
        (LOOPED, (1, 1), (1, 0)),
        (LOOPED, (2, 1), (1, 0)),
        (LOOPED, (1, 2), (0, 0)),
    ])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scalar_shift_of_a_loop_keeps_every_invariant(self, quiver, alpha, theta,
                                                          data):
        # the lemma behind the scan's slice: X_h -> X_h + cI on a loop h keeps
        # every invariant subspace tuple and the commutant
        p = data.draw(st.sampled_from((2, 3)))
        digits = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=rep_space_dim(quiver, alpha),
                                    max_size=rep_space_dim(quiver, alpha)))
        loops = [h for h, (i, j) in enumerate(quiver.arrow_list())
                 if i == j and alpha[i]]
        h = data.draw(st.sampled_from(loops))
        c = data.draw(st.integers(1, p - 1))
        point = _point(quiver, alpha, digits)
        mats = list(point)
        mats[h] = tuple(tuple((x + c * (r == s)) % p for s, x in enumerate(row))
                        for r, row in enumerate(mats[h]))
        shifted = tuple(mats)
        assert is_semistable(quiver, alpha, p, shifted, theta) == \
            is_semistable(quiver, alpha, p, point, theta)
        assert is_stable(quiver, alpha, p, shifted, theta) == \
            is_stable(quiver, alpha, p, point, theta)
        assert endomorphism_dim(quiver, alpha, p, shifted) == \
            endomorphism_dim(quiver, alpha, p, point)

    def test_two_loop_cross_validation(self):
        ctx = CountingContext.create(loop(2), max_height=2)
        table = absolutely_stable_table(ctx)
        s = stable_end_degree_poly(table, (1,), 2)
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


def _gl(n, p):
    """GL_n(F_p) as (g, g^-1) pairs of row tuples, by Gauss-Jordan on [g | I]."""
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        g = [list(entries[r * n:(r + 1) * n]) for r in range(n)]
        reduced, pivots = _rref([row + [int(r == c) for c in range(n)]
                                 for r, row in enumerate(g)], p)
        if pivots[:n] == list(range(n)):
            out.append((g, [row[n:] for row in reduced]))
    return out


def _brute_orbits(p, rows, cols, loop):
    """The orbits of `_arrow_orbits`'s group as sets of digit indices, by
    applying every element of the explicit group to one matrix per orbit."""
    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(len(b))) % p
                 for c in range(len(b[0]))] for r in range(len(a))]

    def index(x):
        return sum(v * p**e for e, v in enumerate(itertools.chain(*x)))

    if loop:
        group = [(g, inv, [[c * (r == s) for s in range(rows)] for r in range(rows)])
                 for g, inv in _gl(rows, p) for c in range(p)]
    else:
        group = [(g, h, None) for g, _ in _gl(rows, p) for h, _ in _gl(cols, p)]
    orbits, seen = [], set()
    for n in range(p ** (rows * cols)):
        if n in seen:
            continue
        x = [[n // p ** (r * cols + c) % p for c in range(cols)] for r in range(rows)]
        orbit = set()
        for g, h, shift in group:
            y = mul(mul(g, x), h)
            if shift:
                y = [[(a + b) % p for a, b in zip(ry, rs)] for ry, rs in zip(y, shift)]
            orbit.add(index(y))
        orbits.append(orbit)
        seen |= orbit
    return orbits


class TestOrbits:
    """`_arrow_orbits` against a closure over the explicit group."""

    @pytest.mark.parametrize("p, rows, cols, loop, sizes", [
        (2, 2, 2, True, [2, 2, 6, 6]),
        (2, 3, 3, True, [2, 42, 48, 56, 84, 112, 168]),
        (3, 2, 2, True, [3, 18, 24, 36]),
        (5, 2, 2, True, [5, 100, 100, 120, 150, 150]),
        (2, 1, 1, True, [2]),
        (5, 1, 1, False, [1, 4]),
        (3, 2, 1, False, [1, 8]),
        (2, 2, 3, False, [1, 21, 42]),
        (3, 2, 2, False, [1, 32, 48]),
    ])
    def test_orbits_match_the_explicit_group(self, p, rows, cols, loop, sizes):
        reps, got = oracle._arrow_orbits(p, rows, cols, loop)
        brute = _brute_orbits(p, rows, cols, loop)
        assert sum(got) == p ** (rows * cols)
        assert sorted(got) == sorted(len(o) for o in brute) == sizes
        # one representative per orbit, its least index, with its orbit's size
        place = p ** np.arange(rows * cols)
        for rep, size in zip(reps.astype(np.int64) @ place, got):
            (orbit,) = [o for o in brute if rep in o]
            assert rep == min(orbit) and size == len(orbit)
        assert len({rep for rep in reps.astype(np.int64) @ place}) == len(brute)

    @pytest.mark.parametrize("loop, reps, sizes", [(False, [[0], [1]], (1, 4092)),
                                                   (True, [[0]], (4093,))])
    def test_one_by_one_table_at_the_edge_of_a_block(self, loop, reps, sizes):
        # 4093 is the largest prime with a table inside _BLOCK = 4096: its
        # units are one orbit only if the primitive root generates them
        assert 4093 <= _BLOCK < 4099
        got_reps, got = oracle._arrow_orbits(4093, 1, 1, loop)
        assert got == sizes and got_reps.tolist() == reps

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31, 181, 257, 4093])
    def test_primitive_root_generates_the_units(self, p):
        c = oracle._primitive_root(p)
        assert len({pow(c, e, p) for e in range(p - 1)}) == p - 1

    @pytest.mark.parametrize("p, rows, cols, loop, off, free, dim", [
        # a 2 x 2 loop's 4 orbits between free digits, with a zero column at 5;
        # several representatives share a block
        (2, 2, 2, True, 1, [0, 6, 7], 8),
        # m = 0: the one empty representative, the free digits alone
        (3, 0, 0, False, 0, [0, 2, 3], 4),
        # dim = 0: one point with no column
        (2, 0, 0, False, 0, [], 0),
        # p^8 > _BLOCK at p = 3: one representative per block, its free
        # values split across blocks
        (3, 1, 1, False, 8, list(range(8)), 9),
    ])
    def test_sliced_blocks_cover_each_pair_once(self, p, rows, cols, loop, off, free, dim):
        reps, _ = oracle._arrow_orbits(p, rows, cols, loop)
        m = reps.shape[1]
        fixed = [e for e in range(dim) if not off <= e < off + m and e not in free]
        seen = []
        for digits, first, n in oracle._sliced_blocks(reps, off, free, dim, p):
            assert digits.shape[1] == dim and 0 < digits.shape[0] <= _BLOCK
            assert digits.shape[0] % n == 0
            for t, row in enumerate(digits.tolist()):
                r = first + t // n
                assert row[off:off + m] == reps[r].tolist()
                assert all(row[e] == 0 for e in fixed)
                seen.append((r, tuple(row[e] for e in free)))
        assert len(seen) == len(set(seen)) == reps.shape[0] * p ** len(free)


class TestKernels:
    """The blocked kernels against the per-point reference functions of
    `oracle_reference`."""

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
        points = [_point(quiver, alpha, row) for row in digits.tolist()]
        mu = slope(theta, alpha)
        for strict in (True, False):
            dims = [d for d in _proper_subdims(alpha)
                    if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]
            groups = _column_groups(_candidate_constraints(quiver, alpha, p, dims),
                                    dim, p)
            mask = _no_invariant_mask(digits, p, groups)
            assert mask.tolist() == [
                not any(_tuple_is_invariant(quiver, alpha, p, pt, bases)
                        for bases in _violating_tuples(alpha, p, theta, strict))
                for pt in points
            ]
        kept = [pt for pt, keep in zip(points, mask) if keep]
        assert _batch_end_dims(digits[mask], quiver, alpha, p).tolist() == \
            [endomorphism_dim(quiver, alpha, p, pt) for pt in kept]

    @pytest.mark.parametrize("quiver, alpha, p", [
        # alpha with a zero first entry: the dropped unknown is not vertex 0's
        (LOOPED, (0, 2), 2), (LOOPED, (0, 2), 3), (A2, (0, 1), 5),
        # a disconnected support: End has one scalar per component
        (TWO_LOOPS, (1, 1), 3), (TWO_LOOPS, (2, 1), 2), (TWO_LOOPS, (2, 1), 3),
        # one column left, or none
        (loop(1), (1,), 5), (A2, (1, 1), 2), (A2, (1, 1), 16777213),
    ])
    def test_end_dims_match_per_point_without_the_identity_column(self, quiver, alpha, p):
        # every point of the space, or the rows 0 and p - 1, digits from
        # {0, 1, p - 1} and random digits where the space is too large
        dim = rep_space_dim(quiver, alpha)
        if p**dim <= 4096:
            # (p^dim, dim), also for dim = 0: one point with no entries
            digits = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
        else:
            rng = np.random.default_rng(p + dim)
            digits = np.vstack([np.zeros((1, dim), dtype=np.int64),
                                np.full((1, dim), p - 1, dtype=np.int64),
                                rng.choice([0, 1, p - 1], size=(50, dim)),
                                rng.integers(0, p, size=(200, dim))])
        expected = [endomorphism_dim(quiver, alpha, p, _point(quiver, alpha, row))
                    for row in digits.tolist()]
        assert _batch_end_dims(digits, quiver, alpha, p).tolist() == expected

    def test_end_dims_with_one_column_invert_no_pivot(self, monkeypatch):
        # A2 at (1, 1) keeps one unknown of two, so its elimination has no
        # row to update and inverts nothing, at any prime
        def no_inverse(*args):
            raise AssertionError("pivot inverted for a one-column system")

        monkeypatch.setattr(oracle, "_inverse_mod", no_inverse)
        p = 16777213
        digits = np.array([[0], [1], [p - 1]], dtype=np.int64)
        assert _batch_end_dims(digits, A2, (1, 1), p).tolist() == [2, 1, 1]

    def test_stable_end_tally_working_set(self):
        # loop2 at alpha=(3,), p=2 sets the oracle's memory: one cache-sized
        # block of digits, masks and elimination stack at a time.  Allocation
        # sizes do not depend on timing, so the traced peak is deterministic
        _stable_end_tally.cache_clear()
        tracemalloc.start()
        try:
            tally = _stable_end_tally(loop(2), (3,), (0,), 2, oracle.DEFAULT_MAX_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _stable_end_tally.cache_clear()
        assert tally == ((1, 129024), (3, 480))
        assert peak < 4 << 20

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
        # one table covers the largest k digits with p^k <= _BLOCK = 2^12 (at
        # least one): 12, 7, 5, 4 and 1 digits for the primes below; each p
        # is tried below, at and above its k, and two or more above for more
        # than one high digit, and a p past _BLOCK splits its one digit:
        # 4099 into a full block and 3 rows, 65537 into 16 blocks and 1 row
        (2, 11), (2, 12), (2, 13), (2, 14), (2, 15), (2, 16), (2, 17),
        (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11),
        (5, 4), (5, 5), (5, 6), (5, 7), (7, 3), (7, 4), (7, 5), (7, 6),
        (181, 0), (181, 1), (181, 2), (181, 3),
        (4099, 0), (4099, 1), (65537, 0), (65537, 1),
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
    points = [_point(quiver, alpha, row) for row in digits.tolist()]
    mu = slope(theta, alpha)
    for strict in (True, False):
        dims = [d for d in _proper_subdims(alpha)
                if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]
        groups = _column_groups(_candidate_constraints(quiver, alpha, p, dims), dim, p)
        assert _no_invariant_mask(digits, p, groups).tolist() == [
            not any(_tuple_is_invariant(quiver, alpha, p, pt, bases)
                    for bases in _violating_tuples(alpha, p, theta, strict))
            for pt in points
        ]


def _point(quiver, alpha, digits):
    """The matrices of the point whose flattened entries are the given digits."""
    mats = []
    pos = 0
    for i, j in quiver.arrow_list():
        rows, cols = alpha[j], alpha[i]
        mats.append(tuple(tuple(digits[pos + r * cols:pos + (r + 1) * cols])
                          for r in range(rows)))
        pos += rows * cols
    return tuple(mats)


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
