"""Brute-force ground truth over small prime fields.

Representation points are tuples of matrices over F_p, one per arrow,
enumerated exhaustively.  Semistability and stability are decided by
searching all subspace tuples (one subspace per vertex, in reduced row
echelon form) that are closed under the arrow maps; endomorphism rings are
computed as nullspaces of the commuting-square linear system.  Class counts
follow from the stabilizer formula: a stable point with endomorphism field
of degree r has automorphism group F_{p^r}^*, so its orbit has exactly
#GL / (p^r - 1) points, and the division is asserted to be exact.

The mass counts run on contiguous blocks of the point index range, one
digits array (points x entries) per block.  The tests check them against a
per-point reference in plain Python (tests/oracle_reference.py), which
`verify` never loads.
A block is the p^k points that share their high digits, so the low k digits
are one table, built once per scan and held in the smallest signed dtype.
Blocks are at most 2^12 points, sized for the cache rather than for the
per-block Python overhead: the largest arrays of a block (the elimination
stack, its temporaries and the float32 products) then stay inside a 2 MiB
L2, and the process peak barely rises above what the imports hold.

The mass counts visit one point per orbit of the loops' scalar shifts.  Each
of the L loops h at a vertex v with alpha_v > 0 gives an action
X_h -> X_h + c I of F_p, and together they make F_p^L act on the points.
The action is free: c is read off the (0, 0) entry of X_h + c I.  It keeps
the semistable and stable masks, since U_v is X_h-stable iff it is
(X_h + c I)-stable, and it keeps the endomorphism dimension, since phi_v
commutes with X_h iff it commutes with X_h + c I.  So the points whose
loops all have (0, 0) entry 0 meet every orbit exactly once, and the scan
enumerates only them, over the other dim - L digits, weighting each count
by p^L.  A quiver without loops has L = 0.

The scan also slices one arrow h: i -> j by the orbits of a group acting on
its matrix: GL_{alpha_i} x GL_{alpha_j} by X_h -> g X_h k^-1, or for a loop
conjugation X_h -> g X_h g^-1 together with the shift X_h -> X_h + I.  The
pair (k, g) is the element of GL_alpha that is k at i, g at j (k = g for a
loop) and I elsewhere; it moves the other arrows at i and j as well, and
keeps every tally, as the shift does.  So for a representative R of an
orbit O and any X in O, an element taking R to X maps the points with X_h =
R one to one onto those with X_h = X, label by label, and the points with
X_h in O number |O| times those with X_h = R.  The scan visits the
representatives only (`_arrow_orbits`), with the other loops sliced by
their shifts as above (which keep X_h), and weights each count by |O| p^L,
L counting the other loops now.  The sliced arrow is the one with the most
entries m whose table of all p^m matrices fits one block, p^m <= _BLOCK: a
larger table costs more to build than its scan saves (on a 2-vCPU Xeon VM
the 19683 matrices of a 3 x 3 loop at p = 3 took about 40 ms, the scan of
that cell 6-9 ms).  With no such arrow, one empty representative of size 1
leaves the scan by the shifts alone.  The slice never visits more points
than the shifts alone: a sliced loop has at most p^(m-1) orbits, since its
shift acts freely, and gives up only its own scalar shift, a factor of p;
any other arrow has at most p^m orbits on its p^m matrices.
Every digits block is still dim columns wide, in the order of
`_arrow_layout`: a representative sits in its arrow's own columns and each
shifted loop's (0, 0) digit is a zero column, which adds nothing to a
product digits @ M, so the constraint matrices and the endomorphism system
read every block as it is.
`enumerate_points` and the point budget still cover all p^dim points.

- Subspace search: each candidate subspace tuple is one integer matrix whose
  columns give the entries of C X B^T for every arrow, so a block is one
  matrix product digits @ M followed by a remainder test.  Digits and matrix
  entries lie in [0, p) and [0, (p-1)^2], so every product entry, and every
  partial sum of its nonnegative terms, is at most dim (p-1)^3; the product
  runs in float32 while that bound is below 2^24, in float64 while it is
  below 2^53, and in int64 otherwise, and a float product is then exact in
  whatever order the BLAS sums.  The float remainder is
  prod - p floor(prod / p), exact below 2^24 (2^53) because the rounded
  quotient of prod = kp + j (0 <= j < p) stays in [k, k + 1); the int64 one
  is an integer remainder.  The candidates are stacked once per scan into
  groups of at most dim columns, and one product of the remainders with a
  0/1 column-to-candidate matrix G tests every candidate of a group:
  remainders are >= 0, so a candidate is invariant where its entry of
  rem @ G is 0.
  A dimension vector d that no arrow can move (no arrow i -> j with
  d_i > 0 and d_j < alpha_j) makes every subspace tuple of dimension d
  invariant at every point; its tuples have no constraint columns, so the
  scan stops before listing them and every point fails the test.
- Ranks: a stack of n matrices is eliminated as one contiguous
  (rows, cols, n) array, in place.  Reduction mod p is lazy: a step reduces
  only the column it eliminates and the gathered pivot row, and subtracts
  products in [0, (p-1)^2] from the rest unreduced.  An entry of column c
  takes at most c of them, so entries lie in [-(cols-1)(p-1)^2, p-1], a
  spread of (cols-1)(p-1)^2 + p-1, and the array is held in the smallest of
  int8, int16 and int64 holding that range: int8 for 9 columns up to p = 5,
  for 129 at p = 2.  Each step inverts only the n gathered pivots, as
  x^(p-2) mod p by repeated squaring (O(log p) per pivot); no table of all
  p inverses is built, which cost O(p) per block of points.
  The endomorphism system drops the unknown phi_{v,0,0} of the first vertex
  v with alpha_v > 0.  The identity is an endomorphism of every point, so
  projecting End onto that coordinate is onto F_p, and its kernel is the
  nullspace of the system without that column: dim End = unknowns - rank
  of the reduced system, exactly.  The system is gathered from the digits
  by two precomputed index arrays, one for its + terms and one for its -
  terms, and a system left with at most one column inverts no pivot.
- Integer reduction mod p is x - (x // p) p (`_mod`), never numpy's `%`:
  numpy vectorizes integer floor division by a scalar but not the
  remainder, and on int8 arrays `%` took about ten times as long.

Two limits keep a run bounded, and exceeding either raises BudgetError,
never a silent degradation: `max_points` (default DEFAULT_MAX_POINTS =
2^24) caps the points of one enumeration, and `stable_height(p)` (4 at
p = 2, else 3) caps the height of a dimension vector whose subspace search
runs at p.  The `verify` harness uses the same `stable_height` to choose
its rows.

The float products go through the BLAS that numpy links (OpenBLAS), which
by default starts one worker thread per available CPU.  The blocks here are
too small for those threads to shorten the run; they only add CPU time (an
unpinned loop2 verify on two cores used 1.8x its wall time).  So this module
sets OPENBLAS_NUM_THREADS to 1 before numpy is first imported, unless the
environment already sets it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as _cartesian
from typing import Callable, Iterator, Sequence

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402  (after the BLAS thread default above)

from .counting import InvariantError
from .numtheory import is_prime, prime_factors
from .quiver import DimVector, Quiver, height, slope, subvectors


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class DivisibilityError(InvariantError):
    """An orbit count failed to divide evenly; invariant violation."""


DEFAULT_MAX_POINTS = 1 << 24


def stable_height(p: int) -> int:
    """Largest height of a dimension vector whose subspace search runs at p."""
    return 4 if p == 2 else 3


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime the oracle can count at: its
    digits and eliminations are held in at most int64, so p < 2^63."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= 1 << 63:
        raise ValueError(f"{p} is not below 2^63, the oracle's integer limit")


def rep_space_dim(quiver: Quiver, alpha: DimVector) -> int:
    """Dimension of the representation space: sum over arrows of a^i a^j."""
    return sum(alpha[i] * alpha[j] for i, j in quiver.arrow_list())


def gl_order(alpha: Sequence[int], p: int) -> int:
    """#GL_alpha(F_p) = prod_i prod_{j<a_i} (p^{a_i} - p^j)."""
    total = 1
    for a in alpha:
        for j in range(a):
            total *= p**a - p**j
    return total


def _check_point_budget(quiver: Quiver, alpha: DimVector, p: int, max_points: int) -> None:
    total = p ** rep_space_dim(quiver, alpha)
    if total > max_points:
        raise BudgetError(
            f"{total} points for alpha={tuple(alpha)} at p={p} exceeds the budget "
            f"of {max_points}; use a smaller alpha or prime, or raise the budget"
        )


def _check_stability_budget(alpha: DimVector, p: int) -> None:
    # max_points never changes the bound, so the advice names what does
    bound, h = stable_height(p), height(alpha)
    if h > bound:
        advice = "a smaller alpha"
        if h <= stable_height(2):
            advice += f", or p = 2, where the bound is {stable_height(2)}"
        raise BudgetError(f"subspace search at height {h} exceeds the bound {bound} "
                          f"for p={p}; use {advice}")


# -- points -------------------------------------------------------------------


def _arrow_layout(quiver: Quiver, alpha: DimVector) -> list[tuple[int, int, int]]:
    """Per arrow: (source index, target index, flat offset into the digits)."""
    layout = []
    pos = 0
    for i, j in quiver.arrow_list():
        layout.append((i, j, pos))
        pos += alpha[j] * alpha[i]
    return layout


def enumerate_points(quiver: Quiver, alpha: Sequence[int], p: int,
                     max_points: int = DEFAULT_MAX_POINTS
                     ) -> Iterator[tuple[tuple[tuple[int, ...], ...], ...]]:
    """Every point of the representation space exactly once, as its tuple
    of matrices: the arrow h: i -> j carries an alpha_j x alpha_i matrix
    (rows indexed by the target) as a tuple of row tuples in [0, p).

    Deterministic order: point n has flattened entries equal to the base-p
    digits of n, least significant digit first.
    """
    check_prime(p)
    alpha = tuple(alpha)
    _check_point_budget(quiver, alpha, p, max_points)
    spans = [(off, alpha[j], alpha[i]) for i, j, off in _arrow_layout(quiver, alpha)]
    # product() varies its last entry fastest, so reversing each tuple puts
    # the least significant digit first
    for high_first in _cartesian(range(p), repeat=rep_space_dim(quiver, alpha)):
        digits = high_first[::-1]
        yield tuple(
            tuple(digits[off + r * cols:off + (r + 1) * cols] for r in range(rows))
            for off, rows, cols in spans
        )


# -- subspaces -------------------------------------------------------------------


@lru_cache(maxsize=None)
def subspace_bases(n: int, d: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All d-dimensional subspaces of F_p^n, as RREF basis-row matrices."""
    if d < 0 or d > n:
        return ()
    if d == 0:
        return ((),)
    out = []
    for pivot_cols in combinations(range(n), d):
        pivot_set = set(pivot_cols)
        free_pos = [
            (t, j)
            for t in range(d)
            for j in range(pivot_cols[t] + 1, n)
            if j not in pivot_set
        ]
        for values in _cartesian(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for t in range(d):
                rows[t][pivot_cols[t]] = 1
            for (t, j), v in zip(free_pos, values):
                rows[t][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


@lru_cache(maxsize=None)
def _annihilator(basis: tuple[tuple[int, ...], ...], n: int, p: int
                 ) -> tuple[tuple[int, ...], ...]:
    """Rows spanning {w : B w = 0} for an RREF basis B of a subspace of
    F_p^n; membership test v in rowspace(B) <=> A v = 0.

    Read straight off B: one row per non-pivot column f, with 1 at f and
    -B[r][f] mod p at the pivot c_r of each row r.
    """
    pivot_rows = {row.index(1): row for row in basis}  # a row's first nonzero is 1
    return tuple(
        tuple(1 if c == f else -pivot_rows[c][f] % p if c in pivot_rows else 0
              for c in range(n))
        for f in range(n) if f not in pivot_rows
    )


def _proper_subdims(alpha: DimVector) -> list[DimVector]:
    zero = tuple(0 for _ in alpha)
    return [d for d in subvectors(alpha) if d != zero and d != alpha]


def _subspace_tuples(alpha: DimVector, p: int, dims_list: Sequence[DimVector]
                     ) -> Iterator[tuple]:
    """Every subspace tuple, one RREF basis per vertex, of each dimension
    vector in dims_list."""
    for dims in dims_list:
        yield from _cartesian(*(subspace_bases(a, d, p) for a, d in zip(alpha, dims)))


# -- blocked mass counting ----------------------------------------------------------


# 2^12 rows keep a block's largest arrays (the elimination stack, its
# temporaries and the float32 products) inside a 2 MiB L2, and the process
# peak barely rises above what the imports already hold
_BLOCK = 1 << 12


def _signed_dtype(low: int, high: int) -> type:
    """Smallest of int8, int16 and int64 holding every integer in [low, high]."""
    for dtype in (np.int8, np.int16, np.int64):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    raise OverflowError(f"[{low}, {high}] does not fit in int64")


def _digit_blocks(ndigits: int, p: int) -> Iterator[np.ndarray]:
    """Base-p digits of the points 0, 1, ..., p^ndigits - 1, least
    significant digit first, in contiguous blocks of at most _BLOCK rows.

    A block is the p^k points that share their ndigits - k high digits, for
    the largest k with p^k <= _BLOCK (k = 1 when p > _BLOCK, whose p points
    are then split), so its low k digits are the same table in every block:
    the table is built once and the high digits are filled in as constants.
    Entries are in the smallest signed dtype holding p - 1.
    """
    dtype = _signed_dtype(0, p - 1)
    k = min(ndigits, 1)
    while k < ndigits and p ** (k + 1) <= _BLOCK:
        k += 1

    def low_digits(start: int, stop: int) -> np.ndarray:
        idx = np.arange(start, stop, dtype=np.int64)
        table = np.empty((idx.size, k), dtype=dtype)
        for e in range(k - 1):
            table[:, e] = _mod(idx, p)
            idx //= p
        table[:, k - 1:] = idx[:, None]  # the quotient left is the top digit
        return table

    width = p ** k
    table = low_digits(0, min(width, _BLOCK))
    for high in range(p ** (ndigits - k)):
        for start in range(0, width, _BLOCK):
            low = table if start == 0 else low_digits(start, min(start + _BLOCK, width))
            digits = np.empty((low.shape[0], ndigits), dtype=dtype)
            digits[:, :k] = low
            rest = high
            for e in range(k, ndigits):
                digits[:, e] = rest % p
                rest //= p
            yield digits


def _primitive_root(p: int) -> int:
    """The least generator of F_p^* for a prime p: no (p - 1) / q-th power
    is 1, for each prime q | p - 1."""
    factors = prime_factors(p - 1)
    return next(c for c in range(1, p)
                if all(pow(c, (p - 1) // q, p) != 1 for q in factors))


def _gl_generators(n: int, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generators of GL_n(F_p), each with its inverse: every elementary
    transvection I + E_ab (a != b), which generate SL_n, and diag(c, 1, ...,
    1) for a primitive root c when p > 2."""
    gens = []
    for a in range(n):
        for b in range(n):
            if a != b:
                g, inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
                g[a, b], inv[a, b] = 1, p - 1
                gens.append((g, inv))
    if p > 2 and n:
        c = _primitive_root(p)
        g, inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
        g[0, 0], inv[0, 0] = c, pow(c, p - 2, p)
        gens.append((g, inv))
    return gens


@lru_cache(maxsize=None)
def _arrow_orbits(p: int, rows: int, cols: int, loop: bool
                  ) -> tuple[np.ndarray, tuple[int, ...]]:
    """The orbits of the group acting on one arrow's rows x cols matrices
    over F_p, for p^(rows cols) <= _BLOCK: GL_cols x GL_rows by X -> g X h^-1,
    or for a loop (rows = cols) conjugation together with the shift
    X -> X + I.

    Returns (reps, sizes): one row of digits per orbit, its least matrix in
    the digit order of `_digit_blocks` (entry r cols + c is digit r cols +
    c), and the orbit's size.  Each generator maps the table of all matrices
    to an index array, by vec(g X h) = (g (x) h^T) vec(X); the orbits are the
    components of the union of those maps, joined by hooking the larger of
    the two roots of every edge onto the smaller and then compressing every
    label to its root, until no edge joins two roots.  A root is never moved
    to a larger index, so it is the least matrix of its orbit.
    """
    m = rows * cols
    table = next(_digit_blocks(m, p))
    digits = table.astype(np.int64)
    place = p ** np.arange(m, dtype=np.int64)
    if loop:
        actions = [np.kron(g, inv.T) for g, inv in _gl_generators(rows, p)]
    else:
        actions = [np.kron(g, np.eye(cols, dtype=np.int64)) for g, _ in _gl_generators(rows, p)]
        actions += [np.kron(np.eye(rows, dtype=np.int64), h.T) for h, _ in _gl_generators(cols, p)]
    maps = [_mod(digits @ k.T, p) @ place for k in actions]
    if loop:
        maps.append(_mod(digits + np.eye(rows, dtype=np.int64).reshape(-1), p) @ place)
    label = np.arange(table.shape[0])
    joined = True
    while joined:
        joined = False
        for image in maps:
            a, b = label, label[image]
            if (a == b).all():
                continue
            joined = True
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while True:
                up = label[label]
                if (up == label).all():
                    break
                label = up
    reps = np.flatnonzero(label == np.arange(label.size))
    rep_digits = table[reps]
    rep_digits.setflags(write=False)
    return rep_digits, tuple(np.bincount(label)[reps].tolist())


def _sliced_blocks(reps: np.ndarray, off: int, free: Sequence[int], dim: int, p: int
                   ) -> Iterator[tuple[np.ndarray, int, int]]:
    """Full-width (rows, dim) digits blocks of at most _BLOCK rows covering
    every pair of a representative and a value of the free digits: a row
    holds its representative's m entries in columns off, ..., off + m - 1,
    the value in the columns `free`, and 0 in every other column.  A block
    is (digits, first, n): its rows are n consecutive rows for each of the
    representatives first, first + 1, ...; when p^len(free) is below _BLOCK,
    several representatives share one block."""
    k, m = reps.shape
    per = max(1, _BLOCK // p**len(free))
    for low in _digit_blocks(len(free), p):
        n = low.shape[0]
        for start in range(0, k, per):
            chunk = reps[start:start + per]
            digits = np.zeros((chunk.shape[0], n, dim), dtype=low.dtype)
            digits[:, :, off:off + m] = chunk[:, None, :]
            digits[:, :, free] = low
            yield digits.reshape(chunk.shape[0] * n, dim), start, n


def _candidate_constraints(quiver: Quiver, alpha: DimVector, p: int,
                           dims_list: Sequence[DimVector]) -> list[np.ndarray]:
    """For every subspace tuple of the given dimension vectors, one integer
    (dim, k) matrix M with digits @ M = 0 mod p exactly where the tuple is
    invariant.

    An arrow h: i -> j with source basis rows B and target annihilator rows C
    keeps the tuple iff C X_h B^T = 0; its columns of M give vec(C X_h B^T)
    straight from the digits, M[off + s*cols + t, r*d + u] = C[r,s] B^T[t,u].
    A tuple that no arrow can move has k = 0 and is invariant everywhere.
    """
    layout = _arrow_layout(quiver, alpha)
    dim = rep_space_dim(quiver, alpha)
    candidates = []
    for bases in _subspace_tuples(alpha, p, dims_list):
        blocks = []
        for i, j, off in layout:
            if not bases[i]:
                continue
            ann = _annihilator(bases[j], alpha[j], p)
            if not ann:
                continue
            C = np.array(ann, dtype=np.int64)              # (k, rows)
            BT = np.array(bases[i], dtype=np.int64).T      # (cols, d)
            block = np.zeros((dim, C.shape[0] * BT.shape[1]), dtype=np.int64)
            block[off:off + alpha[j] * alpha[i]] = np.kron(C.T, BT)
            blocks.append(block)
        candidates.append(np.hstack(blocks) if blocks
                          else np.zeros((dim, 0), dtype=np.int64))
    return candidates


def _product_dtype(dim: int, p: int) -> type:
    """The first of float32, float64 and int64 whose products digits @ M
    are exact: every entry is at most dim (p-1)^3, and so is every partial
    sum of its nonnegative terms, so a float product is exact in any
    summation order while that bound is below 2^24 (float32) or 2^53
    (float64)."""
    bound = dim * (p - 1) ** 3
    if bound < 1 << 24:
        return np.float32
    return np.float64 if bound < 1 << 53 else np.int64


def _column_groups(candidates: Sequence[np.ndarray], dim: int, p: int
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Runs of consecutive candidates, each stacked into one matrix of at
    most `dim` columns, with the 0/1 matrix G whose entry [c, t] is 1 when
    column c belongs to the run's t-th candidate; both in `_product_dtype`.
    A candidate with no columns has a zero column in G."""
    dtype = _product_dtype(dim, p)

    def stacked(run):
        owner = np.repeat(np.eye(len(run), dtype=dtype),
                          [m.shape[1] for m in run], axis=0)
        return np.hstack(run).astype(dtype), owner

    groups = []
    run: list[np.ndarray] = []
    cols = 0
    for m in candidates:
        if run and cols + m.shape[1] > dim:
            groups.append(stacked(run))
            run, cols = [], 0
        run.append(m)
        cols += m.shape[1]
    if run:
        groups.append(stacked(run))
    return groups


def _no_invariant_mask(digits: np.ndarray, p: int,
                       groups: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """True where no candidate subspace tuple is invariant; `groups` comes
    from `_column_groups` for the same dim and p.

    The remainder of a float product is prod - p floor(prod / p), exact
    below 2^24 in float32 and below 2^53 in float64: for prod = kp + j with
    0 <= j < p, prod / p lies in [k, k + 1 - 1/p], and float32 (float64)
    values in [k, k + 1] lie at most 2^-23 max(k, 1) (2^-52 max(k, 1)) apart,
    which is below 2/p because kp <= prod is below 2^24 (2^53); so rounding,
    which never crosses the float k, moves the quotient by less than 1/p: it
    stays in [k, k + 1) and its floor is k; p k and prod - p k are exact too.
    The int64 product takes an integer remainder (`_mod`).  Remainders are
    >= 0, so (rem @ G)[t] is 0 exactly where every column of candidate t is.
    """
    n, dim = digits.shape
    dtype = _product_dtype(dim, p)
    x = digits.astype(dtype)
    ok = np.ones(n, dtype=bool)
    # a candidate has at most dim columns (k <= rows and d <= cols for each
    # arrow), so no product block is larger than the digits block
    for stacked, owner in groups:
        prod = x @ stacked
        if dtype is not np.int64:
            quot = prod / p
            np.floor(quot, out=quot)
            quot *= p
            prod -= quot
        else:
            prod = _mod(prod, p)
        ok &= (prod @ owner != 0).all(axis=1)
        if not ok.any():
            break
    return ok


def _elim_dtype(p: int, ncols: int) -> type:
    """Smallest signed dtype holding every intermediate of `_batch_rank` on
    ncols columns.  An entry starts in [0, p) and loses at most one product
    in [0, (p-1)^2] per earlier column, so entries lie in
    [-(ncols-1)(p-1)^2, p-1]; a dtype holding that range holds the products
    too, since (p-1)^2 is a square and so never 2^7 or 2^15.  Nine columns
    stay int8 at p = 2, 3 and 5."""
    return _signed_dtype(-(ncols - 1) * (p - 1) ** 2, p - 1)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p) for an integer array x, as x - (x // p) p: numpy
    vectorizes integer floor division by a scalar but not `%`.

    It is exact even where (x // p) p leaves the dtype, as it does at the
    int8 minimum -128 with p = 3 ((-43) 3 = -129 wraps to 127): numpy's
    integer array arithmetic wraps modulo 2^bits, so the result is
    congruent to the true remainder modulo 2^bits; both lie in the dtype's
    range (the true remainder is in [0, p), and the dtype holds p), so they
    are equal."""
    return x - x // p * p


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p for x in [0, p), by repeated squaring in x's dtype: the
    inverse of every nonzero x.  The dtype is `_elim_dtype`'s for at least
    two columns, which holds (p-1)^2, so no square or product overflows."""
    out = None
    e = p - 2
    while e:
        if e & 1:
            out = x if out is None else _mod(out * x, p)
        e >>= 1
        if e:
            x = _mod(x * x, p)
    return np.ones_like(x) if out is None else out


def _batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices, by vectorized elimination.

    The (n, rows, cols) stack is held as one contiguous (rows, cols, n)
    array in the dtype of `_elim_dtype`, so every step is a vector
    operation across the stack.  Reduction is lazy: a step reduces mod p
    only the column it eliminates and the pivot row it gathers, and the
    rest of the array takes the update unreduced, and only the n gathered
    pivots are inverted (`_inverse_mod`).  Every reduction goes through
    `_mod`, by floor division, which numpy vectorizes, unlike `%`.  A
    pivot row is never swapped: eliminating it against itself makes it 0
    mod p, which retires it, and every other row has a zero in the pivot
    column, so the rank of what is left drops by one.
    """
    n, nrows, ncols = mats.shape
    if n == 0 or nrows == 0 or ncols == 0:
        return np.zeros(n, dtype=np.int64)
    dtype = _elim_dtype(p, ncols)
    a = np.ascontiguousarray(np.moveaxis(_mod(mats, p), 0, -1), dtype=dtype)
    rank = np.zeros(n, dtype=np.int64)
    # entry (r, c, t) of a is flat[r ncols n + c n + t]: one `take` gathers
    # every pivot row, faster than np.take_along_axis
    flat = a.reshape(-1)
    offsets = np.arange(ncols)[:, None] * n + np.arange(n)
    for col in range(ncols):
        column = a[:, col, :]
        column[...] = _mod(column, p)
        nonzero = column != 0
        has = nonzero.any(axis=0)
        if not has.any():
            continue
        rank += has
        if col + 1 == ncols:
            break
        # the first nonzero row (row 0 where the column is zero; the update
        # below then subtracts zero, whatever the row is scaled by)
        piv = nonzero.argmax(axis=0)
        pivot_row = flat.take(offsets[col:] + piv * (ncols * n))
        scaled = _mod(_mod(pivot_row[1:], p) * _inverse_mod(pivot_row[0], p), p)
        rest = a[:, col + 1:, :]
        rest -= column[:, None, :] * scaled
    return rank


@lru_cache(maxsize=None)
def _end_system_index(quiver: Quiver, alpha: DimVector
                      ) -> tuple[int, np.ndarray, np.ndarray]:
    """The commuting-square system phi_j X_h = X_h phi_i, one equation per
    arrow h: i -> j and entry of X_h, in the unknowns phi_{v,r,s} at offset
    sum_{u<v} alpha_u^2 + r alpha_v + s, without the unknown phi_{v,0,0} of
    the first vertex v with alpha_v > 0, as gather indices.

    Returns (unknowns, plus, minus): entry (eq, col) of the system is
    digit[plus[eq, col]] - digit[minus[eq, col]], where index dim names a
    zero digit.  An equation belongs to one arrow h: i -> j, and a column
    meets at most one of its + terms (phi_j X_h) and one of its - terms
    (X_h phi_i); for a loop both can land on the same diagonal entry.
    """
    sizes = [a * a for a in alpha]
    offsets = [sum(sizes[:i]) for i in range(len(alpha))]
    unknowns = sum(sizes)
    layout = _arrow_layout(quiver, alpha)
    dim = rep_space_dim(quiver, alpha)
    neq = sum(alpha[j] * alpha[i] for i, j, _ in layout)
    plus = np.full((neq, unknowns), dim, dtype=np.intp)
    minus = np.full((neq, unknowns), dim, dtype=np.intp)
    eq = 0
    for i, j, off in layout:
        ai, aj = alpha[i], alpha[j]
        for r in range(aj):
            for c in range(ai):
                for s in range(aj):
                    plus[eq, offsets[j] + r * aj + s] = off + s * ai + c
                for s in range(ai):
                    minus[eq, offsets[i] + s * ai + c] = off + r * ai + s
                eq += 1
    identity = next((offsets[v] for v, a in enumerate(alpha) if a), None)
    if identity is not None:
        plus = np.delete(plus, identity, axis=1)
        minus = np.delete(minus, identity, axis=1)
    plus.setflags(write=False)
    minus.setflags(write=False)
    return unknowns, plus, minus


def _batch_end_dims(digits: np.ndarray, quiver: Quiver, alpha: DimVector,
                    p: int) -> np.ndarray:
    """Endomorphism dimensions for every point in the block: unknowns minus
    the rank of the system without the identity column (exact, see the
    module docstring), gathered straight in the elimination layout."""
    n = digits.shape[0]
    unknowns, plus, minus = _end_system_index(quiver, alpha)
    # an entry is one digit minus another, in [-(p-1), p-1]
    x = np.zeros((digits.shape[1] + 1, n), dtype=_signed_dtype(-(p - 1), p - 1))
    x[:-1] = digits.T
    system = x[plus]
    system -= x[minus]
    return unknowns - _batch_rank(system.transpose(2, 0, 1), p)


def _violating_dims(alpha: DimVector, theta: Sequence[int],
                    strict: bool) -> list[DimVector]:
    """Proper sub-dimension vectors of slope > (strict) or >= the slope of
    alpha: the only ones whose invariant subspaces break (semi)stability."""
    mu = slope(theta, alpha)
    return [d for d in _proper_subdims(alpha)
            if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]


def _scan(quiver: Quiver, alpha: DimVector, p: int, viol: Sequence[DimVector],
          max_points: int, label: Callable[[np.ndarray], np.ndarray] | None = None
          ) -> dict[int, int]:
    """Points of the representation space where no subspace tuple of a
    dimension vector in `viol` is invariant, counted by label: label(digits)
    gives a nonnegative integer for each row of an (n, dim) digits block of
    such points, and the result maps each label to its count.  Without a
    label every such point counts under 0.

    The scan slices one arrow by its group orbits and the other loops by
    their scalar shifts (see the module docstring): every block is full
    width, in the column order of `_arrow_layout`, so the constraint
    matrices and the label read it as it is.  The sliced arrow's entries run
    over one representative per orbit (`_arrow_orbits`), the other loops'
    (0, 0) digits stay 0, and the rest run over every value.
    A count at a representative is weighted by its orbit's size and by p^L
    for the L shifted loops.  Only the label of a block outlives it, so no
    more than one digits block is held while the next one is scanned.

    Counts nothing when some d in `viol` is unmovable (no arrow i -> j has
    d_i > 0 and d_j < alpha_j): every point would fail the test.
    """
    _check_point_budget(quiver, alpha, p, max_points)
    if viol:
        _check_stability_budget(alpha, p)
    arrows = quiver.arrow_list()
    if any(not any(d[i] > 0 and d[j] < alpha[j] for i, j in arrows) for d in viol):
        return {}
    dim = rep_space_dim(quiver, alpha)
    layout = _arrow_layout(quiver, alpha)
    size = [alpha[i] * alpha[j] for i, j, _ in layout]
    # slice the arrow with the most entries whose table fits one block, the
    # first on a tie; with none, an empty arrow of one representative
    sliced = max((h for h, m in enumerate(size) if m and p**m <= _BLOCK),
                 key=size.__getitem__, default=None)
    if sliced is None:
        reps, sizes = _arrow_orbits(p, 0, 0, False)
        off = 0
    else:
        i, j, off = layout[sliced]
        reps, sizes = _arrow_orbits(p, alpha[j], alpha[i], i == j)
    entries = range(off, off + reps.shape[1])
    # the (0, 0) digit of every other loop at a vertex with alpha_v > 0 stays 0
    fixed = [off for h, (i, j, off) in enumerate(layout) if i == j and alpha[i] and h != sliced]
    free = [e for e in range(dim) if e not in entries and e not in fixed]
    groups = _column_groups(_candidate_constraints(quiver, alpha, p, viol), dim, p)
    k = len(sizes)
    tally: dict[int, int] = {}
    for digits, first, n in _sliced_blocks(reps, off, free, dim, p):
        rows = np.flatnonzero(_no_invariant_mask(digits, p, groups))
        if not rows.size:
            continue
        # a row's key is label * k + its representative first + rows // n;
        # enumerate adds the block's first representative
        keys = rows // n
        if label is not None:
            keys += label(digits[rows]) * k
        for key, c in enumerate(np.bincount(keys).tolist(), first):
            if c:
                tally[key] = tally.get(key, 0) + c
    weight = p ** len(fixed)
    out: dict[int, int] = {}
    for key, c in tally.items():
        v, r = divmod(key, k)
        out[v] = out.get(v, 0) + c * sizes[r] * weight
    return out


def count_semistable_ratio(quiver: Quiver, alpha: Sequence[int],
                           theta: Sequence[int], p: int,
                           max_points: int = DEFAULT_MAX_POINTS) -> Fraction:
    """#semistable points / #GL, exactly.

    Only dimension vectors of slope above the point's slope can violate
    semistability, so when no such sub-dimension exists (for instance for
    the zero stability) every point is semistable and no enumeration is
    needed; otherwise the points are scanned in blocks.
    """
    check_prime(p)
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return Fraction(1)
    viol = _violating_dims(alpha, theta, strict=True)
    if not viol:
        return Fraction(p ** rep_space_dim(quiver, alpha), gl_order(alpha, p))
    tally = _scan(quiver, alpha, p, viol, max_points)
    return Fraction(tally.get(0, 0), gl_order(alpha, p))


@lru_cache(maxsize=128)
def _stable_end_tally(quiver: Quiver, alpha: DimVector, theta: tuple[int, ...],
                      p: int, max_points: int) -> tuple[tuple[int, int], ...]:
    """(end_dim, point count) pairs over all stable points."""
    viol = _violating_dims(alpha, theta, strict=False)
    tally = _scan(quiver, alpha, p, viol, max_points,
                  lambda digits: _batch_end_dims(digits, quiver, alpha, p))
    return tuple(sorted(tally.items()))


def count_stable_with_end_dim(quiver: Quiver, alpha: Sequence[int],
                              theta: Sequence[int], p: int, r: int,
                              max_points: int = DEFAULT_MAX_POINTS) -> int:
    """Isomorphism classes of stable points whose endomorphism ring is the
    field with p^r elements.

    Such a point has automorphism group F_{p^r}^*, so the class count is
    (#points) * (p^r - 1) / #GL; exact divisibility is asserted.
    """
    check_prime(p)
    if r < 1:
        raise ValueError("endomorphism degree must be >= 1")
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return 0
    tally = dict(_stable_end_tally(quiver, alpha, tuple(theta), p, max_points))
    numerator = tally.get(r, 0) * (p**r - 1)
    glo = gl_order(alpha, p)
    if numerator % glo:
        raise DivisibilityError(
            f"stable classes with degree {r} at {alpha}, p={p}: {tally.get(r, 0)} "
            f"points with automorphism order {p**r - 1} do not split into whole "
            f"orbits of GL order {glo}"
        )
    return numerator // glo


def count_absolutely_stable(quiver: Quiver, alpha: Sequence[int],
                            theta: Sequence[int], p: int,
                            max_points: int = DEFAULT_MAX_POINTS) -> int:
    """Isomorphism classes of stable points with scalar endomorphisms only,
    that is, with endomorphism field of degree 1."""
    return count_stable_with_end_dim(quiver, alpha, theta, p, 1, max_points)
