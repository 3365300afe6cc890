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
digits array (points x entries) per block; results are identical to the
per-point functions, which are kept as the simple reference implementation.
A block is the p^k points that share their high digits, so the low k digits
are one table, built once per scan and held in the smallest signed dtype.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as _cartesian
from typing import Callable, Iterator, Sequence, TypeVar

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402  (after the BLAS thread default above)

from .counting import InvariantError
from .numtheory import is_prime
from .quiver import Quiver, slope
from .series import DimVector, height, subvectors


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class DivisibilityError(InvariantError):
    """An orbit count failed to divide evenly; invariant violation."""


DEFAULT_MAX_POINTS = 1 << 24
T = TypeVar("T")


def stable_height(p: int) -> int:
    """Largest height of a dimension vector whose subspace search runs at p."""
    return 4 if p == 2 else 3


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


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


@dataclass(frozen=True)
class RepPoint:
    """One point of the representation space: a matrix per arrow.

    The arrow h: i -> j carries an alpha^j x alpha^i matrix (rows indexed by
    the target), stored as a tuple of row tuples with entries in [0, p).
    """

    quiver: Quiver
    alpha: DimVector
    p: int
    mats: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        arrows = self.quiver.arrow_list()
        if len(self.mats) != len(arrows):
            raise ValueError("one matrix per arrow required")
        for (i, j), m in zip(arrows, self.mats):
            if len(m) != self.alpha[j] or any(len(row) != self.alpha[i] for row in m):
                raise ValueError(f"matrix shape mismatch for arrow {i}->{j}")


def _arrow_layout(quiver: Quiver, alpha: DimVector) -> list[tuple[int, int, int]]:
    """Per arrow: (source index, target index, flat offset into the digits)."""
    layout = []
    pos = 0
    for i, j in quiver.arrow_list():
        layout.append((i, j, pos))
        pos += alpha[j] * alpha[i]
    return layout


def count_points(quiver: Quiver, alpha: Sequence[int], p: int,
                 max_points: int = DEFAULT_MAX_POINTS) -> int:
    """Number of points of the representation space, by one pass over the
    digit blocks of the mass counts (`enumerate_points` stays the per-point
    reference)."""
    _check_prime(p)
    alpha = tuple(alpha)
    _check_point_budget(quiver, alpha, p, max_points)
    return sum(digits.shape[0] for digits in _digit_blocks(rep_space_dim(quiver, alpha), p))


def enumerate_points(quiver: Quiver, alpha: Sequence[int], p: int,
                     max_points: int = DEFAULT_MAX_POINTS) -> Iterator[RepPoint]:
    """Every point of the representation space exactly once.

    Deterministic order: point n has flattened entries equal to the base-p
    digits of n, least significant digit first.
    """
    _check_prime(p)
    alpha = tuple(alpha)
    _check_point_budget(quiver, alpha, p, max_points)
    spans = [(off, alpha[j], alpha[i]) for i, j, off in _arrow_layout(quiver, alpha)]
    # product() varies its last entry fastest, so reversing each tuple puts
    # the least significant digit first
    for high_first in _cartesian(range(p), repeat=rep_space_dim(quiver, alpha)):
        digits = high_first[::-1]
        mats = tuple(
            tuple(digits[off + r * cols:off + (r + 1) * cols] for r in range(rows))
            for off, rows, cols in spans
        )
        yield RepPoint(quiver, alpha, p, mats)


# -- linear algebra mod p (plain python; small matrices only) --------------------


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                factor = rows[k][col]
                rows[k] = [(a - factor * b) % p for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    if not rows:
        return [[1 if c == k else 0 for c in range(ncols)] for k in range(ncols)]
    reduced, pivots = _rref([list(r) for r in rows], p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-reduced[r][f]) % p
        basis.append(v)
    return basis


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
    """Rows spanning {w : B w = 0}; membership test v in rowspace(B) <=> A v = 0."""
    return tuple(tuple(row) for row in _nullspace([list(r) for r in basis], n, p))


def _proper_subdims(alpha: DimVector) -> list[DimVector]:
    zero = tuple(0 for _ in alpha)
    return [d for d in subvectors(alpha) if d != zero and d != alpha]


def _tuple_is_invariant(point: RepPoint, bases: Sequence[tuple], p: int) -> bool:
    alpha = point.alpha
    for (i, j), mat in zip(point.quiver.arrow_list(), point.mats):
        basis_i = bases[i]
        if not basis_i:
            continue
        ann_j = _annihilator(bases[j], alpha[j], p)
        if not ann_j:
            continue
        for u in basis_i:
            image = [sum(mat[r][c] * u[c] for c in range(alpha[i])) % p
                     for r in range(alpha[j])]
            for w in ann_j:
                if sum(a * b for a, b in zip(w, image)) % p:
                    return False
    return True


def _violating_tuples(point: RepPoint, theta: Sequence[int], strict: bool):
    """Subspace tuples whose dimension vector would violate (semi)stability."""
    alpha = point.alpha
    mu = slope(theta, alpha)
    for dims in _proper_subdims(alpha):
        s = slope(theta, dims)
        if (s > mu) if strict else (s >= mu):
            per_vertex = [subspace_bases(alpha[i], dims[i], point.p)
                          for i in range(len(alpha))]
            yield from _cartesian(*per_vertex)


def _no_invariant_tuple(point: RepPoint, theta: Sequence[int], strict: bool) -> bool:
    return not any(_tuple_is_invariant(point, bases, point.p)
                   for bases in _violating_tuples(point, theta, strict))


def is_semistable(point: RepPoint, theta: Sequence[int]) -> bool:
    """No invariant subspace tuple of slope greater than the point's slope.

    The zero representation counts as semistable.
    """
    return height(point.alpha) == 0 or _no_invariant_tuple(point, theta, strict=True)


def is_stable(point: RepPoint, theta: Sequence[int]) -> bool:
    """No invariant subspace tuple of slope >= the point's slope.

    The zero representation is not stable.
    """
    return height(point.alpha) > 0 and _no_invariant_tuple(point, theta, strict=False)


def endomorphism_dim(point: RepPoint) -> int:
    """Dimension over F_p of {(phi_i) : phi_j X_h = X_h phi_i for all h: i->j}."""
    alpha = point.alpha
    p = point.p
    sizes = [a * a for a in alpha]
    offsets = [sum(sizes[:i]) for i in range(len(alpha))]
    unknowns = sum(sizes)
    rows = []
    for (i, j), mat in zip(point.quiver.arrow_list(), point.mats):
        ai, aj = alpha[i], alpha[j]
        for r in range(aj):
            for c in range(ai):
                row = [0] * unknowns
                for s in range(aj):
                    row[offsets[j] + r * aj + s] += mat[s][c]
                for s in range(ai):
                    row[offsets[i] + s * ai + c] -= mat[r][s]
                rows.append([x % p for x in row])
    if not rows:
        return unknowns
    reduced, pivots = _rref(rows, p)
    return unknowns - len(pivots)


# -- blocked mass counting ----------------------------------------------------------


_BLOCK = 1 << 15


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
        for e in range(k):
            table[:, e] = idx % p
            idx //= p
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
    for dims in dims_list:
        per_vertex = [subspace_bases(alpha[i], dims[i], p) for i in range(len(alpha))]
        for bases in _cartesian(*per_vertex):
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


def _batch_end_dims(digits: np.ndarray, quiver: Quiver, alpha: DimVector,
                    p: int) -> np.ndarray:
    """Endomorphism dimensions for every point in the block."""
    n = digits.shape[0]
    sizes = [a * a for a in alpha]
    offsets = [sum(sizes[:i]) for i in range(len(alpha))]
    unknowns = sum(sizes)
    layout = _arrow_layout(quiver, alpha)
    neq = sum(alpha[j] * alpha[i] for i, j, _ in layout)
    if neq == 0:
        return np.full(n, unknowns, dtype=np.int64)
    # built in the elimination layout and dtype: an entry is at most one
    # digit minus another, inside [-(p-1), p-1], which a signed dtype
    # holding p - 1 holds
    dtype = _elim_dtype(p, unknowns)
    x = np.ascontiguousarray(digits.T, dtype=dtype)
    system = np.zeros((neq, unknowns, n), dtype=dtype)
    eq = 0
    for i, j, off in layout:
        ai, aj = alpha[i], alpha[j]
        for r in range(aj):
            for c in range(ai):
                row = system[eq + r * ai + c]
                for s in range(aj):
                    row[offsets[j] + r * aj + s] += x[off + s * ai + c]
                for s in range(ai):
                    row[offsets[i] + s * ai + c] -= x[off + r * ai + s]
        eq += aj * ai
    return unknowns - _batch_rank(system.transpose(2, 0, 1), p)


def _violating_dims(alpha: DimVector, theta: Sequence[int],
                    strict: bool) -> list[DimVector]:
    """Proper sub-dimension vectors of slope > (strict) or >= the slope of
    alpha: the only ones whose invariant subspaces break (semi)stability."""
    mu = slope(theta, alpha)
    return [d for d in _proper_subdims(alpha)
            if (slope(theta, d) > mu if strict else slope(theta, d) >= mu)]


def _scan(quiver: Quiver, alpha: DimVector, p: int, viol: Sequence[DimVector],
          max_points: int, per_block: Callable[[np.ndarray, np.ndarray], T]
          ) -> Iterator[T]:
    """per_block(digits, mask) for every block of points of the
    representation space; the mask is True where no subspace tuple of a
    dimension vector in `viol` is invariant.

    Only the result of per_block outlives its block, so no more than one
    digits block is held while the next one is scanned.

    Yields nothing when some d in `viol` is unmovable (no arrow i -> j has
    d_i > 0 and d_j < alpha_j): every mask would be False.
    """
    _check_point_budget(quiver, alpha, p, max_points)
    if viol:
        _check_stability_budget(alpha, p)
    arrows = quiver.arrow_list()
    if any(not any(d[i] > 0 and d[j] < alpha[j] for i, j in arrows) for d in viol):
        return
    dim = rep_space_dim(quiver, alpha)
    groups = _column_groups(_candidate_constraints(quiver, alpha, p, viol), dim, p)
    for digits in _digit_blocks(dim, p):
        yield per_block(digits, _no_invariant_mask(digits, p, groups))


def count_semistable_ratio(quiver: Quiver, alpha: Sequence[int],
                           theta: Sequence[int], p: int,
                           max_points: int = DEFAULT_MAX_POINTS) -> Fraction:
    """#semistable points / #GL, exactly.

    Only dimension vectors of slope above the point's slope can violate
    semistability, so when no such sub-dimension exists (for instance for
    the zero stability) every point is semistable and no enumeration is
    needed; otherwise all points are scanned in blocks.
    """
    _check_prime(p)
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return Fraction(1)
    viol = _violating_dims(alpha, theta, strict=True)
    if not viol:
        return Fraction(p ** rep_space_dim(quiver, alpha), gl_order(alpha, p))
    count = sum(_scan(quiver, alpha, p, viol, max_points,
                      lambda _, mask: int(mask.sum())))
    return Fraction(count, gl_order(alpha, p))


@lru_cache(maxsize=128)
def _stable_end_tally(quiver: Quiver, alpha: DimVector, theta: tuple[int, ...],
                      p: int, max_points: int) -> tuple[tuple[int, int], ...]:
    """(end_dim, point count) pairs over all stable points."""
    viol = _violating_dims(alpha, theta, strict=False)
    tally: dict[int, int] = {}
    for stable_digits in _scan(quiver, alpha, p, viol, max_points,
                               lambda digits, mask: digits[mask]):
        if stable_digits.shape[0] == 0:
            continue
        ends = _batch_end_dims(stable_digits, quiver, alpha, p)
        values, counts = np.unique(ends, return_counts=True)
        for v, c in zip(values, counts):
            tally[int(v)] = tally.get(int(v), 0) + int(c)
    return tuple(sorted(tally.items()))


def count_stable_with_end_dim(quiver: Quiver, alpha: Sequence[int],
                              theta: Sequence[int], p: int, r: int,
                              max_points: int = DEFAULT_MAX_POINTS) -> int:
    """Isomorphism classes of stable points whose endomorphism ring is the
    field with p^r elements.

    Such a point has automorphism group F_{p^r}^*, so the class count is
    (#points) * (p^r - 1) / #GL; exact divisibility is asserted.
    """
    _check_prime(p)
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
