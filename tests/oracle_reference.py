"""The per-point reference of the brute-force oracle, in plain Python.

The blocked kernels of `quivercount.oracle` are checked against these
functions, one point at a time.  A point is given as (quiver, alpha, p,
mats), with mats as `oracle.enumerate_points` yields them: one matrix per
arrow, the arrow h: i -> j carrying an alpha_j x alpha_i matrix (rows
indexed by the target) as a tuple of row tuples with entries in [0, p).

Semistability and stability are decided by searching every subspace tuple
(one RREF basis per vertex, from `oracle.subspace_bases`) of a violating
dimension vector for one that the arrow maps keep; the endomorphism
dimension is the nullity of the commuting-square system.  The annihilators
here come from `_rref` and `_nullspace`, not from `oracle._annihilator`,
which reads them straight off the RREF bases, so the reference shares no
linear algebra with the kernels it checks.
"""

from functools import lru_cache
from typing import Iterator, Sequence

from quivercount.oracle import _subspace_tuples, _violating_dims
from quivercount.quiver import height


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of the matrix mod p, without its zero
    rows, and its pivot columns."""
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
def _annihilator(basis: tuple[tuple[int, ...], ...], n: int, p: int
                 ) -> tuple[tuple[int, ...], ...]:
    """Rows spanning {w : B w = 0}, by `_nullspace`."""
    return tuple(tuple(row) for row in _nullspace([list(r) for r in basis], n, p))


def _tuple_is_invariant(quiver, alpha, p, mats, bases: Sequence[tuple]) -> bool:
    """Whether every arrow map sends the subspace at its source into the
    subspace at its target."""
    for (i, j), mat in zip(quiver.arrow_list(), mats):
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


def _violating_tuples(alpha, p, theta: Sequence[int], strict: bool) -> Iterator[tuple]:
    """Subspace tuples whose dimension vector would violate (semi)stability."""
    return _subspace_tuples(alpha, p, _violating_dims(alpha, theta, strict))


def _no_invariant_tuple(quiver, alpha, p, mats, theta: Sequence[int],
                        strict: bool) -> bool:
    return not any(_tuple_is_invariant(quiver, alpha, p, mats, bases)
                   for bases in _violating_tuples(alpha, p, theta, strict))


def is_semistable(quiver, alpha, p, mats, theta: Sequence[int]) -> bool:
    """No invariant subspace tuple of slope greater than the point's slope.

    The zero representation counts as semistable.
    """
    return height(alpha) == 0 or _no_invariant_tuple(quiver, alpha, p, mats, theta,
                                                     strict=True)


def is_stable(quiver, alpha, p, mats, theta: Sequence[int]) -> bool:
    """No invariant subspace tuple of slope >= the point's slope.

    The zero representation is not stable.
    """
    return height(alpha) > 0 and _no_invariant_tuple(quiver, alpha, p, mats, theta,
                                                     strict=False)


def endomorphism_dim(quiver, alpha, p, mats) -> int:
    """Dimension over F_p of {(phi_i) : phi_j X_h = X_h phi_i for all h: i->j}."""
    sizes = [a * a for a in alpha]
    offsets = [sum(sizes[:i]) for i in range(len(alpha))]
    unknowns = sum(sizes)
    rows = []
    for (i, j), mat in zip(quiver.arrow_list(), mats):
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
