"""Quiver combinatorics: arrow data, Euler forms, dimension vectors and the
slope cone, the height-by-height solver, slopes and q-binomials.

A quiver is stored as an arrow-multiplicity matrix (entry (i, j) counts
arrows i -> j); loops and parallel arrows are allowed.  The bilinear form

    <a, b> = sum_i a^i b^i - sum_{arrows i->j} a^i b^j

has Gram matrix R with R_ij = delta_ij - #arrows(i -> j); its quadratic
form T(a) = <a, a> enters the closed formulas for counting series.

Every generating series of the count path is solved on a TruncationSpec,
height by height, by one recurrence generic in the coefficient ring whose
caller sums each coefficient's terms (_solve_by_height; Brent & Kung, "Fast
algorithms for manipulating formal power series", J. ACM 1978).

The q-binomials

    [n, m] = prod_{i=1..m} (1 - q^{n+i}) / prod_{i=1..m} (1 - q^i)

for integers n are exact rational functions (polynomials for n >= 0, built by
the q-Pascal rule), with vertexwise products for vector arguments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as _cartesian, zip_longest
from operator import mul
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar

from .qpoly import QPoly, RationalFunction
from .value import Value

DimVector = tuple[int, ...]
C = TypeVar("C")  # a coefficient ring element
T = TypeVar("T")  # a term of a sum of coefficients


def form_pairing(form: Sequence[Sequence[int]], alpha: DimVector, beta: DimVector) -> int:
    """Bilinear pairing alpha^t R beta for an integer matrix R."""
    if len(alpha) != len(form) or len(beta) != len(form):
        raise ValueError("dimension mismatch between form and vectors")
    total = 0
    for i, a in enumerate(alpha):
        if a:
            row = form[i]
            total += a * sum(row[j] * b for j, b in enumerate(beta) if b)
    return total


class Quiver(Value):
    """A finite quiver with named vertices and an arrow-count matrix."""

    __slots__ = ("vertices", "arrow_counts")

    def __init__(self, vertices: tuple[str, ...], arrow_counts: tuple[tuple[int, ...], ...]):
        n = len(vertices)
        if n == 0:
            raise ValueError("quiver needs at least one vertex")
        if len(set(vertices)) != n:
            raise ValueError("vertex names must be distinct")
        if len(arrow_counts) != n or any(len(row) != n for row in arrow_counts):
            raise ValueError("arrow matrix must be square with one row per vertex")
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
                   for row in arrow_counts for c in row):
            raise ValueError("arrow counts must be nonnegative integers")
        self._set(vertices=vertices, arrow_counts=arrow_counts)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]],
                    vertices: Optional[Sequence[str]] = None) -> "Quiver":
        if not isinstance(matrix, (list, tuple)) or \
                not all(isinstance(row, (list, tuple)) for row in matrix):
            raise ValueError("arrow matrix must be a list of rows")
        n = len(matrix)
        if vertices is None:
            vertices = [str(i + 1) for i in range(n)]
        return cls(tuple(vertices), tuple(tuple(row) for row in matrix))

    @classmethod
    def from_arrows(cls, vertices: Sequence[str],
                    arrows: Sequence[Sequence[str]]) -> "Quiver":
        if not isinstance(arrows, (list, tuple)):
            raise ValueError("arrows must be a list of [source, target] pairs")
        index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        counts = [[0] * n for _ in range(n)]
        for arrow in arrows:
            if not isinstance(arrow, (list, tuple)) or len(arrow) != 2:
                raise ValueError(f"arrow {arrow!r} must be a [source, target] pair")
            try:
                counts[index[arrow[0]]][index[arrow[1]]] += 1
            except (KeyError, TypeError):  # an unknown or an unhashable endpoint
                raise ValueError(f"arrow {arrow!r} uses an unknown vertex") from None
        return cls.from_matrix(counts, vertices)

    @classmethod
    def from_json(cls, data: dict) -> "Quiver":
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
            raise ValueError("quiver JSON needs a 'vertices' list")
        vertices = [str(v) for v in data["vertices"]]
        if "matrix" in data and "arrows" in data:
            raise ValueError("quiver JSON has both 'arrows' and 'matrix'; give one")
        if "matrix" in data:
            return cls.from_matrix(data["matrix"], vertices)
        if "arrows" in data:
            return cls.from_arrows(vertices, data["arrows"])
        raise ValueError("quiver JSON needs 'arrows' or 'matrix'")

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "matrix": [list(row) for row in self.arrow_counts],
        }

    # -- structure -------------------------------------------------------------

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def arrow_list(self) -> tuple[tuple[int, int], ...]:
        """Arrows as (source, target) index pairs, in canonical order."""
        out = []
        for i, row in enumerate(self.arrow_counts):
            for j, count in enumerate(row):
                out.extend([(i, j)] * count)
        return tuple(out)

    def ringel_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix R of the Euler form: R_ij = delta_ij - #arrows(i->j)."""
        n = self.nvertices
        return tuple(
            tuple((1 if i == j else 0) - self.arrow_counts[i][j] for j in range(n))
            for i in range(n)
        )

    def arrow_pairing(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        """sum_{arrows i->j} alpha^i beta^j; at beta = alpha, the dimension of R_alpha."""
        return form_pairing(self.arrow_counts, alpha, beta)

    def ringel_form(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(alpha, beta)) - self.arrow_pairing(alpha, beta)

    def tits_form(self, alpha: Sequence[int]) -> int:
        return self.ringel_form(alpha, alpha)


# -- dimension vectors, stability and the slope cone ---------------------------


def height(alpha: Sequence[int]) -> int:
    return sum(alpha)


def vec_add(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: DimVector, k: int) -> DimVector:
    return tuple(k * x for x in a)


def dim_vectors(nvars: int, max_height: int) -> Iterator[DimVector]:
    """All vectors in N^nvars of height <= max_height, by (height, lex).

    Each height starts at (0, ..., 0, h); the lex successor moves one unit
    from the last nonzero entry (never the first) one place left, and the
    rest of that entry to the end.
    """
    for h in range(max_height + 1):
        v = [0] * (nvars - 1) + [h]
        while True:
            yield tuple(v)
            i = nvars - 1
            while i and not v[i]:
                i -= 1
            if not i:
                break
            rest, v[i] = v[i] - 1, 0
            v[i - 1] += 1
            v[-1] = rest


def subvectors(alpha: DimVector) -> Iterator[DimVector]:
    """All beta with 0 <= beta <= alpha componentwise, lexicographically."""
    return _cartesian(*(range(a + 1) for a in alpha))


def parse_theta(data: dict, nvertices: int) -> tuple[int, ...]:
    """The stability weights of a quiver file: a list of nvertices ints."""
    theta = data["theta"]
    if not isinstance(theta, list) or \
            not all(isinstance(t, int) and not isinstance(t, bool) for t in theta):
        raise ValueError("theta must be a list of integers")
    if len(theta) != nvertices:
        raise ValueError("theta length must match the vertex count")
    return tuple(theta)


def slope(theta: Sequence[int], alpha: Sequence[int]) -> Fraction:
    """The slope theta(alpha) / height(alpha); undefined for alpha = 0."""
    if len(theta) != len(alpha):
        raise ValueError("theta and alpha must have the same length")
    h = height(alpha)
    if h == 0:
        raise ValueError("slope of the zero vector is undefined")
    return Fraction(sum(t * a for t, a in zip(theta, alpha)), h)


class TruncationSpec(Value):
    """Height bound plus the slope-mu cone of a stability theta.

    alpha is admitted when |alpha| <= max_height and theta.alpha = mu |alpha|:
    the zero vector and the vectors of slope mu.  theta defaults to the zero
    stability, whose cone at mu = 0 is the full truncation; at mu != 0 it
    holds only the zero vector.  As theta is linear, the cone is closed under
    differences: if alpha and beta <= alpha are admitted, so is alpha - beta.
    So a product, inverse, exp or log computed on the cone equals the one
    computed on the full truncation, restricted to the cone; the
    height-by-height recurrences rely on it.
    """

    __slots__ = ("nvars", "max_height", "theta", "mu", "_weights")

    def __init__(self, nvars: int, max_height: int,
                 theta: Optional[Sequence[int]] = None, mu: Fraction = Fraction(0)):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if max_height < 1:
            raise ValueError("max_height must be >= 1")
        theta = (0,) * nvars if theta is None else tuple(theta)
        if len(theta) != nvars:
            raise ValueError("theta length must match the variable count")
        mu = Fraction(mu)
        # den(mu) theta_i - num(mu): excess is one dot product with these
        self._set(nvars=nvars, max_height=max_height, theta=theta, mu=mu,
                  _weights=tuple(mu.denominator * t - mu.numerator for t in theta))

    def excess(self, alpha: Sequence[int]) -> int:
        """den(mu) theta.alpha - num(mu) |alpha|: zero on the cone, and for
        alpha != 0 of the sign of slope(theta, alpha) - mu."""
        if len(alpha) != self.nvars:
            raise ValueError("alpha length must match the variable count")
        return sum(map(mul, self._weights, alpha))

    def _in_cone(self, alpha: DimVector) -> bool:
        return self.excess(alpha) == 0

    def admits(self, alpha: DimVector) -> bool:
        if len(alpha) != self.nvars or any(a < 0 for a in alpha):
            return False
        return height(alpha) <= self.max_height and self._in_cone(alpha)

    def vectors(self) -> Iterator[DimVector]:
        return filter(self._in_cone, dim_vectors(self.nvars, self.max_height))

    def zero_vector(self) -> DimVector:
        return (0,) * self.nvars


# -- q-binomials ----------------------------------------------------------------


_QBINOMS: list[list[QPoly]] = []  # row n: [n, 0] = 1, [n, 1], ..., at most [n, n]


def _qbinom_poly(n: int, m: int) -> QPoly:
    """[n, m] for n, m >= 0 by the q-Pascal rule [n, m] = [n, m-1] + q^m [n-1, m].

    [n, m] = [m, n], so one entry serves both: row n holds the columns
    m <= n, and the rule's [n-1, n] on the diagonal is read as [n, n-1].
    The sum is taken on the integer coefficients."""
    n, m = max(n, m), min(n, m)
    if n >= len(_QBINOMS) or m >= len(_QBINOMS[n]):  # fill rows 0..n in turn, no recursion
        _QBINOMS.extend([QPoly.one()] for _ in range(len(_QBINOMS), n + 1))
        for i, row in enumerate(_QBINOMS[:n + 1]):
            for j in range(len(row), min(i, m) + 1):
                up = _QBINOMS[i - 1][j] if j < i else row[j - 1]
                row.append(QPoly._make([a + b for a, b in zip_longest(
                    row[j - 1]._n, (0,) * j + up._n, fillvalue=0)]))
    return _QBINOMS[n][m]


@lru_cache(maxsize=None)
def qbinom(n: int, m: int) -> RationalFunction:
    """The q-binomial [n, m] for any integer n.

    [n, 0] = 1; [n, m] = 0 for -m <= n <= -1 (a numerator factor 1 - q^0
    vanishes); for n <= -m-1 the reflection
        [n, m] = (-1)^m q^{mn + m(m+1)/2} [-n-m-1, m]
    reduces to the polynomial case.
    """
    if m < 0:
        raise ValueError("lower q-binomial index must be nonnegative")
    if m == 0:
        return RationalFunction.one()
    if -m <= n <= -1:
        return RationalFunction.zero()
    if n >= 0:
        return RationalFunction(_qbinom_poly(n, m))
    exponent = m * n + m * (m + 1) // 2
    sign = -1 if m % 2 else 1
    return (
        RationalFunction.q_power(exponent)
        * RationalFunction(_qbinom_poly(-n - m - 1, m) * sign)
    )


def qbinom_vec(lam: Sequence[int], alpha: Sequence[int]) -> RationalFunction:
    """Vertexwise product [lam, alpha] = prod_i [lam^i, alpha^i]."""
    if len(lam) != len(alpha):
        raise ValueError("lambda and alpha must have the same length")
    out = RationalFunction.one()
    for n, m in zip(lam, alpha):
        if m:
            out = out * qbinom(n, m)
            if out.is_zero:
                return out
    return out


# -- the height-by-height solver ----------------------------------------------


def _solve_by_height(trunc: TruncationSpec, known: Mapping[DimVector, C], start: C,
                     weigh: Callable[[DimVector, DimVector, C, C], T],
                     finish: Callable[[DimVector, C], C],
                     total: Callable[[list[T]], C]) -> dict[DimVector, C]:
    """The coefficients f_0 = start and f_alpha = finish(alpha, s_alpha) for
    alpha != 0 on trunc, in height order.

    s_alpha = sum_{0 < beta <= alpha} w(beta, alpha-beta) known_beta f_{alpha-beta}
    is total(terms), where weigh(beta, alpha-beta, known_beta, f_{alpha-beta})
    returns that term, as a product or as a description for total to sum.
    The term beta = 0 drops out by itself: f_alpha is not solved yet.  Zero
    coefficients are left out, so read the result with .get(alpha, zero).
    """
    out: dict[DimVector, C] = {} if start.is_zero else {trunc.zero_vector(): start}
    for alpha in islice(trunc.vectors(), 1, None):  # the zero vector comes first
        terms = []
        for beta in subvectors(alpha):
            kb = known.get(beta)
            if kb is None:
                continue
            rest = vec_sub(alpha, beta)
            f = out.get(rest)
            if f is not None:
                terms.append(weigh(beta, rest, kb, f))
        val = finish(alpha, total(terms))
        if not val.is_zero:
            out[alpha] = val
    return out
