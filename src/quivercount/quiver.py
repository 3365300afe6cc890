"""Quiver combinatorics: arrow data, Euler forms, slopes and q-binomials.

A quiver is stored as an arrow-multiplicity matrix (entry (i, j) counts
arrows i -> j); loops and parallel arrows are allowed.  The bilinear form

    <a, b> = sum_i a^i b^i - sum_{arrows i->j} a^i b^j

has Gram matrix R with R_ij = delta_ij - #arrows(i -> j); its quadratic
form T(a) = <a, a> enters the closed formulas for counting series.

The q-binomials

    [n, m] = prod_{i=1..m} (1 - q^{n+i}) / prod_{i=1..m} (1 - q^i)

for integers n are exact rational functions (polynomials for n >= 0), with
vertexwise products for vector arguments.  They and their limit
[inf, m] = 1 / prod_{i=1..m} (1 - q^i), the coefficients of the
q-exponential, feed the generating series built at the bottom of this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

from .qpoly import QPoly, RationalFunction
from .series import Series, TruncationSpec, form_pairing, height
from .value import Value


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


# -- stability ---------------------------------------------------------------


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


# -- q-binomials ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _poch_denominator(m: int) -> QPoly:
    """prod_{i=1..m} (1 - q^i)."""
    poly = QPoly.one()
    for i in range(1, m + 1):
        poly = poly * QPoly([1] + [0] * (i - 1) + [-1])
    return poly


@lru_cache(maxsize=None)
def _qbinom_poly(n: int, m: int) -> QPoly:
    """[n, m] = (q;q)_{n+m} / ((q;q)_n (q;q)_m) for n >= 0, as a polynomial
    (exact division, no gcd needed)."""
    return _poch_denominator(n + m).exact_div(_poch_denominator(n) * _poch_denominator(m))


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


# -- generating series -------------------------------------------------------


def q_exponential(trunc: TruncationSpec) -> Series:
    """The series with coefficient [inf, alpha] = 1 / prod_i (q;q)_{alpha_i}
    at x^alpha.

    For one variable this is Euler's q-exponential sum_k x^k / (q;q)_k; it
    equals Exp(sum_i x_i / (1-q)).
    """
    return Series(trunc, {a: RationalFunction(1, prod(map(_poch_denominator, a),
                                                      start=QPoly.one()))
                          for a in trunc.vectors()})


def q_binomial_series(lam: Sequence[int], trunc: TruncationSpec) -> Series:
    """The series with coefficient [lam, alpha] at x^alpha."""
    lam = tuple(lam)
    if len(lam) != trunc.nvars:
        raise ValueError("lambda length must match the variable count")
    return Series(trunc, {a: qbinom_vec(lam, a) for a in trunc.vectors()})
