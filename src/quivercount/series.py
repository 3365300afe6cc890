"""Truncated multivariate power series over Q(q).

Series are sparse maps from dimension vectors (tuples of nonnegative ints,
one entry per quiver vertex) to rational functions, truncated by total
height and to the slope cone theta.alpha = mu |alpha| of a stability
theta; the zero stability at slope 0, the default, admits every vector.
On top of the plain ring structure this module provides

* the Adams substitutions psi_k : q -> q^k, x^a -> x^{ka},
* the plethystic Exp / Log / Pow maps,
* the twisted product x^a o x^b = q^{-<a,b>} x^{a+b} and its inverse,
* graded monomial rescalings and the bar conjugation q -> 1/q.

There is one product, ``twisted_mul``; the plain product is its case with
no form.  The twisted inverse and the ordinary exp and log are all solved
height by height from one recurrence (``_solve_by_height``): the inverse
from the defining identity g o a = 1, and exp and log from the Euler
operator D x^alpha = |alpha| x^alpha, which turns f = exp(a) into
D f = f D a and f = log(a) into D a = a D f (Brent & Kung, "Fast
algorithms for manipulating formal power series", J. ACM 1978).  Each
coefficient then takes one pass over the pairs below it instead of
max_height series powers.  The solver is generic in the coefficient ring and
leaves the summing of a coefficient's terms to its caller, so ``counting``
runs its own recurrences on it outside ``Series``: the count table's
#GL-scaled twisted inverse and Log in Q[q], each coefficient one packed
linear combination, and the residual q-binomial recursion in Q(q) and on
(q-1) jets.

Everything is exact; truncating the psi_k sums at k = max_height loses
nothing because psi_k raises height by a factor k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice, product as _cartesian
from operator import mul
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar

from .numtheory import mobius
from .qpoly import RationalFunction
from .value import Value

DimVector = tuple[int, ...]
C = TypeVar("C")  # a coefficient ring element
T = TypeVar("T")  # a term of a sum of coefficients


class TruncationError(ValueError):
    """Raised when series with incompatible truncations are combined."""


def height(alpha: Sequence[int]) -> int:
    return sum(alpha)


def vec_add(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: DimVector, k: int) -> DimVector:
    return tuple(k * x for x in a)


def dim_vectors(nvars: int, max_height: int) -> Iterator[DimVector]:
    """All vectors in N^nvars of height <= max_height, by (height, lex)."""

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for h in range(max_height + 1):
        yield from compositions(h, nvars)


def subvectors(alpha: DimVector) -> Iterator[DimVector]:
    """All beta with 0 <= beta <= alpha componentwise, lexicographically."""
    return _cartesian(*(range(a + 1) for a in alpha))


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


class Series(Value):
    """Sparse truncated power series; immutable, coefficients exact."""

    __slots__ = ("trunc", "_c")

    def __init__(self, trunc: TruncationSpec, coeffs: Mapping[DimVector, object] = ()):
        data = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for alpha, c in items:
            alpha = tuple(alpha)
            if len(alpha) != trunc.nvars:
                raise ValueError(f"key {alpha} has wrong length for {trunc.nvars} variables")
            if not trunc.admits(alpha):
                continue
            rf = RationalFunction._coerce(c)
            if rf is None:
                raise TypeError(f"bad coefficient type {type(c).__name__}")
            if not rf.is_zero:
                data[alpha] = rf
        self._set(trunc=trunc, _c=data)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, trunc: TruncationSpec) -> "Series":
        return cls(trunc)

    @classmethod
    def one(cls, trunc: TruncationSpec) -> "Series":
        return cls(trunc, {trunc.zero_vector(): 1})

    @classmethod
    def monomial(cls, trunc: TruncationSpec, alpha: DimVector, coeff=1) -> "Series":
        return cls(trunc, {tuple(alpha): coeff})

    @classmethod
    def variable(cls, trunc: TruncationSpec, i: int) -> "Series":
        alpha = tuple(1 if j == i else 0 for j in range(trunc.nvars))
        return cls(trunc, {alpha: 1})

    # -- queries ----------------------------------------------------------------

    def coeff(self, alpha: Sequence[int]) -> RationalFunction:
        return self._c.get(tuple(alpha), RationalFunction.zero())

    @property
    def constant_term(self) -> RationalFunction:
        return self.coeff(self.trunc.zero_vector())

    @property
    def is_zero(self) -> bool:
        return not self._c

    def support(self) -> list[DimVector]:
        return sorted(self._c, key=lambda a: (height(a), a))

    def items(self) -> list[tuple[DimVector, RationalFunction]]:
        return [(a, self._c[a]) for a in self.support()]

    def _compatible(self, other: "Series") -> None:
        # The cone is part of the truncation: combining a cone series with a
        # full one would silently drop terms on one side only.
        a, b = self.trunc, other.trunc
        if a != b:
            raise TruncationError(
                f"incompatible truncations: {a.nvars} vars to height "
                f"{a.max_height} vs {b.nvars} vars to height {b.max_height}"
                + ("" if (a.theta, a.mu) == (b.theta, b.mu) else ", different support filters")
            )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            self._compatible(other)
            out = dict(self._c)
            for alpha, c in other._c.items():
                out[alpha] = out.get(alpha, RationalFunction.zero()) + c
            return Series(self.trunc, out)
        rf = RationalFunction._coerce(other)
        if rf is None:
            return NotImplemented
        return self + Series(self.trunc, {self.trunc.zero_vector(): rf})

    __radd__ = __add__

    def __neg__(self):
        return Series(self.trunc, {a: -c for a, c in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, Series):
            return self + (-other)
        rf = RationalFunction._coerce(other)
        if rf is None:
            return NotImplemented
        return self + (-rf)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            return twisted_mul(self, other)
        rf = RationalFunction._coerce(other)
        if rf is None:
            return NotImplemented
        if rf.is_zero:
            return Series.zero(self.trunc)
        return Series(self.trunc, {a: c * rf for a, c in self._c.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.trunc == other.trunc and self._c == other._c

    def __hash__(self):
        return hash((self.trunc, frozenset(self._c.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = [f"({c}) x^{list(a)}" for a, c in self.items()]
        return " + ".join(parts)

    def __repr__(self):
        return f"Series[{self}]"


# -- twisted product ---------------------------------------------------------


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


def _times_q_power(c: RationalFunction, n: int) -> RationalFunction:
    return c * RationalFunction.q_power(n) if n else c


def twisted_mul(a: Series, b: Series,
                form: Optional[Sequence[Sequence[int]]] = None) -> Series:
    """Product for x^a o x^b = q^{-<a,b>} x^{a+b}; with no form, a * b."""
    a._compatible(b)
    trunc = a.trunc
    out: dict[DimVector, RationalFunction] = {}
    for ka, ca in a._c.items():
        ha = height(ka)
        for kb, cb in b._c.items():
            if ha + height(kb) > trunc.max_height:
                continue
            key = vec_add(ka, kb)
            if not trunc.admits(key):
                continue
            term = ca * cb
            if form is not None:
                term = _times_q_power(term, -form_pairing(form, ka, kb))
            out[key] = out[key] + term if key in out else term
    return Series(trunc, out)


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


_rf_sum = partial(sum, start=RationalFunction.zero())


def twisted_inverse(a: Series, form: Sequence[Sequence[int]]) -> Series:
    """The g with twisted_mul(a, g, form) = 1, built height by height."""
    a0 = a.constant_term
    if a0.is_zero:
        raise ZeroDivisionError("series with zero constant term is not invertible")
    inv0 = a0.inverse()
    return Series(a.trunc, _solve_by_height(
        a.trunc, a._c, inv0,
        lambda beta, rest, c, g: _times_q_power(c * g, -form_pairing(form, beta, rest)),
        lambda alpha, acc: -(inv0 * acc), _rf_sum))


# -- Adams operations and twists ------------------------------------------------


def adams(a: Series, k: int) -> Series:
    """psi_k: q -> q^k and x^alpha -> x^{k alpha}; drops terms past truncation."""
    if k < 1:
        raise ValueError("adams index must be >= 1")
    if k == 1:
        return a
    trunc = a.trunc
    out = {}
    for alpha, c in a._c.items():
        key = vec_scale(alpha, k)
        if trunc.admits(key):
            out[key] = c.adams(k)
    return Series(trunc, out)


def series_bar(a: Series) -> Series:
    """Apply the conjugation q -> 1/q to every coefficient."""
    return Series(a.trunc, {alpha: c.bar() for alpha, c in a._c.items()})


def monomial_twist(a: Series, exponent: Callable[[DimVector], int]) -> Series:
    """Multiply the coefficient of x^alpha by q^{exponent(alpha)}."""
    return Series(
        a.trunc, {alpha: _times_q_power(c, exponent(alpha)) for alpha, c in a._c.items()}
    )


# -- ordinary exp/log (coefficientwise classical series) -------------------------


def ordinary_exp(a: Series) -> Series:
    """exp(a) for a with zero constant term, from D exp(a) = exp(a) D a."""
    if not a.constant_term.is_zero:
        raise ValueError("ordinary_exp needs a zero constant term")
    return Series(a.trunc, _solve_by_height(
        a.trunc, a._c, RationalFunction.one(),
        lambda beta, rest, c, f: c * f * height(beta),
        lambda alpha, acc: acc * Fraction(1, height(alpha)), _rf_sum))


def ordinary_log(a: Series) -> Series:
    """log(a) for a with constant term 1, from D a = a D log(a)."""
    if not a.constant_term.is_one:
        raise ValueError("ordinary_log needs constant term 1")
    return Series(a.trunc, _solve_by_height(
        a.trunc, a._c, RationalFunction.zero(),
        lambda beta, rest, c, f: c * f * height(rest),
        lambda alpha, acc: a.coeff(alpha) - acc * Fraction(1, height(alpha)), _rf_sum))


def ordinary_pow(f: Series, g: Series) -> Series:
    """The classical power f^g = exp(g * log f)."""
    return ordinary_exp(g * ordinary_log(f))


# -- plethystic Exp / Log / Pow ---------------------------------------------


def plethystic_exp(a: Series) -> Series:
    """Exp(a) = exp(sum_{k>=1} psi_k(a)/k) on series with zero constant term."""
    if not a.constant_term.is_zero:
        raise ValueError("plethystic Exp needs a zero constant term")
    acc = Series.zero(a.trunc)
    for k in range(1, a.trunc.max_height + 1):
        acc = acc + adams(a, k) * Fraction(1, k)
    return ordinary_exp(acc)


def plethystic_log(a: Series) -> Series:
    """Log(a) = sum_{k>=1} mobius(k)/k * psi_k(log a), inverse to Exp."""
    if not a.constant_term.is_one:
        raise ValueError("plethystic Log needs constant term 1")
    base = ordinary_log(a)
    acc = Series.zero(a.trunc)
    for k in range(1, a.trunc.max_height + 1):
        m = mobius(k)
        if m:
            acc = acc + adams(base, k) * Fraction(m, k)
    return acc


def plethystic_pow(f: Series, g: Series) -> Series:
    """Pow(f, g) = Exp(g * Log(f)); equals f^n for constant integer g = n."""
    return plethystic_exp(g * plethystic_log(f))
