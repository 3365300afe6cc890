"""The Q(q) reference layer: truncated multivariate power series over Q(q).

A Series maps dimension vectors to rational functions on a
quiver.TruncationSpec.  No subcommand builds one: this module holds the
routes that the tests check the count path against, in the paper's terms.
They are the ring, the Adams substitutions psi_k : q -> q^k, x^a -> x^{ka},
monomial rescalings, the bar conjugation q -> 1/q, the twisted product
x^a o x^b = q^{-<a,b>} x^{a+b} and its inverse, the ordinary and plethystic
Exp / Log / Pow, the q-exponential and q-binomial series, the literal
decomposition sum of the semistable ratios, their closed form for the zero
stability, and the residual series read from a count table.

The twisted inverse and the ordinary exp and log are solved by
quiver._solve_by_height: the inverse from g o a = 1, and exp and log from
the Euler operator D x^alpha = |alpha| x^alpha, which turns f = exp(a) into
D f = f D a and f = log(a) into D a = a D f.  Everything is exact;
truncating the psi_k sums at k = max_height loses nothing because psi_k
raises height by a factor k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import prod
from typing import Callable, Mapping, Optional, Sequence

from .counting import (ONE_MINUS_Q, CountingContext, CountTable, InvariantError,
                       _require_zero_stability, rep_ratio)
from .numtheory import mobius
from .qpoly import QPoly, RationalFunction
from .quiver import (DimVector, TruncationSpec, _solve_by_height, form_pairing, height,
                     qbinom_vec, subvectors, vec_add, vec_scale, vec_sub)
from .value import Value


class TruncationError(ValueError):
    """Raised when series with incompatible truncations are combined."""


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
            term = ca * cb
            if form is not None:
                term = _times_q_power(term, -form_pairing(form, ka, kb))
            out[key] = out[key] + term if key in out else term
    return Series(trunc, out)


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


# -- reference series and routes of the count path ---------------------------


def q_exponential(trunc: TruncationSpec) -> Series:
    """The series with coefficient [inf, alpha] = 1 / prod_i (q;q)_{alpha_i}
    at x^alpha.

    For one variable this is Euler's q-exponential sum_k x^k / (q;q)_k; it
    equals Exp(sum_i x_i / (1-q)).
    """
    return Series(trunc, {a: RationalFunction(1, prod(1 - QPoly.monomial(i) for n in a
                                                      for i in range(1, n + 1)))
                          for a in trunc.vectors()})


def q_binomial_series(lam: Sequence[int], trunc: TruncationSpec) -> Series:
    """The series with coefficient [lam, alpha] at x^alpha."""
    lam = tuple(lam)
    if len(lam) != trunc.nvars:
        raise ValueError("lambda length must match the variable count")
    return Series(trunc, {a: qbinom_vec(lam, a) for a in trunc.vectors()})


def _decompositions(alpha: DimVector):
    """All ordered tuples of nonzero vectors summing to alpha."""
    if height(alpha) == 0:
        yield ()
        return
    for first in subvectors(alpha):
        if height(first) == 0:
            continue
        for rest in _decompositions(vec_sub(alpha, first)):
            yield (first,) + rest


def semistable_ratio_reference(ctx: CountingContext, alpha: Sequence[int]
                               ) -> RationalFunction:
    """Literal enumeration of the decomposition sum; small alpha only."""
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return RationalFunction.one()
    quiver, excess = ctx.quiver, ctx.trunc.excess
    if excess(alpha):
        raise ValueError("alpha must lie in the context's slope cone")
    total = RationalFunction.zero()
    for parts in _decompositions(alpha):
        prefix = tuple(0 for _ in alpha)
        admissible = True
        for part in parts[:-1]:
            prefix = tuple(p + x for p, x in zip(prefix, part))
            if excess(prefix) <= 0:
                admissible = False
                break
        if not admissible:
            continue
        exponent = 0
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                exponent -= quiver.ringel_form(parts[j], parts[i])
        term = RationalFunction.q_power(exponent)
        for part in parts:
            term = term * rep_ratio(quiver, part)
        if len(parts) % 2 == 0:
            term = -term
        total = total + term
    return total


def semistable_series_closed(ctx: CountingContext) -> Series:
    """For zero stability the series equals bar(T(q-exponential)).

    Every point is semistable, so the ratio at alpha is
    q^{-T(alpha)} bar([inf, alpha]); assembled directly from that closed
    form without the prefix recursion.
    """
    _require_zero_stability(ctx)
    return series_bar(monomial_twist(q_exponential(ctx.trunc), ctx.quiver.tits_form))


def residual_series(table: CountTable) -> Series:
    """Exp((a - sum_i x_i) / (1-q)), with a the absolutely-stable counts.

    Regular at q = 1; a pole in any coefficient signals a bug and raises.
    """
    _require_zero_stability(table.context)
    coeffs: dict[DimVector, RationalFunction] = {}
    inv = RationalFunction(QPoly.one(), ONE_MINUS_Q)
    for alpha, poly in table.entries.items():
        adjusted = poly - QPoly.one() if height(alpha) == 1 else poly
        if not adjusted.is_zero:
            coeffs[alpha] = RationalFunction(adjusted) * inv
    f = plethystic_exp(Series(table.context.trunc, coeffs))
    for alpha, c in f.items():
        if c.has_pole_at_one():
            raise InvariantError(f"residual series has a pole at q=1 at {alpha}")
    return f
