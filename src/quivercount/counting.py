"""Counting algorithms for (absolutely) stable quiver representations.

The pipeline for a quiver with stability theta and a fixed slope mu is:

1. For each dimension vector alpha in the slope cone, the semistable ratio
   #semistable points / #GL is a rational function of q.  It is the sum of
   the ratios q^{dim R_alpha} / #GL_alpha(q) over *all* ordered
   decompositions of alpha whose proper prefix sums have slope > mu, with an
   alternating sign and a q-power twist.  A memoized prefix-sum recursion
   computes #GL_alpha times this sum, the semistable point count, in Z[q];
   the ratio is one division by #GL_alpha.  The literal tuple enumeration
   in Q(q) that the tests check it against is in ``series``.

2. The twisted inverse of the generating series r of these ratios is the
   same recursion with slope >= mu in place of > mu, negated: a product of
   chains of r - 1 is one chain whose prefix slopes are >= mu, split in one
   way at its prefixes on the cone.  (1 - q) times the plethystic Log of the
   inverse counts absolutely stable classes.  Both steps run on #GL-scaled
   series in Z[q] with polynomial weights and integer scalars, so each count
   is one exact division by |alpha| #GL_alpha; integrality of the result is
   asserted, never assumed.

3. For the zero stability the counts of stable classes feed a residual
   series Exp((a - sum x_i)/(1-q)) that is regular at q = 1; ``series``
   builds it from a table, and here a recursion against q-binomial series
   builds it without the counts.  Each q-binomial weight of that recursion
   is regular at q = 1 too, so running it on truncated power series in
   t = q - 1 ("jets") gives the expansion in powers of (q - 1) without any
   rational function.  That expansion is the object of the positivity
   experiments reported here.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .numtheory import binomial_row, divisors, integer_binomial, mobius, necklace_count
from .qpoly import QPoly, RationalFunction, binomial_jet, trunc_div, trunc_mul
from .quiver import (DimVector, Quiver, TruncationSpec, _qbinom_poly, _solve_by_height,
                     height, qbinom_vec, slope, subvectors, vec_add, vec_scale, vec_sub)
from .value import Value


class InvariantError(RuntimeError):
    """A quantity violated an invariant that the theory guarantees."""


class IntegralityError(InvariantError):
    """A counting polynomial failed to have integer coefficients."""


ONE_MINUS_Q = QPoly([1, -1])


class CountingContext(Value):
    """A quiver with its slope-cone truncation, which holds theta and mu, and
    the caches of _hn_count and of the count's packed factors."""

    __slots__ = ("quiver", "trunc", "_hn_cache", "_packed")

    def __init__(self, quiver: Quiver, trunc: TruncationSpec):
        top = max(trunc.vectors(), key=lambda a: quiver.arrow_pairing(a, a))
        if quiver.arrow_pairing(top, top) > sys.maxsize:  # a degree is a list length
            raise ValueError(f"arrow counts too large: dim R_alpha at alpha={top} "
                             f"passes {sys.maxsize}, the largest polynomial degree")
        self._set(quiver=quiver, trunc=trunc, _hn_cache={}, _packed={})

    @classmethod
    def create(cls, quiver: Quiver, theta: Optional[Sequence[int]] = None,
               mu: Fraction = Fraction(0), max_height: int = 6) -> "CountingContext":
        trunc = TruncationSpec(quiver.nvertices, max_height, theta, mu)
        if not any(height(a) > 0 for a in trunc.vectors()):
            raise ValueError(
                f"no dimension vector of height <= {max_height} has slope {trunc.mu}"
            )
        return cls(quiver, trunc)


# -- building blocks -------------------------------------------------------------


@lru_cache(maxsize=None)
def _gl_factor(n: int, k: Optional[int]) -> QPoly:  # one vertex's factors in _gl_order
    c = [1]
    for j in range(n):
        if k is None or j % k:  # c <- (q^n - q^j) c
            c = [x - y for x, y in zip([0] * n + c, [0] * j + c + [0] * (n - j))]
    return QPoly._make(c)


def _gl_order(alpha: Sequence[int], k: Optional[int] = None) -> QPoly:
    """#GL_alpha = prod_v prod_{j < alpha_v} (q^{alpha_v} - q^j); for k | alpha, only the
    factors with k not dividing j: the Mobius scale #GL_alpha(q) / #GL_{alpha/k}(q^k)."""
    return prod((_gl_factor(n, k) for n in alpha), start=QPoly.one())


def rep_ratio(quiver: Quiver, alpha: Sequence[int]) -> RationalFunction:
    """#R_alpha / #GL_alpha as a rational function of q.

    The representation space has q^{sum_arrows a^i a^j} points.
    """
    alpha = tuple(alpha)
    return RationalFunction(QPoly.monomial(quiver.arrow_pairing(alpha, alpha)),
                            _gl_order(alpha))


def _qbinom_factors(beta: DimVector, rest: DimVector) -> tuple[QPoly, ...]:
    """The factors of [beta + rest; beta]_q = prod_i [beta_i + rest_i; beta_i]_q;
    times q^{beta.rest}, #GL_{beta+rest} / (#GL_beta #GL_rest)."""
    return tuple(_qbinom_poly(r, b) for r, b in zip(rest, beta) if b)


def _hn_count(ctx: CountingContext, delta: DimVector, least: int) -> QPoly:
    """#GL_delta times the signed sum over decompositions of delta whose
    proper prefixes have ctx.trunc.excess >= least, in Z[q].  With least = 1
    (prefix slopes > mu) it is the semistable point count; with least = 0 it
    is -#GL_delta times the coefficient at delta of the twisted inverse of the
    semistable series r.

    Recursion over the last part (Reineke's Harder-Narasimhan recursion):
    splitting off gamma leaves a prefix whose own excess must be >= least
    and whose interior prefixes are handled by the memoized subproblem.
    Scaled by #GL, the split's weight q^{-<gamma, prefix>} #R_gamma #GL_delta /
    (#GL_gamma #GL_prefix) is the polynomial q^{sum_{i->j} gamma_i delta_j}
    [delta; gamma]_q, so gamma is the left factor of the twisted product.

    Unrolled, with e_gamma = #R_gamma / #GL_gamma x^gamma, the sum is that of
    (-1)^{s-1} e_{gamma_1} o ... o e_{gamma_s} over the ordered decompositions
    of delta whose prefixes gamma_{k+1} + ... + gamma_s (k >= 1) have excess
    >= least.  The twisted inverse of r is sum_t (-1)^t (r - 1)^{o t}.  A
    product of t chains of r - 1 (least = 1) is one chain whose prefixes have
    excess >= 0, since excess is linear and vanishes on the cone, where each
    factor chain sums; conversely, a chain whose prefixes have excess >= 0
    splits in exactly one way, at its prefixes of excess 0.  The signs
    multiply to (-1)^s, so the inverse is minus the least = 0 sum.
    """
    key = (delta, least)
    cached = ctx._hn_cache.get(key)
    if cached is not None:
        return cached
    quiver, excess = ctx.quiver, ctx.trunc.excess
    terms = [(quiver.arrow_pairing(delta, delta), 1, ())]
    for gamma in subvectors(delta):
        if height(gamma) == 0 or gamma == delta:
            continue
        prefix = vec_sub(delta, gamma)
        if excess(prefix) < least:
            continue
        terms.append((quiver.arrow_pairing(gamma, delta), -1,
                      _qbinom_factors(gamma, prefix) + (_hn_count(ctx, prefix, least),)))
    total = ctx._hn_cache[key] = QPoly.linear_combination(terms, ctx._packed)
    return total


def semistable_ratio(ctx: CountingContext, alpha: Sequence[int]) -> RationalFunction:
    """#semistable points / #GL as a rational function, for alpha in the cone."""
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return RationalFunction.one()
    if ctx.trunc.excess(alpha):
        raise ValueError(
            f"alpha {alpha} has slope {slope(ctx.trunc.theta, alpha)}, "
            f"context expects {ctx.trunc.mu}"
        )
    return RationalFunction(_hn_count(ctx, alpha, 1), _gl_order(alpha))


def semistable_series(ctx: CountingContext) -> Series:
    """Generating series of the semistable ratios over the slope cone."""
    from .series import Series  # the Q(q) layer, which no subcommand loads
    return Series(ctx.trunc, {alpha: semistable_ratio(ctx, alpha)
                              for alpha in ctx.trunc.vectors()})


def _require_zero_stability(ctx: CountingContext) -> None:
    if any(ctx.trunc.theta):
        raise ValueError("this computation is defined for the zero stability")


# -- absolutely stable counts --------------------------------------------------


class CountTable(NamedTuple):
    """Polynomial counts per dimension vector."""

    entries: dict[DimVector, QPoly]
    context: CountingContext

    def poly(self, alpha: Sequence[int]) -> QPoly:
        return self.entries.get(tuple(alpha), QPoly.zero())

    def sorted_items(self) -> list[tuple[DimVector, QPoly]]:
        """The entries in (height, alpha) order."""
        return sorted(self.entries.items(), key=lambda item: (height(item[0]), item[0]))

    def to_json(self) -> list[dict]:
        rows = []
        for alpha, poly in self.sorted_items():
            rows.append(
                {
                    "alpha": list(alpha),
                    "poly_q": poly.to_json(),
                    "poly_qminus1": poly.shifted().to_json(),
                }
            )
        return rows


def absolutely_stable_table(ctx: CountingContext) -> CountTable:
    """Counting polynomials for absolutely stable classes, from the identity
    (semistable series) o Exp(a / (1-q)) = 1 in the twisted algebra.

    The twisted inverse of the semistable series is Exp(a/(1-q)), so a is
    (1-q) times its plethystic Log.  Each series is held scaled by #GL
    (c_alpha as #GL_alpha c_alpha), which keeps it in Z[q].  The inverse is
    G_alpha = -_hn_count(ctx, alpha, 0), the Harder-Narasimhan sum with >= in
    place of > in its slope test (the proof is at _hn_count).  With
    rest = alpha - beta and the sum over 0 < beta <= alpha,
      M_alpha = |alpha| G_alpha - sum q^{beta.rest} [alpha; beta] G_beta M_rest
    is the Euler operator |alpha| L_alpha of the ordinary Log L of G, one
    linear combination with integer scalars.  As |alpha/k| = |alpha|/k, the
    Mobius sum of mu(k)/k psi_k(L_{alpha/k}) is that of mu(k) psi_k(M_{alpha/k})
    over |alpha|; psi_k carries #GL_alpha(q) / #GL_{alpha/k}(q^k), the factors
    of #GL_alpha that psi_k(#GL_{alpha/k}) leaves.  Each count is one exact
    division by |alpha| #GL_alpha and must have integer coefficients, or it is an error.
    """
    trunc, nil = ctx.trunc, QPoly.zero()
    inverse = {alpha: -_hn_count(ctx, alpha, 0) for alpha in trunc.vectors() if height(alpha)}
    log = _solve_by_height(
        trunc, inverse, nil,
        lambda beta, rest, g, m: (sum(map(mul, beta, rest)), -1,
                                  _qbinom_factors(beta, rest) + (g, m)),
        lambda alpha, acc: inverse[alpha] * height(alpha) + acc,
        partial(QPoly.linear_combination, cache=ctx._packed))
    entries: dict[DimVector, QPoly] = {}
    for alpha in trunc.vectors():
        if height(alpha) == 0:
            continue
        value = nil
        for k in divisors(gcd(*alpha)):
            m, base = mobius(k), tuple(a // k for a in alpha)
            if m and base in log:
                value = value + log[base].adams(k) * _gl_order(alpha, k) * m
        value, gl = value * ONE_MINUS_Q, _gl_order(alpha) * height(alpha)
        try:
            poly = value.exact_div(gl)
        except ValueError:
            raise IntegralityError(
                f"count at {alpha} is not polynomial: {RationalFunction(value, gl)}"
            ) from None
        if not poly.has_integer_coeffs():
            raise IntegralityError(
                f"count at {alpha} has non-integer coefficients: {poly}"
            )
        entries[alpha] = poly
    return CountTable(entries, ctx)


def stable_end_degree_poly(table: CountTable, alpha: Sequence[int], r: int) -> QPoly:
    """Counting polynomial for stable classes of dimension r*alpha whose
    endomorphism field has degree r over the base field.

    Mobius inversion of psi_r(a_alpha) = sum_{k|r} k s_{k alpha, k} gives
    s_{r alpha, r} = (1/r) sum_{k|r} mobius(r/k) a_alpha(q^k).  The result
    may have non-integer coefficients but must take nonnegative integer
    values at prime powers; this is spot-checked at q = 2 and 3.
    """
    alpha = tuple(alpha)
    if r < 1:
        raise ValueError("endomorphism degree must be >= 1")
    acc = QPoly.zero()
    base = table.poly(alpha)
    for k in divisors(r):
        m = mobius(r // k)
        if m:
            acc = acc + base.adams(k) * m
    poly = acc * Fraction(1, r)
    for p in (2, 3):
        value = poly.evaluate(p)
        if value.denominator != 1 or value < 0:
            raise InvariantError(
                f"stable count for {vec_scale(alpha, r)} with degree {r} "
                f"evaluates to {value} at q = {p}"
            )
    return poly


# -- the residual series and its q = 1 behaviour -----------------------------------


def _residual_recursion(ctx: CountingContext, weigh, one, zero) -> dict:
    """Coefficients of the residual series from the q-binomial recursion.

    Degree by degree, the coefficient at alpha > 0 is determined by
    requiring the x^alpha coefficient of q_binomial_series(-R alpha) * f to
    vanish; the q-binomial series has constant term 1, so this solves for
    the new coefficient directly: f_alpha = -sum_{0<beta<=alpha}
    [-R alpha, beta] f_{alpha-beta}, where weigh(-R alpha, beta, c)
    returns [-R alpha, beta] c in the caller's coefficient ring.
    """
    _require_zero_stability(ctx)
    R = ctx.quiver.ringel_matrix()
    return _solve_by_height(
        ctx.trunc, {alpha: one for alpha in ctx.trunc.vectors()}, one,
        lambda beta, rest, _, f: weigh(
            tuple(-sum(map(mul, row, vec_add(beta, rest))) for row in R), beta, f),
        lambda alpha, acc: -acc, partial(sum, start=zero))


def residual_series_recursive(ctx: CountingContext) -> Series:
    """The residual series of series.residual_series built without the
    counting table, in Q(q)."""
    from .series import Series
    return Series(ctx.trunc, _residual_recursion(
        ctx, lambda lam, beta, c: qbinom_vec(lam, beta) * c,
        RationalFunction.one(), RationalFunction.zero()))


def qbinom_jet(lam: Sequence[int], beta: Sequence[int], order: int) -> QPoly:
    """[lam, beta] = prod_i [lam^i, beta^i] as a jet of order+1 terms at q = 1.

    In t = q - 1, [n, m] = prod_{i=1..m} [n+i]_q / [i]_q with
    [k]_q = ((1+t)^k - 1)/t = sum_j C(k, j+1) t^j for every integer k.  The
    divisors have constant term i >= 1, and a factor [0]_q = 0 gives
    [n, m] = 0 for -m <= n <= -1, so no rational function is needed.
    """
    length = order + 1
    num = den = QPoly.one()
    for n, m in zip(lam, beta):
        for i in range(1, m + 1):
            num = trunc_mul(num, _q_integer_jet(n + i, length), length)
            den = trunc_mul(den, _q_integer_jet(i, length), length)
    return trunc_div(num, den, length)


@lru_cache(maxsize=None)
def _q_integer_jet(k: int, length: int) -> QPoly:  # [k]_q in t, cut to length terms
    return QPoly(binomial_row(k, length + 1)[1:])


def residual_q1_expansion(ctx: CountingContext, order: int
                          ) -> list[dict[DimVector, Fraction]]:
    """Taylor coefficients of the residual series in powers of (q - 1).

    Returns layers 0..order; layer n maps dimension vectors to the exact
    coefficient of (q-1)^n in the corresponding series coefficient.  Runs
    the recursion of residual_series_recursive on jets in t = q - 1 cut to
    order+1 terms.  Layer 0 is the series at q = 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    length = order + 1
    jets = _residual_recursion(
        ctx, lambda lam, beta, c: trunc_mul(qbinom_jet(lam, beta, order), c, length),
        QPoly.one(), QPoly.zero())
    layers: list[dict[DimVector, Fraction]] = [dict() for _ in range(length)]
    for alpha, jet in jets.items():
        for n, value in enumerate(jet.coeffs):
            if value:
                layers[n][alpha] = value
    return layers


def loop_layer_checks(ctx: CountingContext, layers: Sequence[dict[DimVector, Fraction]]
                      ) -> tuple[bool, list[Optional[int]]]:
    """Experimental checks on the layers f_0, f_1, ... of a one-vertex quiver
    with m loops, each read as a power series in t = x_1.

    Returns whether f_1 equals C(m,2) t(t-1)/(1-mt)^2 to the truncation
    height, and for n = 0..min(order, 2) the observed t-degree of
    f_n (1-mt)^(3n-1) within the truncation (None when it vanishes).
    """
    m = ctx.quiver.arrow_counts[0][0]
    length = ctx.trunc.max_height + 1

    def jet(layer: dict[DimVector, Fraction]) -> QPoly:
        return QPoly([layer.get((k,), 0) for k in range(length)])

    c = integer_binomial(m, 2)
    f1_matches = jet(layers[1]) == trunc_mul(QPoly([0, -c, c]),
                                             binomial_jet(-2, -m, length), length)
    degrees = []
    for n, layer in enumerate(layers[:3]):
        prod = trunc_mul(jet(layer), binomial_jet(3 * n - 1, -m, length), length)
        degrees.append(None if prod.is_zero else prod.degree)
    return f1_matches, degrees


# -- the (q-1) positivity report -----------------------------------------------


class PositivityRow(NamedTuple):
    """A count in the (q-1) basis; necklaces is the primitive necklace number
    that its linear term should equal, for a one-vertex quiver with loops."""

    alpha: DimVector
    coeffs_qminus1: tuple[Fraction, ...]
    necklaces: Optional[int]

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs_qminus1[0] if self.coeffs_qminus1 else Fraction(0)

    @property
    def linear_term(self) -> Fraction:
        return self.coeffs_qminus1[1] if len(self.coeffs_qminus1) > 1 else Fraction(0)

    @property
    def all_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs_qminus1)

    @property
    def all_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs_qminus1)

    @property
    def linear_matches_necklaces(self) -> Optional[bool]:
        if self.necklaces is None:
            return None
        return self.linear_term == self.necklaces

    def to_json(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "coeffs_qminus1": [str(c) for c in self.coeffs_qminus1],
            "constant_term": str(self.constant_term),
            "linear_term": str(self.linear_term),
            "all_nonnegative": self.all_nonnegative,
            "all_integer": self.all_integer,
            "necklaces": self.necklaces,
            "linear_matches_necklaces": self.linear_matches_necklaces,
        }


def positivity_report(table: CountTable) -> tuple[PositivityRow, ...]:
    """Re-express each counting polynomial in the (q-1) basis, one row per
    entry in (height, alpha) order; each row reports the constant term, the
    linear term (against primitive necklace numbers for one-vertex quivers)
    and whether all coefficients are nonnegative.

    Nonnegativity is experimental: the report states what was observed and
    asserts nothing.
    """
    quiver = table.context.quiver
    loops = quiver.arrow_counts[0][0] if quiver.nvertices == 1 else 0
    return tuple(
        PositivityRow(alpha, poly.shifted().coeffs,
                      necklace_count(loops, alpha[0]) if loops else None)
        for alpha, poly in table.sorted_items())
