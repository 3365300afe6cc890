"""Counting algorithms for (absolutely) stable quiver representations.

The pipeline for a quiver with stability theta and a fixed slope mu is:

1. For each dimension vector alpha in the slope cone, the semistable ratio
   #semistable points / #GL is a rational function of q.  It is assembled
   from the ratios q^{dim R_alpha} / #GL_alpha(q) over *all* ordered
   decompositions of alpha whose proper prefix sums have slope > mu, with an
   alternating sign and a q-power twist.  A memoized prefix-sum recursion
   computes this; a literal tuple enumeration is kept as a reference.

2. The generating series r of these ratios is inverted with respect to the
   twisted product, and the plethystic Log of the inverse, multiplied by
   (1 - q), yields the polynomials counting absolutely stable classes.
   Integrality of the result is asserted, never assumed.

3. For the zero stability the counts of stable classes feed a residual
   series Exp((a - sum x_i)/(1-q)) that is regular at q = 1; it can also be
   built without the counts by a recursion against q-binomial series.  Each
   q-binomial weight of that recursion is regular at q = 1 too, so running
   it on truncated power series in t = q - 1 ("jets") gives the expansion
   in powers of (q - 1) without any rational function.  That expansion is
   the object of the positivity experiments reported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .numtheory import divisors, integer_binomial, mobius
from .qpoly import QPoly, RationalFunction, binomial_jet, trunc_inv, trunc_mul
from .quiver import Quiver, q_exponential, qbinom_vec, slope
from .series import (
    DimVector,
    Series,
    TruncationSpec,
    height,
    monomial_twist,
    plethystic_exp,
    plethystic_log,
    series_bar,
    subvectors,
    twisted_inverse,
    vec_scale,
    vec_sub,
)


class InvariantError(RuntimeError):
    """A quantity violated an invariant that the theory guarantees."""


class IntegralityError(InvariantError):
    """A counting polynomial failed to have integer coefficients."""


ONE_MINUS_Q = QPoly([1, -1])


def necklace_count(colors: int, beads: int) -> int:
    """Number of primitive (aperiodic) necklaces of `beads` beads in `colors`
    colours: (1/d) sum_{k|d} mobius(d/k) m^k."""
    if colors < 1 or beads < 1:
        raise ValueError("colors and beads must be >= 1")
    total = sum(mobius(beads // k) * colors**k for k in divisors(beads))
    assert total % beads == 0
    return total // beads


@dataclass(frozen=True)
class SlopeCone:
    """Support filter of the slope-mu cone: zero or theta-slope mu.

    A value, not a closure, so that equal contexts give equal truncations."""

    theta: tuple[int, ...]
    mu: Fraction

    def __call__(self, alpha: DimVector) -> bool:
        return height(alpha) == 0 or slope(self.theta, alpha) == self.mu


@dataclass(frozen=True)
class CountingContext:
    """A quiver with stability, target slope and slope-cone truncation."""

    quiver: Quiver
    theta: tuple[int, ...]
    mu: Fraction
    trunc: TruncationSpec
    _hn_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def create(cls, quiver: Quiver, theta: Optional[Sequence[int]] = None,
               mu: Fraction = Fraction(0), max_height: int = 6) -> "CountingContext":
        n = quiver.nvertices
        theta = tuple(theta) if theta is not None else (0,) * n
        if len(theta) != n:
            raise ValueError("theta length must match the vertex count")
        mu = Fraction(mu)
        trunc = TruncationSpec(n, max_height, SlopeCone(theta, mu))
        ctx = cls(quiver, theta, mu, trunc)
        if not any(height(a) > 0 for a in trunc.vectors()):
            raise ValueError(
                f"no dimension vector of height <= {max_height} has slope {mu}"
            )
        return ctx

    @property
    def is_trivial_stability(self) -> bool:
        return all(t == 0 for t in self.theta)

    def slope_of(self, alpha: DimVector) -> Fraction:
        return slope(self.theta, alpha)


# -- building blocks -------------------------------------------------------------


def gl_order_poly(n: int) -> QPoly:
    """#GL_n as a polynomial in q: prod_{i=0..n-1} (q^n - q^i)."""
    poly = QPoly.one()
    for i in range(n):
        poly = poly * (QPoly.monomial(n) - QPoly.monomial(i))
    return poly


def rep_ratio(quiver: Quiver, alpha: Sequence[int]) -> RationalFunction:
    """#R_alpha / #GL_alpha as a rational function of q.

    The representation space has q^{sum_arrows a^i a^j} points, and the
    exponent equals alpha.alpha - T(alpha).
    """
    alpha = tuple(alpha)
    dim = sum(a * a for a in alpha) - quiver.tits_form(alpha)
    den = QPoly.one()
    for a in alpha:
        if a:
            den = den * gl_order_poly(a)
    return RationalFunction(QPoly.monomial(dim), den)


def _hn_value(ctx: CountingContext, delta: DimVector) -> RationalFunction:
    """Signed sum over decompositions of delta with prefix slopes > ctx.mu.

    Recursion over the last part: splitting off gamma leaves a prefix whose
    own slope must exceed mu and whose interior prefixes are handled by the
    memoized subproblem.  The q-twist picked up by the split is
    q^{-<gamma, prefix>}.
    """
    cached = ctx._hn_cache.get(delta)
    if cached is not None:
        return cached
    quiver = ctx.quiver
    total = rep_ratio(quiver, delta)
    for gamma in subvectors(delta):
        if height(gamma) == 0 or gamma == delta:
            continue
        prefix = vec_sub(delta, gamma)
        if ctx.slope_of(prefix) <= ctx.mu:
            continue
        twist = RationalFunction.q_power(-quiver.ringel_form(gamma, prefix))
        total = total - twist * _hn_value(ctx, prefix) * rep_ratio(quiver, gamma)
    ctx._hn_cache[delta] = total
    return total


def semistable_ratio(ctx: CountingContext, alpha: Sequence[int]) -> RationalFunction:
    """#semistable points / #GL as a rational function, for alpha in the cone."""
    alpha = tuple(alpha)
    if height(alpha) == 0:
        return RationalFunction.one()
    if ctx.slope_of(alpha) != ctx.mu:
        raise ValueError(
            f"alpha {alpha} has slope {ctx.slope_of(alpha)}, context expects {ctx.mu}"
        )
    return _hn_value(ctx, alpha)


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
    if ctx.slope_of(alpha) != ctx.mu:
        raise ValueError("alpha must lie in the context's slope cone")
    quiver = ctx.quiver
    total = RationalFunction.zero()
    for parts in _decompositions(alpha):
        prefix = tuple(0 for _ in alpha)
        admissible = True
        for part in parts[:-1]:
            prefix = tuple(p + x for p, x in zip(prefix, part))
            if ctx.slope_of(prefix) <= ctx.mu:
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


def semistable_series(ctx: CountingContext) -> Series:
    """Generating series of the semistable ratios over the slope cone."""
    coeffs = {}
    for alpha in ctx.trunc.vectors():
        if height(alpha) == 0:
            coeffs[alpha] = RationalFunction.one()
        else:
            coeffs[alpha] = semistable_ratio(ctx, alpha)
    return Series(ctx.trunc, coeffs)


def semistable_series_closed(ctx: CountingContext) -> Series:
    """For zero stability the series equals bar(T(q-exponential)).

    Every point is semistable, so the ratio at alpha is
    q^{-T(alpha)} bar([inf, alpha]); assembled directly from that closed
    form without the prefix recursion.
    """
    if not ctx.is_trivial_stability:
        raise ValueError("closed form requires the zero stability")
    return series_bar(monomial_twist(q_exponential(ctx.trunc), ctx.quiver.tits_form))


# -- absolutely stable counts --------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Polynomial counts per dimension vector, tagged with their origin."""

    entries: dict[DimVector, QPoly]
    provenance: str
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
                    "poly_qminus1": [
                        f"{c.numerator}/{c.denominator}" for c in poly.qminus1_coeffs()
                    ],
                }
            )
        return rows


def absolutely_stable_table(ctx: CountingContext) -> CountTable:
    """Counting polynomials for absolutely stable classes, from the identity
    (semistable series) o Exp(a / (1-q)) = 1 in the twisted algebra.

    The twisted inverse of the semistable series is Exp(a/(1-q)), so a is
    (1-q) times its plethystic Log.  Every coefficient must come out as a
    polynomial with integer coefficients; anything else is a hard error.
    """
    form = ctx.quiver.ringel_matrix()
    r = semistable_series(ctx)
    g = twisted_inverse(r, form)
    log_g = plethystic_log(g)
    entries: dict[DimVector, QPoly] = {}
    for alpha in ctx.trunc.vectors():
        if height(alpha) == 0:
            continue
        value = log_g.coeff(alpha) * ONE_MINUS_Q
        if not value.is_polynomial:
            raise IntegralityError(
                f"count at {alpha} is not polynomial: {value}"
            )
        poly = value.as_poly()
        if not poly.has_integer_coeffs():
            raise IntegralityError(
                f"count at {alpha} has non-integer coefficients: {poly}"
            )
        entries[alpha] = poly
    return CountTable(entries, "twisted-inversion", ctx)


def stable_end_degree_poly(ctx: CountingContext, table: CountTable,
                           alpha: Sequence[int], r: int) -> QPoly:
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


def stable_end_degree_at(ctx: CountingContext, table: CountTable,
                         beta: Sequence[int], r: int) -> QPoly:
    """s for dimension vector beta and degree r; beta must be divisible by r."""
    beta = tuple(beta)
    if any(b % r for b in beta):
        raise ValueError(f"dimension vector {beta} is not divisible by {r}")
    base = tuple(b // r for b in beta)
    return stable_end_degree_poly(ctx, table, base, r)


# -- the residual series and its q = 1 behaviour -----------------------------------


def _require_zero_stability(ctx: CountingContext) -> None:
    if not ctx.is_trivial_stability:
        raise ValueError("this computation is defined for the zero stability")


def residual_series(ctx: CountingContext, table: CountTable) -> Series:
    """Exp((a - sum_i x_i) / (1-q)), with a the absolutely-stable counts.

    Regular at q = 1; a pole in any coefficient signals a bug and raises.
    """
    _require_zero_stability(ctx)
    trunc = ctx.trunc
    coeffs: dict[DimVector, RationalFunction] = {}
    inv = RationalFunction(QPoly.one(), ONE_MINUS_Q)
    for alpha, poly in table.entries.items():
        adjusted = poly - QPoly.one() if height(alpha) == 1 else poly
        if not adjusted.is_zero:
            coeffs[alpha] = RationalFunction(adjusted) * inv
    f = plethystic_exp(Series(trunc, coeffs))
    for alpha, c in f.items():
        if c.has_pole_at_one():
            raise InvariantError(f"residual series has a pole at q=1 at {alpha}")
    return f


def residual_series_recursive(ctx: CountingContext) -> Series:
    """The same series built without the counting table.

    Degree by degree, the coefficient at alpha > 0 is determined by
    requiring the x^alpha coefficient of q_binomial_series(-R alpha) * f to
    vanish; the q-binomial series has constant term 1, so this solves for
    the new coefficient directly.
    """
    _require_zero_stability(ctx)
    R = ctx.quiver.ringel_matrix()
    trunc = ctx.trunc
    zero = trunc.zero_vector()
    coeffs: dict[DimVector, RationalFunction] = {zero: RationalFunction.one()}
    for alpha in trunc.vectors():
        if alpha == zero:
            continue
        lam = tuple(-sum(R[i][j] * alpha[j] for j in range(len(alpha)))
                    for i in range(len(alpha)))
        acc = RationalFunction.zero()
        for beta in subvectors(alpha):
            if height(beta) == 0:
                continue
            prev = coeffs.get(vec_sub(alpha, beta))
            if prev is None or prev.is_zero:
                continue
            weight = qbinom_vec(lam, beta)
            if not weight.is_zero:
                acc = acc + weight * prev
        if not acc.is_zero:
            coeffs[alpha] = -acc
    return Series(trunc, coeffs)


def qbinom_jet(lam: Sequence[int], beta: Sequence[int], order: int
               ) -> tuple[Fraction, ...]:
    """Taylor coefficients 0..order at q = 1 of [lam, beta] = prod_i [lam^i, beta^i].

    In t = q - 1, [n, m] = prod_{i=1..m} [n+i]_q / [i]_q with
    [k]_q = ((1+t)^k - 1)/t = sum_j C(k, j+1) t^j for every integer k.  The
    divisors have constant term i >= 1, and a factor [0]_q = 0 gives
    [n, m] = 0 for -m <= n <= -1, so no rational function is needed.
    """
    length = order + 1
    out = [Fraction(1)] + [Fraction(0)] * order
    for n, m in zip(lam, beta):
        for i in range(1, m + 1):
            num = binomial_jet(n + i, 1, length + 1)[1:]
            den = binomial_jet(i, 1, length + 1)[1:]
            out = trunc_mul(out, trunc_mul(num, trunc_inv(den, length), length), length)
    return tuple(out)


def residual_q1_expansion(ctx: CountingContext, order: int
                          ) -> list[dict[DimVector, Fraction]]:
    """Taylor coefficients of the residual series in powers of (q - 1).

    Returns layers 0..order; layer n maps dimension vectors to the exact
    coefficient of (q-1)^n in the corresponding series coefficient.  Runs
    the recursion of residual_series_recursive on jets in t = q - 1 taken
    modulo t^(order+1); layer 0 is the series at q = 1.
    """
    _require_zero_stability(ctx)
    if order < 0:
        raise ValueError("order must be nonnegative")
    length = order + 1
    R = ctx.quiver.ringel_matrix()
    trunc = ctx.trunc
    zero = trunc.zero_vector()
    jets: dict[DimVector, list[Fraction]] = {zero: [Fraction(1)] + [Fraction(0)] * order}
    for alpha in trunc.vectors():
        if alpha == zero:
            continue
        lam = tuple(-sum(R[i][j] * alpha[j] for j in range(len(alpha)))
                    for i in range(len(alpha)))
        acc = [Fraction(0)] * length
        for beta in subvectors(alpha):
            prev = jets.get(vec_sub(alpha, beta))
            if height(beta) == 0 or prev is None:
                continue
            for k, c in enumerate(trunc_mul(qbinom_jet(lam, beta, order), prev, length)):
                acc[k] += c
        if any(acc):
            jets[alpha] = [-c for c in acc]
    layers: list[dict[DimVector, Fraction]] = [dict() for _ in range(length)]
    for alpha, jet in jets.items():
        for n, value in enumerate(jet):
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

    def jet(layer: dict[DimVector, Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * length
        for alpha, c in layer.items():
            out[alpha[0]] = c
        return out

    c = integer_binomial(m, 2)
    f1_matches = jet(layers[1]) == trunc_mul([0, -c, c], binomial_jet(-2, -m, length),
                                             length)
    degrees = []
    for n, layer in enumerate(layers[:3]):
        prod = trunc_mul(jet(layer), binomial_jet(3 * n - 1, -m, length), length)
        degrees.append(max((k for k, x in enumerate(prod) if x), default=None))
    return f1_matches, degrees


# -- the (q-1) positivity report -----------------------------------------------


@dataclass(frozen=True)
class PositivityRow:
    alpha: DimVector
    coeffs_qminus1: tuple[Fraction, ...]
    constant_term: Fraction
    linear_term: Fraction
    all_nonnegative: bool
    all_integer: bool
    necklaces: Optional[int]

    @property
    def linear_matches_necklaces(self) -> Optional[bool]:
        if self.necklaces is None:
            return None
        return self.linear_term == self.necklaces


@dataclass(frozen=True)
class PositivityReport:
    rows: tuple[PositivityRow, ...]

    def to_json(self) -> list[dict]:
        out = []
        for row in self.rows:
            out.append(
                {
                    "alpha": list(row.alpha),
                    "coeffs_qminus1": [str(c) for c in row.coeffs_qminus1],
                    "constant_term": str(row.constant_term),
                    "linear_term": str(row.linear_term),
                    "all_nonnegative": row.all_nonnegative,
                    "all_integer": row.all_integer,
                    "necklaces": row.necklaces,
                    "linear_matches_necklaces": row.linear_matches_necklaces,
                }
            )
        return out


def positivity_report(table: CountTable) -> PositivityReport:
    """Re-express each counting polynomial in the (q-1) basis and report
    the constant term, the linear term (against primitive necklace numbers
    for one-vertex quivers) and whether all coefficients are nonnegative.

    Nonnegativity is experimental: the report states what was observed and
    asserts nothing.
    """
    quiver = table.context.quiver
    loops = quiver.arrow_counts[0][0] if quiver.nvertices == 1 else None
    rows = []
    for alpha, poly in table.sorted_items():
        coeffs = poly.qminus1_coeffs()
        constant = coeffs[0] if coeffs else Fraction(0)
        linear = coeffs[1] if len(coeffs) > 1 else Fraction(0)
        necklaces = None
        if loops is not None and loops >= 1 and height(alpha) >= 1:
            necklaces = necklace_count(loops, alpha[0])
        rows.append(
            PositivityRow(
                alpha=alpha,
                coeffs_qminus1=coeffs,
                constant_term=constant,
                linear_term=linear,
                all_nonnegative=all(c >= 0 for c in coeffs),
                all_integer=all(c.denominator == 1 for c in coeffs),
                necklaces=necklaces,
            )
        )
    return PositivityReport(tuple(rows))
