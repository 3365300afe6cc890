"""Randomized cross-validation on quivers outside the standard examples.

Three independent routes must agree everywhere: the memoized prefix-slope
recursion, the literal decomposition enumeration, and brute-force counting
over F_2; and the inversion round trip must close for every shape, including
quivers with oriented cycles and mixed loops/arrows.
"""

import random
from fractions import Fraction

from quivercount.counting import (
    CountingContext,
    _gl_order,
    absolutely_stable_table,
    semistable_ratio,
    semistable_series,
)
from quivercount.oracle import (
    BudgetError,
    count_absolutely_stable,
    count_semistable_ratio,
)
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import Quiver, dim_vectors, height
from quivercount.series import (
    Series,
    plethystic_exp,
    semistable_ratio_reference,
    twisted_mul,
)

INV_1Q = RationalFunction(1, QPoly([1, -1]))


def exp_of_table(ctx, table):
    coeffs = {a: RationalFunction(p) * INV_1Q for a, p in table.entries.items()}
    return plethystic_exp(Series(ctx.trunc, coeffs))


def random_context(rng):
    n = rng.choice((1, 2, 2, 3))
    mat = [[rng.randint(0, 2) if (i != j or rng.random() < 0.4) else 0
            for j in range(n)] for i in range(n)]
    quiver = Quiver.from_matrix(mat)
    theta = tuple(rng.randint(-2, 2) for _ in range(n))
    slopes = []
    for alpha in dim_vectors(n, 3):
        if sum(alpha):
            slopes.append(Fraction(sum(t * a for t, a in zip(theta, alpha)),
                                   sum(alpha)))
    mu = rng.choice(slopes)
    return CountingContext.create(quiver, theta=theta, mu=mu, max_height=4)


def test_recursion_reference_and_oracle_agree_on_random_quivers():
    rng = random.Random(123)
    cells = 0
    for _ in range(25):
        ctx = random_context(rng)
        for alpha in ctx.trunc.vectors():
            if not 0 < height(alpha) <= 4:
                continue
            value = semistable_ratio(ctx, alpha)
            # times #GL_alpha it is the semistable point count, in Z[q]
            points = value * _gl_order(alpha)
            assert points.den.is_one and points.num.has_integer_coeffs(), \
                (ctx.quiver, ctx.trunc.theta, alpha)
            if height(alpha) <= 3:
                assert value == semistable_ratio_reference(ctx, alpha), \
                    (ctx.quiver, ctx.trunc.theta, alpha)
            try:
                oracle = count_semistable_ratio(ctx.quiver, alpha, ctx.trunc.theta, 2)
            except BudgetError:
                continue
            assert value.evaluate(2) == oracle, (ctx.quiver, ctx.trunc.theta, alpha)
            cells += 1
    assert cells > 50


SHAPES = [
    ("two-cycle", [[0, 1], [1, 0]], (0, 0), Fraction(0)),
    ("two-cycle, slope 1/2", [[0, 1], [1, 0]], (1, 0), Fraction(1, 2)),
    ("triple arrow, slope 1/2", [[0, 3], [0, 0]], (1, 0), Fraction(1, 2)),
    ("loops and arrow", [[1, 1], [0, 1]], (0, 0), Fraction(0)),
]


def test_pipeline_closes_on_cyclic_and_multiarrow_shapes():
    for name, mat, theta, mu in SHAPES:
        quiver = Quiver.from_matrix(mat)
        ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=4)
        table = absolutely_stable_table(ctx)
        prod = twisted_mul(semistable_series(ctx), exp_of_table(ctx, table),
                           quiver.ringel_matrix())
        assert prod == Series.one(ctx.trunc), name
        checked = 0
        for alpha in ctx.trunc.vectors():
            if not 0 < height(alpha) <= 3:
                continue
            for p in (2, 3):
                try:
                    oracle = count_absolutely_stable(quiver, alpha, theta, p)
                except BudgetError:
                    continue
                assert oracle == table.poly(alpha).evaluate(p), (name, alpha, p)
                checked += 1
        assert checked > 0, name
