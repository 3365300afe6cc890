"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with -s or -rA);
a failure raises with the offending configuration in the message.
"""

import random
from fractions import Fraction

import pytest

from quivercount.counting import (
    CountingContext,
    absolutely_stable_table,
    loop_layer_checks,
    necklace_count,
    positivity_report,
    residual_q1_expansion,
    residual_series_recursive,
    semistable_ratio,
    semistable_series,
    stable_end_degree_poly,
)
from quivercount.numtheory import divisors, integer_binomial, mobius
from quivercount.oracle import (
    BudgetError,
    count_absolutely_stable,
    count_semistable_ratio,
    count_stable_with_end_dim,
)
from quivercount.qpoly import QPoly, RationalFunction
from quivercount.quiver import Quiver, TruncationSpec, qbinom_vec
from quivercount.series import (
    Series,
    adams,
    monomial_twist,
    ordinary_pow,
    plethystic_exp,
    plethystic_log,
    plethystic_pow,
    q_binomial_series,
    q_exponential,
    residual_series,
    semistable_series_closed,
    series_bar,
    twisted_inverse,
    twisted_mul,
)

ONE = QPoly.one()
Q = QPoly.gen()
INV_1Q = RationalFunction(1, ONE - Q)

A2 = Quiver.from_arrows(("1", "2"), [("1", "2")])
A3 = Quiver.from_arrows(("1", "2", "3"), [("1", "2"), ("2", "3")])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])


def loop(m):
    return Quiver.from_matrix([[m]])


def taylor_layers(series, order):
    """Layers 0..order of the (q-1) expansions of the coefficients of series."""
    layers = [{} for _ in range(order + 1)]
    for alpha, c in series.items():
        for n, value in enumerate(c.taylor_at_one(order).coeffs):
            if value:
                layers[n][alpha] = value
    return layers


def exp_of_table(ctx, table):
    coeffs = {a: RationalFunction(p) * INV_1Q for a, p in table.entries.items()}
    return plethystic_exp(Series(ctx.trunc, coeffs))


def rand_rf(rng):
    num = QPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
    den = rng.choice([ONE, ONE - Q, ONE + Q, ONE - QPoly.monomial(2)])
    return RationalFunction(num, den)


def rand_series(rng, trunc, constant):
    coeffs = {trunc.zero_vector(): constant}
    for alpha in trunc.vectors():
        if sum(alpha) and rng.random() < 0.6:
            coeffs[alpha] = rand_rf(rng)
    return Series(trunc, coeffs)


@pytest.fixture(scope="module")
def loop_tables_h6():
    out = {}
    for m in (1, 2, 3, 4):
        ctx = CountingContext.create(loop(m), max_height=6)
        out[m] = (ctx, absolutely_stable_table(ctx))
    return out


# -- criterion 1: the lambda-ring suite ------------------------------------------


def test_criterion_01_lambda_ring_suite():
    rng = random.Random(2024)
    cases = 50

    for _ in range(cases):  # Exp/Log mutual inversion
        tr = TruncationSpec(rng.choice((1, 2)), 5)
        a = rand_series(rng, tr, RationalFunction.zero())
        b = rand_series(rng, tr, RationalFunction.one())
        assert plethystic_log(plethystic_exp(a)) == a
        assert plethystic_exp(plethystic_log(b)) == b

    for _ in range(cases):  # Exp of a sum
        tr = TruncationSpec(rng.choice((1, 2)), 5)
        a = rand_series(rng, tr, RationalFunction.zero())
        b = rand_series(rng, tr, RationalFunction.zero())
        assert plethystic_exp(a + b) == plethystic_exp(a) * plethystic_exp(b)

    for _ in range(cases):  # power formula via Mobius-inverted exponents
        tr = TruncationSpec(rng.choice((1, 2)), 5)
        f = rand_series(rng, tr, RationalFunction.one())
        g = rand_series(rng, tr, rand_rf(rng))
        lhs = plethystic_pow(f, g)
        rhs = Series.one(tr)
        for d in range(1, tr.max_height + 1):
            gd = Series.zero(tr)
            for e in divisors(d):
                mo = mobius(d // e)
                if mo:
                    gd = gd + adams(g, e) * Fraction(mo, d)
            rhs = rhs * ordinary_pow(adams(f, d), gd)
        assert lhs == rhs

    tr = TruncationSpec(1, 5)
    x = Series.variable(tr, 0)
    assert q_exponential(tr) == plethystic_exp(x * INV_1Q)
    for _ in range(cases):  # bounded q-exponential form
        n = rng.randint(-10, 10)
        coeff = (RationalFunction.one() - RationalFunction.q_power(n + 1)) * INV_1Q
        assert q_binomial_series((n,), tr) == plethystic_exp(x * coeff), n

    tr2 = TruncationSpec(2, 5)
    p2 = q_exponential(tr2)
    barp = series_bar(p2)
    for _ in range(cases):  # shifted series from the conjugate
        lam = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert q_binomial_series(lam, tr2) == p2 * monomial_twist(
            barp, lambda a: sum(w * x for w, x in zip(lam, a))), lam

    print("ACCEPTANCE 1 PASS: lambda-ring suite exact at height 5, "
          f"{cases} randomized cases per identity")


# -- criterion 2: closed form of the zero-stability series -------------------------


def test_criterion_02_closed_form_and_acyclic_inverse():
    for quiver in (loop(1), loop(2), A2, A3, KRONECKER):
        ctx = CountingContext.create(quiver, max_height=6)
        assert semistable_series(ctx) == semistable_series_closed(ctx), quiver

    for quiver in (A2, A3, KRONECKER):
        ctx = CountingContext.create(quiver, max_height=6)
        closed = semistable_series_closed(ctx)
        p = q_exponential(ctx.trunc)
        assert twisted_mul(closed, p, quiver.ringel_matrix()) == \
            Series.one(ctx.trunc), quiver

        R = quiver.ringel_matrix()
        n = quiver.nvertices
        for alpha in ctx.trunc.vectors():
            if sum(alpha) == 0:
                continue
            lam = tuple(-sum(R[i][j] * alpha[j] for j in range(n))
                        for i in range(n))
            assert qbinom_vec(lam, alpha).is_zero, (quiver, alpha)

    print("ACCEPTANCE 2 PASS: zero-stability series equals the conjugated "
          "twisted q-exponential; acyclic inverse and vanishing binomials "
          "hold to height 6")


# -- criteria 3 and 4: oracle grids --------------------------------------------------

GRID_QUIVERS = {
    "loop1": loop(1),
    "loop2": loop(2),
    "a2": A2,
    "kronecker": KRONECKER,
}


def _grid_cells():
    """(name, quiver, theta, mu, alpha, p) cells for the oracle criteria."""
    cells = []
    for name, quiver in GRID_QUIVERS.items():
        one_vertex = quiver.nvertices == 1
        for p in (2, 3):
            bound = 4 if (one_vertex and p == 2) else 3
            ctx = CountingContext.create(quiver, max_height=bound)
            for alpha in ctx.trunc.vectors():
                if 0 < sum(alpha) <= bound:
                    cells.append((name, quiver, (0,) * quiver.nvertices,
                                  Fraction(0), alpha, p))
        if not one_vertex:
            for p in (2, 3):
                ctx = CountingContext.create(quiver, theta=(1, 0),
                                             mu=Fraction(1, 2), max_height=3)
                for alpha in ctx.trunc.vectors():
                    if 0 < sum(alpha) <= 3:
                        cells.append((name, quiver, (1, 0), Fraction(1, 2),
                                      alpha, p))
    return cells


def test_criterion_03_oracle_matches_semistable_ratio():
    contexts = {}
    checked = 0
    for name, quiver, theta, mu, alpha, p in _grid_cells():
        key = (name, theta)
        if key not in contexts:
            contexts[key] = CountingContext.create(
                quiver, theta=theta, mu=mu, max_height=4)
        formula = semistable_ratio(contexts[key], alpha).evaluate(p)
        oracle = count_semistable_ratio(quiver, alpha, theta, p)
        assert formula == oracle, (name, theta, alpha, p, formula, oracle)
        checked += 1
    print(f"ACCEPTANCE 3 PASS: semistable ratios match brute force on "
          f"{checked} cells, exact equality")


def test_criterion_04_oracle_matches_class_counts():
    contexts = {}
    tables = {}
    checked = 0
    skipped = set()
    for name, quiver, theta, mu, alpha, p in _grid_cells():
        key = (name, theta)
        if key not in tables:
            ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=4)
            contexts[key] = ctx
            tables[key] = absolutely_stable_table(ctx)
        formula = tables[key].poly(alpha).evaluate(p)
        try:
            oracle = count_absolutely_stable(quiver, alpha, theta, p)
        except BudgetError:
            skipped.add((name, alpha, p))
            continue
        assert formula == oracle, (name, theta, alpha, p, formula, oracle)
        checked += 1

    # the only cells over the default point budget are the two largest
    # one-vertex enumerations (3^18 and 2^32 points)
    assert skipped == {("loop2", (3,), 3), ("loop2", (4,), 2)}, skipped

    table1 = tables[("loop1", (0,))]
    assert table1.poly((1,)) == Q
    for d in range(2, 5):
        assert table1.poly((d,)).is_zero

    print(f"ACCEPTANCE 4 PASS: absolutely stable class counts match brute "
          f"force on {checked} cells ({len(skipped)} cells beyond the default "
          f"point budget, as configured)")


# -- criterion 5: inversion round trip -------------------------------------------


def test_criterion_05_inversion_round_trip():
    configs = [
        (loop(1), None, Fraction(0)),
        (loop(2), None, Fraction(0)),
        (A2, None, Fraction(0)),
        (KRONECKER, None, Fraction(0)),
        (A2, (1, 0), Fraction(1, 2)),
        (KRONECKER, (1, 0), Fraction(1, 2)),
    ]
    for quiver, theta, mu in configs:
        ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=6)
        table = absolutely_stable_table(ctx)
        prod = twisted_mul(semistable_series(ctx), exp_of_table(ctx, table),
                           quiver.ringel_matrix())
        assert prod == Series.one(ctx.trunc), (quiver, theta)
    print("ACCEPTANCE 5 PASS: the twisted product of the semistable series "
          "with Exp(counts/(1-q)) is 1 to height 6 in all six configurations")


# -- criterion 6: the residual series, two algorithms ----------------------------------


def test_criterion_06_residual_series_cross_algorithm(loop_tables_h6):
    for m, (ctx, table) in loop_tables_h6.items():
        direct = residual_series(table)
        recursive = residual_series_recursive(ctx)
        assert direct == recursive, m
        assert residual_q1_expansion(ctx, 3) == taylor_layers(recursive, 3), m

    ctx = CountingContext.create(A2, max_height=6)
    table = absolutely_stable_table(ctx)
    recursive = residual_series_recursive(ctx)
    assert residual_series(table) == recursive
    assert residual_q1_expansion(ctx, 3) == taylor_layers(recursive, 3)
    assert residual_q1_expansion(ctx, 0)[0] == {(0, 0): 1}

    print("ACCEPTANCE 6 PASS: residual series agrees between the Exp form and "
          "the recursion to height 6 (loops m=1..4 and the one-arrow quiver); "
          "the (q-1) jet recursion matches its Taylor layers to order 3; "
          "no pole at q=1")


# -- criterion 7: the q=1 limit is 1 - m t -----------------------------------------


def test_criterion_07_q1_limit_and_binomial_identity():
    for m in (1, 2, 3, 4):
        ctx = CountingContext.create(loop(m), max_height=8)
        expected = {(0,): Fraction(1), (1,): Fraction(-m)}
        assert residual_q1_expansion(ctx, 0)[0] == expected, m
        assert residual_q1_expansion(ctx, 2)[0] == expected, m

    for m in range(1, 5):
        for n in range(1, 9):
            e = n - m * n - 1
            coeff = (-1) ** n * integer_binomial(e, n) \
                - m * (-1) ** (n - 1) * integer_binomial(e, n - 1)
            assert coeff == 0, (m, n)

    print("ACCEPTANCE 7 PASS: q=1 limit equals 1 - m t to height 8 for "
          "m=1..4 at jet orders 0 and 2; the supporting binomial identity vanishes "
          "for n=1..8")


# -- criterion 8: the linear term counts necklaces ------------------------------------


def test_criterion_08_necklace_linear_term(loop_tables_h6):
    for m in (2, 3):
        _, table = loop_tables_h6[m]
        for d in range(2, 7):
            coeffs = table.poly((d,)).shifted().coeffs
            assert coeffs[0] == 0, (m, d)
            assert coeffs[1] == necklace_count(m, d), (m, d)
    print("ACCEPTANCE 8 PASS: constant terms vanish and linear terms in "
          "(q-1) equal primitive necklace counts for m=2,3 and d=2..6")


# -- criterion 9: conjecture reporting (no assertions on the conjectures) ---------------


def test_criterion_09_positivity_and_expansion_reports(loop_tables_h6, capsys):
    lines = []
    for m in (2, 3):
        ctx, table = loop_tables_h6[m]
        for row in positivity_report(table):
            if row.alpha[0] > 6:
                continue
            lines.append(
                f"  m={m} d={row.alpha[0]}: nonnegative (q-1) coefficients: "
                f"{'yes' if row.all_nonnegative else 'NO'}")

        layers = residual_q1_expansion(ctx, 2)
        match, degrees = loop_layer_checks(ctx, layers)
        lines.append(f"  m={m}: second layer vs C(m,2) t(t-1)/(1-mt)^2 to "
                     f"t^6: {'match' if match else 'MISMATCH'}")
        for n in (1, 2):
            lines.append(f"  m={m} n={n}: observed t-degree of "
                         f"layer_n*(1-mt)^{3 * n - 1} = {degrees[n]} "
                         f"(conjectured {3 * n - 1})")
    assert len(lines) == 2 * (6 + 3)  # six positivity rows plus three report lines per m
    print("ACCEPTANCE 9 PASS (report only):")
    for line in lines:
        print(line)


# -- criterion 10: endomorphism-degree bookkeeping -------------------------------------


def test_criterion_10_end_degree_identities_and_oracle():
    ctx = CountingContext.create(loop(2), max_height=4)
    table = absolutely_stable_table(ctx)
    a1 = table.poly((1,))

    for r in range(1, 5):  # Adams-power decomposition
        total = QPoly.zero()
        for k in divisors(r):
            total = total + stable_end_degree_poly(table, (1,), k) * k
        assert total == a1.adams(r), r

    rng = random.Random(99)  # product formula for plethystic powers
    tr = ctx.trunc
    for _ in range(10):
        f = rand_series(rng, tr, RationalFunction.one())
        lhs = plethystic_pow(f, Series.one(tr) * RationalFunction(a1))
        rhs = Series.one(tr)
        for r in range(1, 5):
            s = stable_end_degree_poly(table, (1,), r)
            rhs = rhs * ordinary_pow(adams(f, r),
                                     Series.one(tr) * RationalFunction(s))
        assert lhs == rhs

    s2 = stable_end_degree_poly(table, (1,), 2)
    for p in (2, 3):
        assert s2.evaluate(p) == \
            count_stable_with_end_dim(loop(2), (2,), (0,), p, 2), p

    print("ACCEPTANCE 10 PASS: endomorphism-degree counts satisfy the Adams "
          "decomposition and power identity for r<=4 at height 4; the degree-2 "
          "count matches brute force at p=2,3")


# -- criterion 11: the #GL-scaled count table against the Q(q) route ------------------


def test_criterion_11_count_table_matches_rational_function_route():
    # absolutely_stable_table runs in Q[q] on #GL-scaled series and reads the
    # twisted inverse from the non-strict Harder-Narasimhan sum; the reference
    # solves for the twisted inverse in Q(q) and takes (1-q) Log of it, so this
    # also checks that identity
    cyclic = Quiver.from_matrix([[0, 2], [1, 0]])
    configs = [(quiver, None, Fraction(0), 6)
               for quiver in (loop(1), loop(2), loop(3), loop(4), A2, A3, KRONECKER,
                              cyclic)]
    configs += [
        (KRONECKER, (1, 0), Fraction(1, 2), 10),
        (A3, (2, 1, 0), Fraction(1), 6),  # its twisted inverse has zero coefficients
    ]
    for quiver, theta, mu, h in configs:
        ctx = CountingContext.create(quiver, theta=theta, mu=mu, max_height=h)
        inverse = twisted_inverse(semistable_series(ctx), quiver.ringel_matrix())
        expected = plethystic_log(inverse) * (ONE - Q)
        table = absolutely_stable_table(ctx)
        assert len(table.entries) == sum(1 for a in ctx.trunc.vectors() if sum(a))
        assert Series(ctx.trunc, table.entries) == expected, (quiver, theta, mu)
    print("ACCEPTANCE 11 PASS: the count table equals (1-q) Log of the twisted "
          f"inverse in Q(q) in all {len(configs)} configurations")
