"""Formula-vs-oracle verification harness.

For every configured prime p and every dimension vector in the slope cone
up to height `oracle.stable_height(p)`, the exact rational-function values
are evaluated at p and compared with brute-force counts:

* point ratio          #R / #GL
* semistable ratio     #semistable / #GL
* class counts         absolutely stable, and stable with endomorphism
                       field of degree 2 <= r <= 4 where the dimension
                       divides.

Rows whose enumeration would pass `max_points` points (default
`oracle.DEFAULT_MAX_POINTS`) are reported as skipped, never silently
dropped; a report is OK when no comparison failed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .counting import (
    CountingContext,
    absolutely_stable_table,
    rep_ratio,
    semistable_ratio,
    stable_end_degree_poly,
)
from .oracle import (
    DEFAULT_MAX_POINTS,
    BudgetError,
    _check_point_budget,
    count_absolutely_stable,
    count_semistable_ratio,
    count_stable_with_end_dim,
    gl_order,
    rep_space_dim,
    stable_height,
)
from .quiver import DimVector, Quiver, TruncationSpec, height

_ENUMERATION_CAP = 1 << 16
_MAX_END_DEGREE = 4


class VerificationRow(NamedTuple):
    quantity: str
    alpha: DimVector
    p: int
    formula: str
    oracle: str
    match: Optional[bool]  # None when the row was skipped
    note: str = ""


class VerificationReport(NamedTuple):
    rows: tuple[VerificationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.match is not False for row in self.rows)

    @property
    def n_checked(self) -> int:
        return sum(1 for row in self.rows if row.match is not None)

    @property
    def n_skipped(self) -> int:
        return sum(1 for row in self.rows if row.match is None)

    def failures(self) -> list[VerificationRow]:
        return [row for row in self.rows if row.match is False]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.n_checked,
            "skipped": self.n_skipped,
            "rows": [row._asdict() for row in self.rows],
        }


def _points_ratio(quiver: Quiver, alpha: DimVector, p: int, max_points: int) -> Fraction:
    """#R_alpha / #GL_alpha at q = p: the space has p^dim points."""
    points = p ** rep_space_dim(quiver, alpha)
    if points > _ENUMERATION_CAP:
        raise BudgetError("point stream too long to enumerate")
    _check_point_budget(quiver, alpha, p, max_points)
    return Fraction(points, gl_order(alpha, p))


def run_verification(ctx: CountingContext, primes: Sequence[int],
                     max_points: int = DEFAULT_MAX_POINTS) -> VerificationReport:
    # no row lies above the largest stable_height, so neither need the table
    trunc = ctx.trunc
    ctx = CountingContext(ctx.quiver, TruncationSpec(
        trunc.nvars, min(trunc.max_height, max(map(stable_height, primes), default=1)),
        trunc.theta, trunc.mu))
    table = absolutely_stable_table(ctx)
    quiver, theta = ctx.quiver, trunc.theta
    rows: list[VerificationRow] = []

    def add(quantity, alpha, p, formula_value, oracle, *args):
        try:
            oracle_value = oracle(*args)
        except BudgetError as exc:
            rows.append(VerificationRow(quantity, alpha, p, str(formula_value),
                                        "-", None, f"skipped: {exc}"))
            return
        rows.append(VerificationRow(quantity, alpha, p, str(formula_value),
                                    str(oracle_value),
                                    formula_value == oracle_value))

    for p in primes:
        bound = min(ctx.trunc.max_height, stable_height(p))
        for alpha in ctx.trunc.vectors():
            h = height(alpha)
            if h == 0 or h > bound:
                continue
            add("points/GL", alpha, p, rep_ratio(quiver, alpha).evaluate(p),
                _points_ratio, quiver, alpha, p, max_points)
            add("semistable/GL", alpha, p, semistable_ratio(ctx, alpha).evaluate(p),
                count_semistable_ratio, quiver, alpha, theta, p, max_points)
            add("abs-stable classes", alpha, p, table.poly(alpha).evaluate(p),
                count_absolutely_stable, quiver, alpha, theta, p, max_points)
            for r in range(2, _MAX_END_DEGREE + 1):
                if any(a % r for a in alpha):
                    continue
                base = tuple(a // r for a in alpha)
                s_poly = stable_end_degree_poly(table, base, r)
                add(f"stable classes end-degree {r}", alpha, p, s_poly.evaluate(p),
                    count_stable_with_end_dim, quiver, alpha, theta, p, r, max_points)
    return VerificationReport(tuple(rows))
