from fractions import Fraction

import pytest

from quivercount.counting import CountingContext
from quivercount.quiver import Quiver
from quivercount.verify import run_verification

LOOP1 = Quiver.from_matrix([[1]])
KRONECKER = Quiver.from_matrix([[0, 2], [0, 0]])


def test_all_quantities_match_on_one_loop():
    ctx = CountingContext.create(LOOP1, max_height=3)
    report = run_verification(ctx, primes=(2,))
    assert report.ok
    assert report.n_checked > 0
    quantities = {row.quantity for row in report.rows}
    assert "points/GL" in quantities
    assert "semistable/GL" in quantities
    assert "abs-stable classes" in quantities
    assert any(q.startswith("stable classes end-degree") for q in quantities)


def test_kronecker_slope_half():
    ctx = CountingContext.create(KRONECKER, theta=(1, 0), mu=Fraction(1, 2),
                                 max_height=4)
    report = run_verification(ctx, primes=(2,))
    assert report.ok
    checked = {(row.quantity, row.alpha) for row in report.rows
               if row.match is not None}
    assert ("semistable/GL", (1, 1)) in checked
    assert ("abs-stable classes", (2, 2)) in checked


def test_tampered_table_reports_mismatch(corrupt_table):
    ctx = CountingContext.create(LOOP1, max_height=2)
    report = run_verification(ctx, primes=(2,))
    assert not report.ok
    assert report.failures()
    assert all(row.quantity != "semistable/GL" for row in report.failures())


def test_budget_rows_are_skipped_not_failed():
    ctx = CountingContext.create(Quiver.from_matrix([[2]]), max_height=3)
    report = run_verification(ctx, primes=(3,), max_points=100)
    assert report.ok
    assert report.n_skipped > 0
    skipped = [row for row in report.rows if row.match is None]
    assert all("skipped" in row.note for row in skipped)


def test_report_json_shape():
    ctx = CountingContext.create(LOOP1, max_height=2)
    payload = run_verification(ctx, primes=(2,)).to_json()
    assert {"ok", "checked", "skipped", "rows"} <= set(payload)
    row = payload["rows"][0]
    assert {"quantity", "alpha", "p", "formula", "oracle", "match"} <= set(row)


@pytest.mark.parametrize("loops, checked, skipped", [(2, 18, 4), (1, 22, 0)])
def test_benchmark_verify_rows(loops, checked, skipped):
    # the rows of the benchmark's `verify --max-height 3 --primes 2,3` runs;
    # loop2 reaches alpha = (3,) at p = 2, the oracle's costliest cell
    ctx = CountingContext.create(Quiver.from_matrix([[loops]]), max_height=3)
    report = run_verification(ctx, primes=(2, 3))
    assert report.ok
    assert (report.n_checked, report.n_skipped) == (checked, skipped)
