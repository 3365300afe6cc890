"""The CLI subcommands that count: a-series, r-series, s-count, f-expand and
verify.

`cli` imports this module, and with it the count path, only once one of
these subcommands has been parsed; `verify` alone loads the oracle and
numpy on top.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cli import EXIT_INVARIANT, EXIT_MISMATCH, EXIT_OK
from .counting import (
    CountingContext,
    InvariantError,
    absolutely_stable_table,
    loop_layer_checks,
    positivity_report,
    residual_q1_expansion,
    semistable_ratio,
    stable_end_degree_poly,
)
from .qpoly import PoleError, format_poly, format_terms
from .quiver import DimVector, Quiver, height, parse_theta


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of a flag's value."""
    values = []
    for entry in text.split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise ValueError(f"{flag} entry {entry!r} is not an integer") from None
    return tuple(values)


def _stability(args: argparse.Namespace) -> tuple[Quiver, tuple[int, ...], Fraction]:
    """The quiver, theta and slope that --quiver, --theta and --slope name,
    after --max-height is checked.  A subcommand with flags of its own checks
    them next and then builds the CountingContext, so that its empty-cone
    error comes last."""
    with open(args.quiver, "r", encoding="utf-8") as fh:
        quiver_data = json.load(fh)
    quiver = Quiver.from_json(quiver_data)
    n = quiver.nvertices
    if args.theta:
        theta = _int_list("--theta", args.theta)
        if len(theta) != n:
            raise ValueError(
                f"theta has {len(theta)} entries but the quiver has {n} vertices"
            )
    elif "theta" in quiver_data:
        theta = parse_theta(quiver_data, n)
    else:
        theta = (0,) * n
    slope_text = args.slope or "0"
    try:
        mu = Fraction(slope_text)
    except ZeroDivisionError:
        raise ValueError(f"--slope {slope_text} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--slope {slope_text} is not a fraction P/Q") from None
    if args.max_height < 1:
        raise ValueError("--max-height must be >= 1")
    return quiver, theta, mu


def _context(args: argparse.Namespace) -> CountingContext:
    """The CountingContext of --quiver, --theta, --slope and --max-height."""
    return CountingContext.create(*_stability(args), args.max_height)


# -- rendering helpers ------------------------------------------------------------


def _format_layer(layer: dict[DimVector, Fraction], nvars: int) -> str:
    """A layer as a sum of monomials in t, or in x1, x2, ... for several vertices."""
    names = ["t"] if nvars == 1 else [f"x{i + 1}" for i in range(nvars)]

    def monomial(alpha: DimVector) -> str:
        return "*".join(name if a == 1 else f"{name}^{a}"
                        for a, name in zip(alpha, names) if a)

    return format_terms(((layer[alpha], monomial(alpha))
                         for alpha in sorted(layer, key=lambda a: (height(a), a))),
                        "" if nvars == 1 else "*")


def _run_header(ctx: CountingContext) -> dict:
    """The JSON keys that name a run's quiver and stability."""
    return {"quiver": ctx.quiver.to_json(),
            "theta": list(ctx.trunc.theta),
            "slope": str(ctx.trunc.mu)}


# -- subcommands -------------------------------------------------------------


def cmd_a_series(args: argparse.Namespace, out) -> int:
    ctx = _context(args)
    table = absolutely_stable_table(ctx)
    if args.format == "json":
        json.dump({**_run_header(ctx),
                   "max_height": args.max_height,
                   "entries": table.to_json()}, out, indent=2)
        out.write("\n")
    elif args.format == "latex":
        out.write("\\begin{tabular}{lll}\n")
        out.write("$\\alpha$ & count in $q$ & count in $q-1$\\\\\\hline\n")
        for alpha, poly in table.sorted_items():
            out.write(
                f"$({','.join(map(str, alpha))})$ & "
                f"${poly.latex()}$ & "
                f"${format_poly(poly.shifted().coeffs, '(q-1)', latex=True)}$\\\\\n"
            )
        out.write("\\end{tabular}\n")
    else:
        for alpha, poly in table.sorted_items():
            out.write(f"alpha={alpha}  count(q) = {poly}  "
                      f"|  in q-1: {format_poly(poly.shifted().coeffs, '(q-1)')}\n")
    return EXIT_OK


def cmd_r_series(args: argparse.Namespace, out) -> int:
    ctx = _context(args)
    rows = []
    for alpha in ctx.trunc.vectors():
        if height(alpha) == 0:
            continue
        rows.append((alpha, semistable_ratio(ctx, alpha)))
    if args.format == "json":
        json.dump({**_run_header(ctx),
                   "entries": [{"alpha": list(a), "ratio": rf.to_json()}
                               for a, rf in rows]}, out, indent=2)
        out.write("\n")
    else:
        for alpha, rf in rows:
            if args.format == "latex":
                out.write(f"$r({tuple(alpha)}) = {rf.latex()}$\\\\\n")
            else:
                out.write(f"alpha={tuple(alpha)}  semistable/GL = {rf}\n")
    return EXIT_OK


def cmd_s_count(args: argparse.Namespace, out) -> int:
    quiver, theta, mu = _stability(args)
    end_degree, max_height = args.end_degree, args.max_height
    if end_degree < 1:
        raise ValueError("--end-degree must be >= 1")
    ctx = CountingContext.create(quiver, theta, mu, max_height)
    table = absolutely_stable_table(ctx)
    rows = []
    for base in ctx.trunc.vectors():
        if height(base) == 0 or height(base) * end_degree > max_height:
            continue
        poly = stable_end_degree_poly(table, base, end_degree)
        beta = tuple(end_degree * b for b in base)
        rows.append((beta, poly))
    if args.format == "json":
        json.dump({"end_degree": end_degree,
                   "entries": [{"alpha": list(b), "poly_q": p.to_json()}
                               for b, p in rows]}, out, indent=2)
        out.write("\n")
    elif not rows:
        out.write(f"no dimension vector {end_degree}*alpha fits under "
                  f"--max-height {max_height}\n")
    else:
        for beta, poly in rows:
            out.write(f"alpha={beta}  stable classes with end-degree "
                      f"{end_degree}: {poly}\n")
    return EXIT_OK


def cmd_f_expand(args: argparse.Namespace, out) -> int:
    quiver, theta, mu = _stability(args)
    order = args.q1_order
    if order < 0:
        raise ValueError("--q1-order must be >= 0")
    if any(theta) or mu != 0:
        raise ValueError("f-expand is defined for the zero stability only")
    ctx = CountingContext.create(quiver, theta, mu, args.max_height)
    layers = residual_q1_expansion(ctx, order)
    table = absolutely_stable_table(ctx)
    rows = positivity_report(table)
    nvars = quiver.nvertices

    payload: dict = {"layers": [], "positivity": [row.to_json() for row in rows]}
    lines = []
    for n, layer in enumerate(layers):
        rendered = _format_layer(layer, nvars)
        payload["layers"].append(
            {"order": n,
             "coeffs": [{"alpha": list(a), "value": str(c)}
                        for a, c in sorted(layer.items())]})
        lines.append(f"f_{n} = {rendered}")

    if nvars == 1 and order >= 1:
        match, degrees = loop_layer_checks(ctx, layers)
        payload["f1_conjecture_match"] = match
        lines.append(f"f_1 vs C(m,2) t(t-1)/(1-mt)^2 to t^{args.max_height}: "
                     f"{'match' if match else 'MISMATCH'}")
        payload["observed_degrees"] = [{"order": n, "degree": degree}
                                       for n, degree in enumerate(degrees)]
        for n, degree in enumerate(degrees):
            lines.append(
                f"observed t-degree of f_{n}*(1-mt)^{3 * n - 1}: {degree} "
                f"(within truncation {args.max_height})")

    for row in rows:
        note = f"  necklaces={row.necklaces} match={row.linear_matches_necklaces}" \
            if row.necklaces is not None else ""
        lines.append(
            f"count at {row.alpha}: (q-1)-coeffs {[str(c) for c in row.coeffs_qminus1]} "
            f"constant={row.constant_term} linear={row.linear_term} "
            f"nonnegative={row.all_nonnegative}{note}")

    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for line in lines:
            out.write(line + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out) -> int:
    quiver, theta, mu = _stability(args)
    primes = _int_list("--primes", args.primes)
    # imported here: the oracle needs numpy, which no other subcommand loads
    from .oracle import DEFAULT_MAX_POINTS, check_prime
    from .verify import run_verification

    for i, p in enumerate(primes):
        try:
            check_prime(p)
        except ValueError as exc:
            raise ValueError(f"--primes entry {exc}") from None
        if p in primes[:i]:
            raise ValueError(f"--primes entry {p} is repeated")
    if args.budget is not None and args.budget < 1:
        raise ValueError("--budget must be >= 1")
    ctx = CountingContext.create(quiver, theta, mu, args.max_height)
    report = run_verification(ctx, primes, args.budget or DEFAULT_MAX_POINTS)
    if args.format == "json":
        json.dump(report.to_json(), out, indent=2)
        out.write("\n")
    else:
        for row in report.rows:
            status = "ok" if row.match else ("SKIP" if row.match is None else "FAIL")
            out.write(f"[{status}] {row.quantity} alpha={tuple(row.alpha)} p={row.p} "
                      f"formula={row.formula} oracle={row.oracle}"
                      + (f"  ({row.note})" if row.note else "") + "\n")
        out.write(f"checked {report.n_checked} comparisons, "
                  f"{report.n_skipped} skipped\n")
    if not report.ok:
        for row in report.failures():
            sys.stderr.write(
                f"mismatch: {row.quantity} alpha={tuple(row.alpha)} p={row.p} "
                f"formula={row.formula} oracle={row.oracle}\n")
        return EXIT_MISMATCH
    return EXIT_OK



COMMANDS = {
    "a-series": cmd_a_series,
    "r-series": cmd_r_series,
    "s-count": cmd_s_count,
    "f-expand": cmd_f_expand,
    "verify": cmd_verify,
}


def run(args: argparse.Namespace, out) -> int:
    """Run the subcommand args.command; an invariant violation exits 2."""
    try:
        return COMMANDS[args.command](args, out)
    except (InvariantError, PoleError) as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
