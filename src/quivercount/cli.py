"""Command-line front end.

Subcommands
    a-series    counting polynomials for absolutely stable classes
    r-series    semistable ratio series
    s-count     stable classes by endomorphism-field degree
    f-expand    residual series, its (q-1) expansion and positivity report
    verify      formula values against brute-force finite-field counts
    necklaces   primitive necklace numbers

Exit codes: 0 success, 1 validation/parse error, 2 computation invariant
violation, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .counting import (
    CountingContext,
    InvariantError,
    absolutely_stable_table,
    loop_layer_checks,
    necklace_count,
    positivity_report,
    residual_q1_expansion,
    semistable_ratio,
    stable_end_degree_poly,
)
from .numtheory import is_prime
from .qpoly import PoleError, QPoly, format_poly
from .quiver import Quiver, parse_theta
from .series import DimVector, height

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3

# the oracle holds digits and eliminations in at most int64
_PRIME_LIMIT = 1 << 63


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


def _var_names(nvars: int) -> list[str]:
    if nvars == 1:
        return ["t"]
    return [f"x{i + 1}" for i in range(nvars)]


def _format_monomial(alpha: DimVector, names: Sequence[str]) -> str:
    parts = []
    for a, name in zip(alpha, names):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{name}^{a}")
    return "*".join(parts)


def _format_layer(layer: dict[DimVector, Fraction], nvars: int) -> str:
    if not layer:
        return "0"
    names = _var_names(nvars)
    parts = []
    for alpha in sorted(layer, key=lambda a: (height(a), a)):
        c = layer[alpha]
        mono = _format_monomial(alpha, names)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}" if nvars == 1 else f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _qminus1_str(poly: QPoly) -> str:
    return format_poly(poly.qminus1_coeffs(), "(q-1)")


# -- subcommands -------------------------------------------------------------


def cmd_a_series(args: argparse.Namespace, out) -> int:
    ctx = _context(args)
    table = absolutely_stable_table(ctx)
    if args.format == "json":
        json.dump({"quiver": ctx.quiver.to_json(),
                   "theta": list(ctx.theta),
                   "slope": str(ctx.mu),
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
                f"${format_poly(poly.qminus1_coeffs(), '(q-1)', latex=True)}$\\\\\n"
            )
        out.write("\\end{tabular}\n")
    else:
        for alpha, poly in table.sorted_items():
            out.write(f"alpha={alpha}  count(q) = {poly}  "
                      f"|  in q-1: {_qminus1_str(poly)}\n")
    return EXIT_OK


def cmd_r_series(args: argparse.Namespace, out) -> int:
    ctx = _context(args)
    rows = []
    for alpha in ctx.trunc.vectors():
        if height(alpha) == 0:
            continue
        rows.append((alpha, semistable_ratio(ctx, alpha)))
    if args.format == "json":
        json.dump({"quiver": ctx.quiver.to_json(),
                   "theta": list(ctx.theta),
                   "slope": str(ctx.mu),
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
    ctx = _context(args)
    table = absolutely_stable_table(ctx)
    end_degree, max_height = args.end_degree, args.max_height
    rows = []
    for base in ctx.trunc.vectors():
        if height(base) == 0 or height(base) * end_degree > max_height:
            continue
        poly = stable_end_degree_poly(ctx, table, base, end_degree)
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
    report = positivity_report(table)
    nvars = quiver.nvertices

    payload: dict = {"layers": [], "positivity": report.to_json()}
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

    for row in report.rows:
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
    for i, p in enumerate(primes):
        if not is_prime(p):
            raise ValueError(f"--primes entry {p} is not prime")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"--primes entry {p} is not below 2^63, the oracle's "
                             f"integer limit")
        if p in primes[:i]:
            raise ValueError(f"--primes entry {p} is repeated")
    if args.budget is not None and args.budget < 1:
        raise ValueError("--budget must be >= 1")
    ctx = CountingContext.create(quiver, theta, mu, args.max_height)
    # imported here: the oracle needs numpy, which no other subcommand loads
    from .oracle import DEFAULT_MAX_POINTS
    from .verify import run_verification

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


def cmd_necklaces(args: argparse.Namespace, out) -> int:
    colors, max_beads = args.colors, args.max_beads
    if colors < 1 or max_beads < 1:
        raise ValueError("--colors and --max-beads must be >= 1")
    rows = [(d, necklace_count(colors, d)) for d in range(1, max_beads + 1)]
    if args.format == "json":
        json.dump({"colors": colors,
                   "counts": [{"beads": d, "count": c} for d, c in rows]},
                  out, indent=2)
        out.write("\n")
    else:
        for d, c in rows:
            out.write(f"primitive necklaces with {d} beads in {colors} colours: {c}\n")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def _add_common(sub, run, formats=("text", "json")):
    sub.set_defaults(run=run)
    sub.add_argument("--quiver", required=True, help="path to a quiver JSON file")
    sub.add_argument("--theta", default="", help="stability weights, comma separated")
    sub.add_argument("--slope", default="0", help="target slope as P/Q")
    sub.add_argument("--max-height", type=int, default=6, dest="max_height")
    sub.add_argument("--format", choices=formats, default="text")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, as every other usage error
    is reported; subparsers are made of the same class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quivercount",
        description="Exact counting of stable quiver representations over "
                    "finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    with_latex = ("text", "json", "latex")
    _add_common(sub.add_parser("a-series", help="absolutely stable class counts"),
                cmd_a_series, formats=with_latex)
    _add_common(sub.add_parser("r-series", help="semistable ratio series"),
                cmd_r_series, formats=with_latex)
    sc = sub.add_parser("s-count", help="stable classes by endomorphism degree")
    _add_common(sc, cmd_s_count)
    sc.add_argument("--end-degree", type=int, default=2, dest="end_degree")
    fx = sub.add_parser("f-expand", help="(q-1) expansion of the residual series")
    _add_common(fx, cmd_f_expand)
    fx.add_argument("--q1-order", type=int, default=2, dest="q1_order",
                    help="number of (q-1) expansion layers")
    vf = sub.add_parser("verify", help="compare formulas against brute force")
    _add_common(vf, cmd_verify)
    vf.add_argument("--primes", default="2,3", help="verification primes, CSV")
    vf.add_argument("--budget", type=int, default=None,
                    help="maximum number of points the oracle may enumerate")
    nk = sub.add_parser("necklaces", help="primitive necklace numbers")
    nk.set_defaults(run=cmd_necklaces)
    nk.add_argument("--colors", type=int, required=True)
    nk.add_argument("--max-beads", type=int, default=6, dest="max_beads")
    nk.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args, sys.stdout)
    except (InvariantError, PoleError) as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
