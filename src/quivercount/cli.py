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
from dataclasses import dataclass
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
from .oracle import DEFAULT_BUDGET, Budget, DivisibilityError
from .qpoly import PoleError, QPoly, format_poly
from .quiver import Quiver, parse_theta
from .series import DimVector, height
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3


@dataclass(frozen=True)
class RunConfig:
    quiver: Quiver
    theta: tuple[int, ...]
    mu: Fraction
    max_height: int
    primes: tuple[int, ...]
    q1_order: int
    output_format: str
    budget: Budget

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        with open(args.quiver, "r", encoding="utf-8") as fh:
            quiver_data = json.load(fh)
        quiver = Quiver.from_json(quiver_data)
        n = quiver.nvertices
        if getattr(args, "theta", None):
            theta = tuple(int(t) for t in args.theta.split(","))
            if len(theta) != n:
                raise ValueError(
                    f"theta has {len(theta)} entries but the quiver has {n} vertices"
                )
        elif "theta" in quiver_data:
            theta = parse_theta(quiver_data, n)
        else:
            theta = (0,) * n
        slope_text = getattr(args, "slope", "0") or "0"
        try:
            mu = Fraction(slope_text)
        except ZeroDivisionError:
            raise ValueError(f"--slope {slope_text} has a zero denominator") from None
        max_height = args.max_height
        if max_height < 1:
            raise ValueError("--max-height must be >= 1")
        primes = tuple(int(p) for p in getattr(args, "primes", "2,3").split(","))
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"--primes entry {p} is not prime")
        q1_order = getattr(args, "q1_order", 2)
        if q1_order < 0:
            raise ValueError("--q1-order must be >= 0")
        budget = DEFAULT_BUDGET
        if getattr(args, "budget", None) is not None:
            if args.budget < 1:
                raise ValueError("--budget must be >= 1")
            budget = Budget(max_points=args.budget)
        return cls(quiver, theta, mu, max_height, primes, q1_order,
                   args.format, budget)

    def context(self) -> CountingContext:
        return CountingContext.create(self.quiver, self.theta, self.mu,
                                      self.max_height)


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


def cmd_a_series(config: RunConfig, out) -> int:
    ctx = config.context()
    table = absolutely_stable_table(ctx)
    if config.output_format == "json":
        json.dump({"quiver": config.quiver.to_json(),
                   "theta": list(config.theta),
                   "slope": str(config.mu),
                   "max_height": config.max_height,
                   "entries": table.to_json()}, out, indent=2)
        out.write("\n")
    elif config.output_format == "latex":
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


def cmd_r_series(config: RunConfig, out) -> int:
    ctx = config.context()
    rows = []
    for alpha in ctx.trunc.vectors():
        if height(alpha) == 0:
            continue
        rows.append((alpha, semistable_ratio(ctx, alpha)))
    if config.output_format == "json":
        json.dump({"quiver": config.quiver.to_json(),
                   "theta": list(config.theta),
                   "slope": str(config.mu),
                   "entries": [{"alpha": list(a), "ratio": rf.to_json()}
                               for a, rf in rows]}, out, indent=2)
        out.write("\n")
    else:
        for alpha, rf in rows:
            if config.output_format == "latex":
                out.write(f"$r({tuple(alpha)}) = {rf.latex()}$\\\\\n")
            else:
                out.write(f"alpha={tuple(alpha)}  semistable/GL = {rf}\n")
    return EXIT_OK


def cmd_s_count(config: RunConfig, end_degree: int, out) -> int:
    ctx = config.context()
    table = absolutely_stable_table(ctx)
    rows = []
    for base in ctx.trunc.vectors():
        if height(base) == 0 or height(base) * end_degree > config.max_height:
            continue
        poly = stable_end_degree_poly(ctx, table, base, end_degree)
        beta = tuple(end_degree * b for b in base)
        rows.append((beta, poly))
    if config.output_format == "json":
        json.dump({"end_degree": end_degree,
                   "entries": [{"alpha": list(b), "poly_q": p.to_json()}
                               for b, p in rows]}, out, indent=2)
        out.write("\n")
    else:
        for beta, poly in rows:
            out.write(f"alpha={beta}  stable classes with end-degree "
                      f"{end_degree}: {poly}\n")
    return EXIT_OK


def cmd_f_expand(config: RunConfig, out) -> int:
    if any(config.theta) or config.mu != 0:
        raise ValueError("f-expand is defined for the zero stability only")
    ctx = config.context()
    layers = residual_q1_expansion(ctx, config.q1_order)
    table = absolutely_stable_table(ctx)
    report = positivity_report(table)
    nvars = config.quiver.nvertices

    payload: dict = {"layers": [], "positivity": report.to_json()}
    lines = []
    for n, layer in enumerate(layers):
        rendered = _format_layer(layer, nvars)
        payload["layers"].append(
            {"order": n,
             "coeffs": [{"alpha": list(a), "value": str(c)}
                        for a, c in sorted(layer.items())]})
        lines.append(f"f_{n} = {rendered}")

    if nvars == 1 and config.q1_order >= 1:
        match, degrees = loop_layer_checks(ctx, layers)
        payload["f1_conjecture_match"] = match
        lines.append(f"f_1 vs C(m,2) t(t-1)/(1-mt)^2 to t^{config.max_height}: "
                     f"{'match' if match else 'MISMATCH'}")
        payload["observed_degrees"] = [{"order": n, "degree": degree}
                                       for n, degree in enumerate(degrees)]
        for n, degree in enumerate(degrees):
            lines.append(
                f"observed t-degree of f_{n}*(1-mt)^{3 * n - 1}: {degree} "
                f"(within truncation {config.max_height})")

    for row in report.rows:
        note = f"  necklaces={row.necklaces} match={row.linear_matches_necklaces}" \
            if row.necklaces is not None else ""
        lines.append(
            f"count at {row.alpha}: (q-1)-coeffs {[str(c) for c in row.coeffs_qminus1]} "
            f"constant={row.constant_term} linear={row.linear_term} "
            f"nonnegative={row.all_nonnegative}{note}")

    if config.output_format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for line in lines:
            out.write(line + "\n")
    return EXIT_OK


def cmd_verify(config: RunConfig, out, tamper: bool = False) -> int:
    ctx = config.context()
    report = run_verification(ctx, config.primes, config.budget, tamper=tamper)
    if config.output_format == "json":
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


def cmd_necklaces(colors: int, max_beads: int, fmt: str, out) -> int:
    if colors < 1 or max_beads < 1:
        raise ValueError("--colors and --max-beads must be >= 1")
    rows = [(d, necklace_count(colors, d)) for d in range(1, max_beads + 1)]
    if fmt == "json":
        json.dump({"colors": colors,
                   "counts": [{"beads": d, "count": c} for d, c in rows]},
                  out, indent=2)
        out.write("\n")
    else:
        for d, c in rows:
            out.write(f"primitive necklaces with {d} beads in {colors} colours: {c}\n")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def _add_common(sub, formats=("text", "json"), with_primes=False, with_q1=False):
    sub.add_argument("--quiver", required=True, help="path to a quiver JSON file")
    sub.add_argument("--theta", default="", help="stability weights, comma separated")
    sub.add_argument("--slope", default="0", help="target slope as P/Q")
    sub.add_argument("--max-height", type=int, default=6, dest="max_height")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--budget", type=int, default=None,
                     help="maximum number of points to enumerate")
    if with_primes:
        sub.add_argument("--primes", default="2,3", help="verification primes, CSV")
    if with_q1:
        sub.add_argument("--q1-order", type=int, default=2, dest="q1_order",
                         help="number of (q-1) expansion layers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description="Exact counting of stable quiver representations over "
                    "finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    with_latex = ("text", "json", "latex")
    _add_common(sub.add_parser("a-series", help="absolutely stable class counts"),
                formats=with_latex)
    _add_common(sub.add_parser("r-series", help="semistable ratio series"),
                formats=with_latex)
    sc = sub.add_parser("s-count", help="stable classes by endomorphism degree")
    _add_common(sc)
    sc.add_argument("--end-degree", type=int, default=2, dest="end_degree")
    fx = sub.add_parser("f-expand", help="(q-1) expansion of the residual series")
    _add_common(fx, with_q1=True)
    vf = sub.add_parser("verify", help="compare formulas against brute force")
    _add_common(vf, with_primes=True)
    vf.add_argument("--corrupt-table", action="store_true",
                    help=argparse.SUPPRESS)
    nk = sub.add_parser("necklaces", help="primitive necklace numbers")
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
    out = sys.stdout
    try:
        if args.command == "necklaces":
            return cmd_necklaces(args.colors, args.max_beads, args.format, out)
        config = RunConfig.from_args(args)
        if args.command == "a-series":
            return cmd_a_series(config, out)
        if args.command == "r-series":
            return cmd_r_series(config, out)
        if args.command == "s-count":
            return cmd_s_count(config, args.end_degree, out)
        if args.command == "f-expand":
            return cmd_f_expand(config, out)
        if args.command == "verify":
            return cmd_verify(config, out, tamper=args.corrupt_table)
        parser.error(f"unknown command {args.command}")
    except (InvariantError, DivisibilityError, PoleError) as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
