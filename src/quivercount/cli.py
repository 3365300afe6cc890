"""Command-line front end.

Subcommands
    a-series    counting polynomials for absolutely stable classes
    r-series    semistable ratio series
    s-count     stable classes by endomorphism-field degree
    f-expand    residual series, its (q-1) expansion and positivity report
    verify      formula values against brute-force finite-field counts
    necklaces   primitive necklace numbers

Exit codes: 0 success, 1 validation/parse error or an input that does not
fit in memory, 2 computation invariant violation, 3 verification mismatch.

The subcommands that count live in `commands`, which is imported only when
one of them runs, so that `necklaces`, `--help` and a usage error load only
this module and `numtheory`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .numtheory import necklace_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3


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


def _count(args: argparse.Namespace, out) -> int:
    """Run a subcommand that counts; the count path loads here."""
    from .commands import run

    return run(args, out)


def _add_common(sub, formats=("text", "json")):
    sub.set_defaults(run=_count)
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
                formats=with_latex)
    _add_common(sub.add_parser("r-series", help="semistable ratio series"),
                formats=with_latex)
    sc = sub.add_parser("s-count", help="stable classes by endomorphism degree")
    _add_common(sc)
    sc.add_argument("--end-degree", type=int, default=2, dest="end_degree")
    fx = sub.add_parser("f-expand", help="(q-1) expansion of the residual series")
    _add_common(fx)
    fx.add_argument("--q1-order", type=int, default=2, dest="q1_order", metavar="N",
                    help="highest (q-1) layer N: prints the N + 1 layers f_0 ... f_N")
    vf = sub.add_parser("verify", help="compare formulas against brute force")
    _add_common(vf)
    vf.add_argument("--primes", default="2,3", help="verification primes, CSV")
    vf.add_argument("--budget", type=int, default=None,
                    help="maximum number of points of a cell's representation space")
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
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (MemoryError, OverflowError):  # a coefficient list, or an int past CPython's size
        sys.stderr.write("error: the input does not fit in memory\n")
        return EXIT_USAGE


if __name__ == "__main__":
    # `python -m quivercount.cli` runs this file as __main__; registering it
    # under its own name lets `commands` import it rather than a second copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
