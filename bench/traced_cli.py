"""Run one quivercount CLI invocation in-process under the tracer.

    PYTHONPATH=src python3 bench/traced_cli.py <quivercount arguments...>

Run from the repository root.  The tracer is installed before
``quivercount.cli.main(argv)`` is called; the CLI's stdout is captured, and
one JSON object goes to stdout at the end: the exit code, the captured
output, the spans, the counters and any hook targets that were missing.
"""

from __future__ import annotations

import io
import json
import sys

from quivercount import cli
from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
    json.dump({"exit_code": code, "stdout": captured.getvalue(), **tracer.record()},
              real_stdout)
    real_stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
