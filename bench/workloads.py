"""The benchmark's workloads: fixed CLI invocations and their output checks.

Every invocation must exit 0 and print exactly the bytes recorded here as a
sha256 digest; the outputs are exact, so any change is a bug.  On top of the
digest, each workload has checks computed here, without the program.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Callable

# The invocation that does no work; its wall time is ``setup_s``.
SETUP_ARGV = ("necklaces", "--colors", "1", "--max-beads", "1")
SETUP_OUTPUT = "primitive necklaces with 1 beads in 1 colours: 1\n"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    digest: str
    check: Callable[["Invocation", str], list[str]]
    expect: dict = field(default_factory=dict)

    @property
    def height(self) -> int:
        return int(self.argv[self.argv.index("--max-height") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    full: tuple[Invocation, ...]
    smoke: tuple[Invocation, ...]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_setup(stdout: str) -> list[str]:
    return [] if stdout == SETUP_OUTPUT else [f"setup printed {stdout!r}"]


# -- independent checks --------------------------------------------------------


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def primitive_necklaces(colors: int, beads: int) -> int:
    """(1/n) sum_{d | n} mu(d) colors^(n/d)."""
    total = sum(_mobius(d) * colors ** (beads // d)
                for d in range(1, beads + 1) if beads % d == 0)
    return total // beads


_COUNT_LINE = re.compile(
    r"^count at \((\d+),\): .* linear=(-?\d+) nonnegative=(True|False)")


def check_loop_fexpand(inv: Invocation, out: str) -> list[str]:
    """Linear (q-1) terms are primitive necklace numbers, all coefficients
    are nonnegative, and the f_1 closed form matches."""
    loops, height = inv.expect["loops"], inv.height
    problems = []
    rows = [_COUNT_LINE.match(line) for line in out.splitlines()
            if line.startswith("count at ")]
    if [int(m.group(1)) if m else None for m in rows] != list(range(1, height + 1)):
        problems.append(f"expected count rows for heights 1..{height}")
    for m in filter(None, rows):
        n, linear = int(m.group(1)), int(m.group(2))
        if linear != primitive_necklaces(loops, n):
            problems.append(f"linear term at ({n},) is {linear}, "
                            f"not {primitive_necklaces(loops, n)}")
        if m.group(3) != "True":
            problems.append(f"negative (q-1) coefficient at ({n},)")
    if f"to t^{height}: match" not in out:
        problems.append("f_1 closed form does not match")
    return problems


_ALPHA_LINE = re.compile(r"^alpha=\(([\d, ]+)\)  count\(q\) = (.*?)  \|")


def _counts(out: str) -> dict[tuple[int, ...], str]:
    rows = {}
    for line in out.splitlines():
        m = _ALPHA_LINE.match(line)
        if m:
            rows[tuple(int(x) for x in m.group(1).split(","))] = m.group(2)
    return rows


def check_slope_cone(inv: Invocation, out: str) -> list[str]:
    """Kronecker quiver on the slope-1/2 cone: the regular family gives
    a(1,1) = q + 1 and a(k,k) = 0 for k >= 2."""
    want = {(k, k): "q + 1" if k == 1 else "0" for k in range(1, inv.height // 2 + 1)}
    got = _counts(out)
    return [] if got == want else [f"Kronecker slope-cone counts {got} differ from {want}"]


def check_cyclic_table(inv: Invocation, out: str) -> list[str]:
    """One row per dimension vector, integer polynomials, and the counts
    a(1,0) = a(0,1) = 1 and a(1,1) = q^2 - 1 of simple representations."""
    height = inv.height
    got = _counts(out)
    problems = []
    if len(got) != height * (height + 3) // 2:
        problems.append(f"{len(got)} rows for height {height}")
    for alpha, want in (((1, 0), "1"), ((0, 1), "1"), ((1, 1), "q^2 - 1")):
        if got.get(alpha) != want:
            problems.append(f"a{alpha} = {got.get(alpha)}, expected {want}")
    if any("/" in poly for poly in got.values()):
        problems.append("a count has a non-integer coefficient")
    return problems


_VERIFY_LINE = re.compile(r"^\[(ok|SKIP|FAIL)\] ")


def check_oracle_verify(inv: Invocation, out: str) -> list[str]:
    """No failed comparison, and as many checked and skipped as recorded."""
    lines = out.splitlines()
    status = [m.group(1) for m in map(_VERIFY_LINE.match, lines) if m]
    checked, skipped = inv.expect["checked"], inv.expect["skipped"]
    problems = []
    if "FAIL" in status:
        problems.append(f"{status.count('FAIL')} oracle comparisons failed")
    if (status.count("ok"), status.count("SKIP")) != (checked, skipped):
        problems.append(f"{status.count('ok')} ok / {status.count('SKIP')} skipped rows, "
                        f"expected {checked} / {skipped}")
    if not lines or lines[-1] != f"checked {checked} comparisons, {skipped} skipped":
        problems.append(f"summary line is {lines[-1] if lines else None!r}")
    return problems


# -- the workloads ---------------------------------------------------------------

CYCLIC = "bench/quivers/cyclic.json"


def _fexpand(height: int, digest: str) -> Invocation:
    return Invocation(("f-expand", "--quiver", "quivers/loop4.json",
                       "--max-height", str(height), "--q1-order", "1"),
                      digest, check_loop_fexpand, {"loops": 4})


def _cyclic(height: int, digest: str) -> Invocation:
    return Invocation(("a-series", "--quiver", CYCLIC, "--max-height", str(height)),
                      digest, check_cyclic_table)


def _slope(height: int, digest: str) -> Invocation:
    return Invocation(("a-series", "--quiver", "quivers/kronecker.json",
                       "--theta", "1,0", "--slope", "1/2", "--max-height", str(height)),
                      digest, check_slope_cone)


def _verify(quiver: str, height: int, digest: str, checked: int,
            skipped: int) -> Invocation:
    return Invocation(("verify", "--quiver", quiver, "--max-height", str(height),
                       "--primes", "2,3"),
                      digest, check_oracle_verify,
                      {"checked": checked, "skipped": skipped})


WORKLOADS = {w.name: w for w in (
    # One workload for the exact side: on a shared 2-vCPU host, fewer and
    # longer runs are steadier than one workload per exact subcommand.
    Workload(
        "exact-counts",
        full=(_fexpand(7, "3f46dfac3028d5f779d170e62d724aa1cce58976429db000b3212c0131779262"),
              _cyclic(7, "9abec3e756582467f628ea6b1bc6925b8f3e45c19562e486de8422065138cc4f"),
              _slope(14, "91d5b41b5f645df2295087450634019f0c3a7d95e70fea8b9e3d797a18b3c466")),
        smoke=(_fexpand(3, "1e6654ef38288a04f52f963f978334334020e80c3fc2ebaa53e44811905c513d"),
               _cyclic(3, "5a5622d25cf3ee2c7d45ab854762c3315e19e5187e8b0c6900ddbecb42b596e8"),
               _slope(4, "1dd539b4b12c2d7c7053e8a851878175f6930743626a06864a06b9e4ef824f29"))),
    Workload(
        "oracle-verify",
        full=(_verify("quivers/loop2.json", 3,
                      "5967f60439bb4e206a01dcef6219ca7486167d987238b57fdb26042ea5cf2083", 18, 4),
              _verify("quivers/loop1.json", 3,
                      "5f5af12d718a3d38d4fea4b92f524c1429061223cbf483d9c17c039a37da5bad", 22, 0)),
        smoke=(_verify("quivers/loop2.json", 2,
                       "ecba0c11e7bf5a23d3bd8f330311100b60e8ac394ba15fd8995cee48edac5690", 14, 0),
               _verify("quivers/loop1.json", 2,
                       "6fba234a60b6a13dca040477b8a8fbf1d9f4678d451d015ca474b4c9f961079f", 14, 0))),
)}
