"""Tests of the benchmark itself, kept out of the tier-1 suite by their name.

    python3 -m pytest -q bench/selftest.py

Run from the repository root.  The smoke runs take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = run.load_spec(ROOT)


def names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


def test_spec_names_the_workloads_in_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert "setup_s" in names("end_to_end")
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_checks_and_reports_every_metric(name):
    line, detail = run.run_workload(ROOT, SPEC, name, 7, 0.0, False, smoke=True)
    assert (line["correct"], line["failed"]) == (True, 0), detail["problems"]
    assert set(line["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())

    line, detail = run.run_workload(ROOT, SPEC, name, 7, 0.0, True, smoke=True)
    assert (line["correct"], line["failed"]) == (True, 0), detail["problems"]
    assert detail["deterministic"] and not detail["missing_hooks"]
    assert set(line["metrics"]) == names("per_layer")
    # The top-level cli.main spans cover the traced wall time after set-up.
    assert abs(detail["unaccounted_s"]) < 0.5


def test_corrupted_digest_makes_error_rate_nonzero():
    line, detail = run.run_workload(ROOT, SPEC, "exact-counts", 7, 0.0, False,
                                    smoke=True, corrupt_digest=True)
    assert not line["correct"]
    assert line["failed"] > 0 and detail["error_rate"] > 0


def test_timed_run_never_loads_the_tracer():
    code = ("import sys, run; from pathlib import Path; "
            "run.run_workload(Path.cwd(), run.load_spec(Path.cwd()), 'exact-counts', 1, "
            "0.0, False, smoke=True); print('tracer' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "bench")))
    assert out.stdout.strip() == "False", out.stderr


def test_gauge_times_the_reference_loop_and_ends_with_the_run():
    with run.Gauge(ROOT) as gauge:
        times = [gauge.measure() for _ in range(2)]
    assert all(0 < t < 10 for t in times)
    assert gauge.proc.returncode == 0


def test_missing_hook_is_reported_not_fatal():
    code = ("import tracer; tracer.HOOKS += (('oracle', '_gone', None),); "
            "t = tracer.Tracer(); t.install(); print(t.missing)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=env)
    assert out.stdout.strip() == "['oracle._gone']", out.stderr
    assert "oracle._gone.s" not in tracer.hooked_stats(["oracle._gone"])


def test_span_stats_self_time_and_recursion():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 3.0, 0], ["b", 1.5, 2.5, 1],
             ["trace.observe", 3.0, 4.0, 0], ["c", 5.0, 9.0, 0]]
    stats = tracer.span_stats(spans)
    assert stats["a.s"] == 10.0 and stats["a.self_s"] == 3.0
    assert stats["b.s"] == 2.0 and stats["b.calls"] == 2
    assert stats["b.self_s"] == 2.0
    assert "trace.observe.s" not in stats


def test_primitive_necklaces():
    assert [workloads.primitive_necklaces(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert workloads.primitive_necklaces(4, 1) == 4


def _smoke_output(name: str, index: int) -> tuple[workloads.Invocation, str]:
    inv = workloads.WORKLOADS[name].smoke[index]
    out = subprocess.run([sys.executable, "-m", "quivercount.cli", *inv.argv], cwd=ROOT,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    assert workloads.sha256(out) == inv.digest
    assert inv.check(inv, out) == []
    return inv, out


@pytest.mark.parametrize("name, index, old, new", [
    ("exact-counts", 0, "linear=20 ", "linear=21 "),
    ("exact-counts", 0, "nonnegative=True", "nonnegative=False"),
    ("exact-counts", 0, ": match", ": MISMATCH"),
    ("exact-counts", 1, "count(q) = q^2 - 1", "count(q) = q^2"),
    ("exact-counts", 2, "count(q) = q + 1", "count(q) = q + 2"),
    ("oracle-verify", 0, "[ok]", "[FAIL]"),
])
def test_independent_checks_catch_wrong_output(name, index, old, new):
    inv, out = _smoke_output(name, index)
    assert old in out
    assert inv.check(inv, out.replace(old, new, 1))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "exact-counts",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.stdout or "x")
