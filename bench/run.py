"""quivercount benchmark: fixed CLI workloads, end-to-end timings, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--corrupt-digest]
    python3 bench/run.py --list-metrics

Run from the repository root.  One client runs a closed loop: one
``python -m quivercount.cli`` child process at a time, each started after the
previous one exited, all on one CPU.  With ``--trace 0`` the run alternates
jobs (all of a workload's invocations, in sequence) with set-up invocations
until the next round would pass ``--seconds``, fills the rest with set-up
invocations, and reports medians of the end-to-end metrics.  Every job and
set-up invocation sits between two runs of a fixed reference loop
(``gauge.py``), and its times are scaled to a host of fixed speed, because
the shared host's speed drifts by up to 2x over minutes.  With ``--trace 1``
it runs one untraced job and two traced jobs, in which each invocation calls
``quivercount.cli.main`` in-process under the outside-in tracer, and reports
the per-layer metrics.  Every output is checked; the seed only orders the
jobs, set-up invocations and the invocations of a job.  The last line of
stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SETUP_ARGV, WORKLOADS, Invocation, Workload, check_setup, sha256

BENCH_DIR = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0     # every run ends well inside 180 s
SETUPS_PER_ROUND = 1     # set-up invocations per job in a timed run
SETUPS_IN_TRACE = 5
TRACED_JOBS = 2          # exact counters must repeat across these
# Scaled times are seconds on a host where one reference loop (gauge.py)
# takes REF_SECONDS, about its time on an idle 2-vCPU Xeon VM.
REF_SECONDS = 0.15


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    record: dict = field(default_factory=dict)


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    records: list[dict]


class Runner:
    """Starts child processes one at a time, checks and counts them."""

    def __init__(self, root: Path, deadline: float, corrupt_digest: bool = False):
        self.root = root
        self.deadline = deadline
        self.corrupt_digest = corrupt_digest
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def _spawn(self, argv: list[str]) -> tuple[int, str, str, Outcome]:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(max(self.time_left(), 0.0), proc.kill)
        killer.start()
        err: list[str] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        return proc.returncode, out, "".join(err), outcome

    def _count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    def setup(self) -> Outcome:
        code, out, err, outcome = self._spawn(
            [sys.executable, "-m", "quivercount.cli", *SETUP_ARGV])
        problems = [f"exit code {code}: {err.strip()[-300:]}"] if code else []
        self._count("setup", problems + check_setup(out))
        return outcome

    def invoke(self, inv: Invocation, traced: bool = False) -> Outcome:
        script = [str(BENCH_DIR / "traced_cli.py")] if traced else ["-m", "quivercount.cli"]
        code, out, err, outcome = self._spawn([sys.executable, *script, *inv.argv])
        if traced and code == 0:
            try:
                outcome.record = json.loads(out.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                code = -1
            else:
                code, out = outcome.record["exit_code"], outcome.record["stdout"]
        problems = [f"exit code {code}: {err.strip()[-300:]}"] if code else []
        digest = "0" * 64 if self.corrupt_digest else inv.digest
        if sha256(out) != digest:
            problems.append(f"stdout sha256 {sha256(out)} is not {digest}")
        if not code:
            problems += inv.check(inv, out)
        self._count(" ".join(inv.argv), problems)
        outcome.record["stdout_bytes"] = len(out.encode("utf-8"))
        return outcome

    def job(self, invocations: list[Invocation], traced: bool = False) -> Job:
        outs = [self.invoke(inv, traced) for inv in invocations]
        return Job(sum(o.wall for o in outs), sum(o.cpu for o in outs),
                   max(o.rss_mb for o in outs), [o.record for o in outs])


class Gauge:
    """``gauge.py`` in a helper process: times the reference loop on request."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "gauge.py")],
                                     cwd=root, text=True, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> "Gauge":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # end of input ends the helper
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- the two kinds of run ----------------------------------------------------------


def timed_run(runner: Runner, workload: Workload, rng: random.Random,
              seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Rounds of one job and set-up invocations in seeded order, each step
    followed by a reference loop; medians of the scaled times."""
    with Gauge(runner.root) as gauge:
        return _timed_rounds(runner, gauge, workload, rng, seconds, smoke)


def _timed_rounds(runner: Runner, gauge: Gauge, workload: Workload, rng: random.Random,
                  seconds: float, smoke: bool) -> tuple[dict, dict]:
    invocations = list(workload.smoke if smoke else workload.full)
    runner.setup()  # untimed: the first start in a checkout compiles bytecode
    refs = [gauge.measure()]
    end = time.perf_counter() + seconds
    # (sample, scale): scale turns the sample's seconds into seconds on a host
    # where the reference loops just before and after it take REF_SECONDS.
    setups: list[tuple[Outcome, float]] = []
    jobs: list[tuple[Job, float]] = []

    def measured(sample):
        refs.append(gauge.measure())
        return sample, 2 * REF_SECONDS / (refs[-2] + refs[-1])

    def median_wall(samples) -> float:
        return statistics.median(sample.wall for sample, _ in samples)

    while runner.time_left() > 0:
        if jobs:
            predicted = (median_wall(jobs) + SETUPS_PER_ROUND * median_wall(setups)
                         + (1 + SETUPS_PER_ROUND) * statistics.median(refs))
            if time.perf_counter() + predicted > end:
                break
        steps = ["job"] + ["setup"] * SETUPS_PER_ROUND
        rng.shuffle(steps)
        for step in steps:
            if step == "job":
                jobs.append(measured(runner.job(rng.sample(invocations, len(invocations)))))
            else:
                setups.append(measured(runner.setup()))
    # The time too short for another job goes to more set-up samples.
    while (time.perf_counter() + median_wall(setups) + statistics.median(refs) < end
           and runner.time_left() > 0):
        setups.append(measured(runner.setup()))
    metrics = {
        "wall_s": statistics.median(job.wall * scale for job, scale in jobs),
        "cpu_s": statistics.median(job.cpu * scale for job, scale in jobs),
        "peak_rss_mb": statistics.median(job.rss_mb for job, _ in jobs),
        "setup_s": statistics.median(setup.wall * scale for setup, scale in setups),
    }
    detail = {"jobs": len(jobs), "setups": len(setups),
              "cpus": sorted(os.sched_getaffinity(0)),
              "ref_s_samples": refs,
              "raw_wall_s": median_wall(jobs),
              "raw_setup_s": median_wall(setups),
              "wall_s_samples": [job.wall for job, _ in jobs],
              "cpu_s_samples": [job.cpu for job, _ in jobs],
              "job_scales": [scale for _, scale in jobs],
              "setup_s_samples": [setup.wall for setup, _ in setups],
              "setup_scales": [scale for _, scale in setups]}
    return metrics, detail


def _layer_values(job: Job) -> tuple[dict, dict, list[str]]:
    """Span statistics and exact counters of one traced job, and missing hooks."""
    import tracer

    missing = sorted({m for r in job.records for m in r.get("missing", [])})
    times: dict[str, float] = dict.fromkeys(tracer.hooked_stats(missing), 0.0)
    counts: dict[str, int] = {name: 0 for name, hook in tracer.COUNTERS.items()
                              if hook not in missing}
    for record in job.records:
        for name, value in tracer.span_stats(record.get("spans", [])).items():
            times[name] = times.get(name, 0.0) + value
        for name, value in record.get("counters", {}).items():
            merge = max if ".max_" in name else int.__add__
            counts[name] = merge(counts.get(name, 0), value)
        counts["cli.stdout_bytes"] = counts.get("cli.stdout_bytes", 0) + record["stdout_bytes"]
    for name in [n for n in times if n.endswith(".calls")]:
        counts[name] = int(times.pop(name))
    return times, counts, missing


def trace_run(runner: Runner, workload: Workload, rng: random.Random,
              smoke: bool) -> tuple[dict, dict]:
    """One untraced and two traced jobs; per-layer metrics from the spans."""
    invocations = list(workload.smoke if smoke else workload.full)
    runner.setup()
    setup_s = statistics.median(runner.setup().wall for _ in range(SETUPS_IN_TRACE))
    plan = [False] + [True] * TRACED_JOBS
    rng.shuffle(plan)
    plain, traced = [], []
    for is_traced in plan:
        job = runner.job(rng.sample(invocations, len(invocations)), traced=is_traced)
        (traced if is_traced else plain).append(job)

    layers = [_layer_values(job) for job in traced]
    missing = layers[0][2]
    if missing:
        print(f"warning: hook targets not found: {', '.join(missing)}", file=sys.stderr)
    counts = layers[0][1]
    deterministic = all(counts == other[1] for other in layers[1:])
    if not deterministic:
        differ = sorted(k for k in counts if any(counts[k] != o[1].get(k) for o in layers))
        runner.problems.append(f"exact counters differ between traced runs: {differ}")
    metrics: dict[str, float] = dict(counts)
    for name in layers[0][0]:
        metrics[name] = statistics.median(layer[0][name] for layer in layers)
    if "cli.main.self_s" in metrics:
        metrics["cli.self_s"] = metrics["cli.main.self_s"]
    if "oracle.points" in counts and "oracle.ranked" in counts:
        points = counts["oracle.points"]
        metrics["oracle.stable_share"] = counts["oracle.ranked"] / points if points else 0.0
    traced_wall = statistics.median(job.wall for job in traced)
    metrics["trace.overhead_s"] = traced_wall - plain[0].wall
    detail = {
        "setup_s": setup_s,
        "plain_wall_s": plain[0].wall,
        "traced_wall_s": [job.wall for job in traced],
        "spans": sum(len(r.get("spans", [])) for r in traced[0].records),
        # Traced wall not covered by set-up and the top-level cli.main spans.
        "unaccounted_s": traced_wall - len(invocations) * setup_s
        - metrics.get("cli.main.s", 0.0),
        "deterministic": deterministic,
        "missing_hooks": missing,
    }
    return metrics, detail


# -- reporting -------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu}


def load_average() -> list[float]:
    load = list(os.getloadavg())
    if load[0] > (os.cpu_count() or 1):
        print(f"warning: load average {load[0]:.2f} exceeds {os.cpu_count()} CPUs",
              file=sys.stderr)
    return load


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result(runner: Runner, values: dict, spec: list[dict], correct: bool) -> dict:
    metrics = {}
    for metric in spec:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
        else:
            print(f"warning: metric {metric['name']} is absent", file=sys.stderr)
    return {"correct": correct and runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool = False, corrupt_digest: bool = False
                 ) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and its detail record."""
    runner = Runner(root, time.perf_counter() + HARD_LIMIT_S, corrupt_digest)
    rng = random.Random(seed)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "env": environment(), "load_before": load_average()}
    if trace:
        values, extra = trace_run(runner, WORKLOADS[name], rng, smoke)
        correct = extra["deterministic"]
    else:
        values, extra = timed_run(runner, WORKLOADS[name], rng, seconds, smoke)
        correct = True
    detail.update(extra, load_after=load_average(), problems=runner.problems,
                  error_rate=runner.failed / runner.attempted)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return result(runner, values, metrics, correct), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of a timed run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny heights, timed and traced")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="expect a wrong digest, so every check fails")
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    # One CPU for this process and, by inheritance, every child: the reference
    # loops then gauge the speed of the core the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (root / "src" / "quivercount" / "cli.py").is_file():
        print(f"error: no quivercount sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.list_metrics:
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                print(f"{section:10}  {metric['name']:42} {metric['unit']:6} "
                      f"{metric['better']:6} {metric.get('bound', '')}")
        return 0
    if args.smoke:
        return smoke(root, spec, args.seed, args.corrupt_digest)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    line, detail = run_workload(root, spec, args.workload, args.seed, seconds,
                                bool(args.trace))
    print("detail " + json.dumps(detail))
    print(json.dumps(line))
    return 0


def smoke(root: Path, spec: dict, seed: int, corrupt_digest: bool) -> int:
    """Each workload at tiny heights: one timed job and one traced run."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    names = sorted(WORKLOADS)
    random.Random(seed).shuffle(names)
    for name in names:
        for trace in (False, True):
            line, detail = run_workload(root, spec, name, seed, 0.0, trace, smoke=True,
                                        corrupt_digest=corrupt_digest)
            print(f"{name} trace={int(trace)} " + json.dumps(line))
            for problem in detail["problems"]:
                print(f"  problem: {problem}")
            correct &= line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
            metrics.update({f"{name}/{k}": v for k, v in line["metrics"].items()
                            if not trace})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
