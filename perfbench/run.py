"""almostconv benchmark: closed-loop CLI job streams with one client.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Each workload is a seeded cycle of distinct jobs (see ``workloads.py``).
Jobs go one after another into ``almostconv.cli.main(argv)`` in this
process; the next job is sent when the previous one returns.  A first,
untimed cycle warms caches and records each job's output bytes; the
timed cycles follow, as many whole cycles as fit in ``--seconds`` but at
least enough for 100 jobs.  Every execution is checked by the oracle
(``oracle.py``).  Time metrics are scaled by a reference kernel timed
before every job, because the host's speed drifts (``reference.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines starting with ``#`` before it carry the environment record and the
run's job counts.  ``--all`` runs every workload in a fresh process and
prints a table.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import envinfo
import reference
import tracer
from oracle import Oracle
from workloads import WORKLOADS, build_jobs, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_TIMED_JOBS = 100     # so job_s.p90 has at least 10 samples beyond it
WALL_CAP_S = 120.0       # start no further cycle after this much run time
SETUP_SAMPLES = 9

# Fresh-process set-up: from just before ``import almostconv`` until the
# CLI parser exists.  Interpreter start-up is outside the timed region.
# The process then times the reference kernel, warm, to scale its sample.
_SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import almostconv\n"
    "from almostconv import cli\n"
    "cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "import reference\n"
    "reference.kernel_s()\n"
    "print(repr(t1 - t0), repr(reference.kernel_s()))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> tuple:
    """(scaled, raw) median set-up seconds over fresh processes, after one
    untimed start that may compile bytecode."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        if i > 0:
            setup_s, kernel_s = map(float, done.stdout.split())
            raw.append(setup_s)
            scaled.append(setup_s * reference.ref_s() / kernel_s)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Sends jobs one at a time and checks each one's outputs."""

    def __init__(self, cli, jobs, work_dir: str, kernel=("text",)):
        self.cli = cli
        self.jobs = jobs
        self.kernel = kernel  # reference kernel parts, see reference.py
        self.inputs = os.path.join(work_dir, "inputs")
        self.outputs = os.path.join(work_dir, "out")
        self.oracle = Oracle()
        self.tracer = None
        self.kernel_s = []  # reference kernel time before each job
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.failures = []

    def run_job(self, job) -> float:
        out_dir = os.path.join(self.outputs, job.key)
        os.makedirs(out_dir)
        in_path = os.path.join(self.inputs, job.input_name or "")
        argv = [a.replace("{in}", in_path).replace("{out}", out_dir)
                for a in job.argv]
        if self.tracer is not None:
            self.tracer.job = job.key
        self.kernel_s.append(reference.kernel_s(self.kernel))
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is this job's failure, not the run's
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        outcome = self.oracle.check(job, rc, out_dir)
        shutil.rmtree(out_dir)
        self.attempted += 1
        self.inconclusive += int(outcome.inconclusive)
        if outcome.failed:
            self.failed += 1
            self.failures.append(f"{job.key}: {'; '.join(outcome.reasons)}")
        return elapsed

    def cycle(self, jobs=None) -> list:
        return [self.run_job(job) for job in (jobs or self.jobs)]


def largest_per_command(jobs) -> list:
    """The jobs of each CLI command at that command's largest size.

    The allocation peaks are maxima over spans, so these jobs set them, and
    ``tracemalloc`` slows the string-heavy CSV jobs about sevenfold.
    """
    top = {}
    for job in jobs:
        top[job.argv[0]] = max(top.get(job.argv[0], 0), job.size)
    return [job for job in jobs if job.size == top[job.argv[0]]]


def timed_cycles(runner: Runner, seconds: float) -> list:
    """Job latencies of each whole cycle that is predicted to fit in
    ``seconds``; at least enough cycles for ``MIN_TIMED_JOBS`` jobs."""
    min_cycles = math.ceil(MIN_TIMED_JOBS / len(runner.jobs))
    cycles = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycles.append(runner.cycle())
        now = time.perf_counter()
        last, elapsed = now - t0, now - start
        if len(cycles) >= min_cycles and (elapsed + last > seconds
                                          or elapsed > WALL_CAP_S):
            return cycles


def _latency_metrics(cycles) -> dict:
    latencies = [t for cycle in cycles for t in cycle]
    return {
        "job_s.p50": statistics.median(latencies),
        "job_s.p90": statistics.quantiles(latencies, n=10)[-1],
        # every cycle is the same job mix: its busy-time throughput is one
        # sample, and the median over cycles discounts a cycle that met
        # a slow spell of the machine
        "jobs_per_s": statistics.median(len(c) / sum(c) for c in cycles),
    }


def end_to_end(runner: Runner, seconds: float, setup: tuple) -> tuple:
    runner.cycle()  # warm-up; records first output digests
    first = len(runner.kernel_s)
    cycles = timed_cycles(runner, seconds)
    kernel_s = iter(runner.kernel_s[first:])
    # each job in seconds of the reference machine, at the speed the host
    # had just before the job (see reference.py)
    ref_s = reference.ref_s(runner.kernel)
    scaled = [[t * ref_s / next(kernel_s) for t in cycle]
              for cycle in cycles]
    attempted = runner.attempted
    metrics = {
        "setup_s": setup[0],
        **_latency_metrics(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1 - runner.failed / attempted,
        "conclusive_ratio": 1 - runner.inconclusive / attempted,
    }
    raw = {"setup_s": setup[1], **_latency_metrics(cycles)}
    return metrics, {"timed_cycles": len(cycles),
                     "timed_jobs": sum(len(c) for c in cycles),
                     "kernel_ms": 1e3 * statistics.median(runner.kernel_s[first:]),
                     "unscaled": raw}


def per_layer(runner: Runner, seconds: float) -> tuple:
    runner.cycle()  # warm-up; records first output digests
    spans = tracer.Tracer()
    plain_s = traced_s = 0.0
    pairs = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # alternate which side of the pair runs first, so drift in the
        # machine's speed does not land on one side
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                runner.tracer = spans
                with spans:
                    traced_s += sum(runner.cycle())
                runner.tracer = None
            else:
                plain_s += sum(runner.cycle())
        pairs += 1
        now = time.perf_counter()
        if now - start + (now - t0) > min(seconds, WALL_CAP_S):
            break
    alloc = tracer.Tracer(alloc=True)
    runner.tracer = alloc
    with alloc:
        runner.cycle(largest_per_command(runner.jobs))
    runner.tracer = None
    metrics = tracer.layer_metrics(spans.spans, alloc.peaks, pairs)
    metrics["trace.overhead_s"] = (traced_s - plain_s) / pairs
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return metrics, {"trace_pairs": pairs}


def run_workload(args) -> int:
    if not (SRC / "almostconv" / "cli.py").is_file():
        print(f"error: no almostconv sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup() if not args.trace else None
    sys.path.insert(0, str(SRC))
    from almostconv import cli

    jobs = build_jobs(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        env = envinfo.collect(work_dir)
        write_inputs(jobs, os.path.join(work_dir, "inputs"))
        runner = Runner(cli, jobs, work_dir,
                        reference.WORKLOAD_KERNELS[args.workload])
        if args.trace:
            metrics, counts = per_layer(runner, args.seconds)
        else:
            metrics, counts = end_to_end(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "distinct_jobs": len(jobs), **counts,
              "attempted": runner.attempted, "failed": runner.failed,
              "inconclusive": runner.inconclusive,
              "fail_ratio": runner.failed / runner.attempted,
              "inconclusive_ratio": runner.inconclusive / runner.attempted,
              "failures": runner.failures[:10]}
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print("# env " + json.dumps(env, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one table of every metric."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = next(json.loads(ln[len("# detail "):]) for ln in lines
                      if ln.startswith("# detail "))
        env = next(ln for ln in lines if ln.startswith("# env "))
        print(f"== {workload}: attempted {result['attempted']} jobs "
              f"({detail['distinct_jobs']} distinct), "
              f"timed {detail.get('timed_jobs', '-')}, "
              f"failed {result['failed']}, correct {result['correct']}")
        print(env)
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        for name in ("fail_ratio", "inconclusive_ratio"):
            print(f"  {name:32s} {detail[name]:>16.6g} ratio")
        for failure in detail["failures"]:
            print(f"  FAIL {failure}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
