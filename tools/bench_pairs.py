"""Alternating benchmark pairs of a parent checkout and a change, as BENCH_<PR>.json.

Usage, from the repository root, with both checkouts made by ``git
archive`` so that neither holds compiled bytecode::

    git archive PARENT | tar -x -C ../parent
    git archive HEAD | tar -x -C ../change
    python3 tools/bench_pairs.py ../parent ../change --seed 61001 \\
        --pairs scan=10 files=6 duality=6 --claim scan:job_s.p90 \\
        --out BENCH_<PR>.json

For each workload, pair ``i`` (from 1) runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, the parent first
in odd pairs and the change first in even ones; ``T`` is the
``run_seconds`` of the change's ``BENCHMARK.json``.  Every run is a fresh
process with ``PYTHONDONTWRITEBYTECODE=1``, one at a time.  A run that
exits nonzero stops the script.

Each end-to-end metric of the change's ``BENCHMARK.json``, and the
unscaled set-up time of the ``# detail`` line, gets each side's quartiles
(``numpy.percentile`` 25/50/75), the number of pairs the change wins (ties
count for neither side) and every run in pair order.  A declared metric is
within its bound when the change's median is no worse than the parent's
by more than the bound, relative to the parent's median; it is unresolved
when the parent's quartiles lie further apart than that and not every
change run beats every parent run.  The claimed metric, if any, is met
when the change wins at least nine tenths of the pairs and the medians
differ, in its favour, by more than the parent's interquartile range.
A workload where some run is not correct, or where the change fails more
jobs than the parent, meets no claim and fails the bound check.

The output file is rewritten after every workload.  The exit code is 0
when every workload passes the bound check and the claim, if any, is
met; 1 otherwise.  The file's ``change`` description, and any record
made outside this script, are added by hand and named in its ``made_by``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

UNSCALED_SETUP = "unscaled.setup_s"


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its correctness, failed jobs,
    metric values and environment record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")

    def tagged(tag):
        return next(json.loads(ln[len(tag):]) for ln in lines if ln.startswith(tag))

    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values[UNSCALED_SETUP] = tagged("# detail ")["unscaled"]["setup_s"]
    return {"correct": result["correct"], "failed": result["failed"],
            "values": values, "env": tagged("# env ")}


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float) -> tuple:
    """(parent runs, change runs) in pair order, the parent first in odd pairs."""
    runs = {parent: [], change: []}
    for i in range(1, pairs + 1):
        for side in ((parent, change) if i % 2 else (change, parent)):
            runs[side].append(run(side, workload, seed, seconds))
            label = "parent" if side == parent else "change"
            print(f"{workload} pair {i}/{pairs} {label}: "
                  + json.dumps(runs[side][-1]["values"]), file=sys.stderr)
    return runs[parent], runs[change]


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(median), 6),
            "q3": round(float(q3), 6)}


def _sign(better: str) -> int:
    """+1 where lower is better: ``sign * (change - parent) > 0`` is worse."""
    return 1 if better == "lower" else -1


def metric_summary(better: str, parent: list, change: list) -> dict:
    sign = _sign(better)
    return {
        "better": better,
        "parent": _quartiles(parent),
        "change": _quartiles(change),
        "change_better_in_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_runs": parent,
        "change_runs": change,
    }


def bound_status(entry: dict, bound: float) -> str:
    """'within', 'beyond' or 'unresolved' for one metric's summary."""
    sign = _sign(entry["better"])
    parent, change = entry["parent_runs"], entry["change_runs"]
    p = float(np.median(parent))
    if sign * (float(np.median(change)) - p) > bound * abs(p):
        return "beyond"
    q1, q3 = np.percentile(parent, [25, 75])
    clear = max(sign * c for c in change) < min(sign * v for v in parent)
    return "unresolved" if q3 - q1 > bound * abs(p) and not clear else "within"


def gain_met(entry: dict) -> bool:
    """At least 9 wins in 10 pairs, and a median gain beyond the parent's IQR."""
    parent, change = entry["parent_runs"], entry["change_runs"]
    q1, q3 = np.percentile(parent, [25, 75])
    gain = _sign(entry["better"]) * (float(np.median(parent)) - float(np.median(change)))
    return 10 * entry["change_better_in_pairs"] >= 9 * len(parent) and gain > q3 - q1


def voided(summary: dict) -> str:
    """Why a workload's runs count for no claim and fail the bound check,
    or '' when every run is correct and the change fails no more jobs."""
    if not summary["correct"]:
        return "a run is not correct"
    if summary["failed"] > summary["failed_parent"]:
        return (f"the change failed {summary['failed']} jobs against the "
                f"parent's {summary['failed_parent']}")
    return ""


def claim_met(summary: dict, name: str) -> bool:
    return not voided(summary) and gain_met(summary["metrics"][name])


def workload_summary(parent_runs: list, change_runs: list, declared: list) -> dict:
    """One workload's entry of the output file, ``declared`` being the
    ``end_to_end`` list of ``BENCHMARK.json``."""
    better = {m["name"]: m["better"] for m in declared}
    better[UNSCALED_SETUP] = "lower"
    return {
        "pairs": len(parent_runs),
        "correct": all(r["correct"] for r in parent_runs + change_runs),
        "failed_parent": sum(r["failed"] for r in parent_runs),
        "failed": sum(r["failed"] for r in change_runs),
        "metrics": {name: metric_summary(b, [r["values"][name] for r in parent_runs],
                                         [r["values"][name] for r in change_runs])
                    for name, b in better.items()},
    }


def _change_text(name: str, entry: dict) -> str:
    p, c = entry["parent"]["median"], entry["change"]["median"]
    pct = f"{100 * (c - p) / p:+.1f}%" if p else "n/a"
    return (f"{name} {p:.4g} -> {c:.4g} ({pct}, "
            f"{entry['change_better_in_pairs']}/{len(entry['parent_runs'])})")


def claim_text(workload: str, name: str, summary: dict) -> str:
    entry = summary["metrics"][name]
    q1, q3 = entry["parent"]["q1"], entry["parent"]["q3"]
    gap = abs(entry["parent"]["median"] - entry["change"]["median"])
    reason = voided(summary)
    verdict = ("Met" if claim_met(summary, name)
               else f"Not met: {reason}" if reason else "Not met")
    return (f"{workload} {_change_text(name, entry)}, parent quartiles "
            f"{q1:.4g}-{q3:.4g} ({q3 - q1:.3g} apart, against a {gap:.3g} "
            f"median gap). {verdict}.")


def regression_text(workloads: dict, declared: list) -> tuple:
    """(text, every declared metric within its bound and no workload voided)."""
    flagged, void, rows = [], [], []
    for workload, summary in workloads.items():
        metrics = summary["metrics"]
        reason = voided(summary)
        if reason:
            void.append(f"{workload} ({reason})")
        for m in declared:
            status = bound_status(metrics[m["name"]], m["bound"])
            if status != "within":
                flagged.append(f"{workload} {m['name']} {status}")
        rows.append(f"{workload}: " + ", ".join(
            _change_text(name, entry) for name, entry in metrics.items()))
    lead = [f"Beyond or unresolved against its bound: {'; '.join(flagged)}." if flagged
            else "Every end-to-end metric is within its bound."]
    if void:
        lead.append(f"Failed jobs or incorrect runs: {'; '.join(void)}.")
    text = " ".join(lead + [row + ";" for row in rows])[:-1] + "."
    return text, not flagged and not void


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", nargs="+", default=["scan=10", "files=10", "duality=10"],
                   metavar="WORKLOAD=N", help="pairs to run per workload, in order")
    p.add_argument("--claim", metavar="WORKLOAD:METRIC",
                   help="the end-to-end metric the change claims to improve")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs)]
    with open(change / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    if args.claim and args.claim.split(":")[-1] not in [m["name"] for m in declared]:
        p.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")

    out = {
        "command": ("PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload "
                    f"<{'|'.join(w for w, _ in plan)}> --seed {args.seed} "
                    f"--seconds {seconds:g} --trace 0"),
        "seed": args.seed,
        "pairs": ("alternating parent/change order, parent first in odd pairs; "
                  + ", ".join(f"{w} {n}" for w, n in plan)
                  + " pairs; each run a fresh process with PYTHONDONTWRITEBYTECODE=1, "
                  "one run at a time; failed and failed_parent count failed jobs"),
        "quartiles": ("numpy.percentile 25/50/75 over each side's runs; "
                      "unscaled.setup_s is the '# detail' line's unscaled set-up "
                      "time; *_runs list every run in pair order"),
        "workloads": {},
    }
    for workload, pairs in plan:
        parent_runs, change_runs = run_pairs(parent, change, workload, pairs,
                                             args.seed, seconds)
        out.setdefault("environment", change_runs[0]["env"])
        out["workloads"][workload] = workload_summary(parent_runs, change_runs, declared)
        out["no_regression"], ok = regression_text(out["workloads"], declared)
        met, out["claim"] = True, "none"
        if args.claim:
            w, name = args.claim.split(":")
            summary = out["workloads"].get(w)
            met = summary is not None and claim_met(summary, name)
            out["claim"] = claim_text(w, name, summary) if summary else "not yet run"
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(out["claim"])
    print(out["no_regression"])
    return 0 if ok and met else 1


if __name__ == "__main__":
    raise SystemExit(main())
