"""Per-job correctness oracle.

A job fails when any of these holds:

- its exit code is not the expected one;
- a definitive verdict contradicts the expected one;
- a positive verdict's limit misses the drawn limit by more than ``tol``;
- a chain report has ``consistency: false``;
- a cyclic report has ``passed: false``;
- a repeat of the job in the same run writes report bytes that differ
  from its first execution;
- a report file is missing or malformed, or an output CSV has the wrong
  row count or values.

A job is inconclusive when its expected verdict is definitive but it came
back ``inconclusive``.  Spectral verdicts on divergent data are expected
to be inconclusive (that route is sufficiency-only) and are not counted.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from workloads import closed_form, grid_points, spec_bound

_STATUS = {"almost_convergent": "positive",
           "not_almost_convergent": "negative",
           "inconclusive": "inconclusive"}

# generated samples must match the closed form to this relative accuracy
_SAMPLE_RTOL = 1e-9
_SPOT_CHECKS = 16


@dataclass
class Outcome:
    failed: bool = False
    inconclusive: bool = False
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reasons.append(reason)


def output_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file in the job's output dir."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _verdict(v: dict, expect: dict, out: Outcome, what: str,
             count_inconclusive: bool = True) -> None:
    truth = expect.get("verdict")
    got = _STATUS.get(v.get("status"))
    if got is None:
        out.fail(f"{what}: unknown status {v.get('status')!r}")
        return
    if truth is None:
        return
    if got == "inconclusive":
        if count_inconclusive:
            out.inconclusive = True
        return
    if got != truth:
        out.fail(f"{what}: {got} verdict, expected {truth}")
        return
    if got == "positive":
        _limit(v.get("limit"), expect, out, what)


def _limit(lim, expect: dict, out: Outcome, what: str) -> None:
    if lim is None:
        out.fail(f"{what}: positive verdict without a limit")
        return
    want = complex(*expect["limit"])
    miss = abs(complex(lim["re"], lim["im"]) - want)
    if not miss <= expect["tol"]:
        out.fail(f"{what}: limit misses {want} by {miss:.3g} > tol {expect['tol']}")


def _csv_rows(path: str, expect: dict, out: Outcome) -> list:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    rows = lines[1:]  # after the column header
    if len(rows) != expect["rows"]:
        out.fail(f"{os.path.basename(path)}: {len(rows)} rows, "
                 f"expected {expect['rows']}")
    return rows


def _check_samples(rows: list, expect: dict, out: Outcome) -> None:
    """Spot-check generated rows against the closed form."""
    n = len(rows)
    if n != expect["rows"]:
        return
    picks = np.unique(np.linspace(0, n - 1, _SPOT_CHECKS).astype(int))
    xs = grid_points(expect["grid"])[picks]
    want = closed_form(expect["spec"], xs)
    scale = max(spec_bound(expect["spec"]), 1.0)
    for i, w in zip(picks, want):
        _, re, im = rows[i].split(",")
        if abs(complex(float(re), float(im)) - w) > _SAMPLE_RTOL * scale:
            out.fail(f"generated row {i} is {re},{im}, expected {w}")
            return


class Oracle:
    """Checks each job's outputs; remembers first digests for repeat checks."""

    def __init__(self):
        self.first_digest = {}

    def check(self, job, rc: int, out_dir: str) -> Outcome:
        out = Outcome()
        expect = job.expect
        if rc != expect["exit"]:
            out.fail(f"exit code {rc}, expected {expect['exit']}")
            return out
        try:
            self._check_report(expect, out_dir, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.fail(f"unreadable output: {type(exc).__name__}: {exc}")
            return out
        digest = output_digest(out_dir)
        first = self.first_digest.setdefault(job.key, digest)
        if digest != first:
            out.fail("output bytes differ from the first execution")
        return out

    def _check_report(self, expect: dict, out_dir: str, out: Outcome) -> None:
        kind = expect["report"]
        if kind == "generate":
            rows = _csv_rows(os.path.join(out_dir, "samples.csv"), expect, out)
            _check_samples(rows, expect, out)
            return
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        if kind == "cesaro":
            _verdict(report["verdict"], expect, out, "cesaro")
            if not os.path.exists(os.path.join(out_dir, "sweep.csv")):
                out.fail("sweep.csv missing")
        elif kind == "spectral":
            _verdict(report["verdict"], expect, out, "spectral",
                     expect.get("count_inconclusive", True))
            _csv_rows(os.path.join(out_dir, "spectrum.csv"), expect, out)
        elif kind == "tauber":
            lim = report["sweep"]["extrapolated_limit"]
            if expect.get("verdict") == "positive":
                _limit(lim, expect, out, "tauber")
            if not os.path.exists(os.path.join(out_dir, "mean_sweep.csv")):
                out.fail("mean_sweep.csv missing")
        elif kind == "chain":
            rep = report["report"]
            _verdict(rep["ac_verdict"], expect, out, "chain window-mean")
            # ordinary and weak* convergence fail on oscillating data: a
            # positive verdict there contradicts the drawn parameters
            tail = {"verdict": expect["tail"], "tol": expect["tol"]}
            _verdict(rep["c_verdict"], tail, out, "chain ordinary", False)
            _verdict(rep["wstar_verdict"], tail, out, "chain weak*", False)
            if rep["consistency"] is not True:
                out.fail(f"chain inconsistent: {rep['violations']}")
        elif kind == "cyclic":
            if report["passed"] is not True:
                out.fail(f"cyclic suite failed: {report['failures'][:3]}")
            if (report["N"], report["cases"], report["seed"]) != (
                    expect["N"], expect["cases"], expect["seed"]):
                out.fail("cyclic report echoes the wrong N, cases or seed")
        else:
            raise ValueError(f"unknown report kind {kind!r}")
