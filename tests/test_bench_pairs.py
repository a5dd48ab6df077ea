"""The summary of tools/bench_pairs.py on fabricated runs; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

DECLARED = [
    {"name": "job_s.p90", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _runs(p90, jobs, setup, unscaled):
    return [{"correct": True, "failed": 0,
             "values": {"job_s.p90": a, "jobs_per_s": b, "setup_s": c,
                        bp.UNSCALED_SETUP: d}}
            for a, b, c, d in zip(p90, jobs, setup, unscaled)]


def test_summary_quartiles_wins_and_runs():
    parent = [0.040, 0.044, 0.042, 0.046, 0.043, 0.045, 0.041, 0.044, 0.043, 0.047]
    change = [0.037, 0.036, 0.038, 0.035, 0.037, 0.036, 0.039, 0.036, 0.037, 0.048]
    s = bp.metric_summary("lower", parent, change)
    assert s["parent"] == {"q1": 0.04225, "median": 0.0435, "q3": 0.04475}
    assert s["change"] == {"q1": 0.036, "median": 0.037, "q3": 0.03775}
    # the last pair is a loss
    assert s["change_better_in_pairs"] == 9
    assert s["parent_runs"] == parent and s["change_runs"] == change
    assert bp.gain_met(s)
    # ties count for neither side; 8 wins in 10 are too few
    s = bp.metric_summary("lower", parent, change[:8] + parent[8:])
    assert s["change_better_in_pairs"] == 8 and not bp.gain_met(s)
    # higher is better: the same numbers are losses
    assert bp.metric_summary("higher", parent, change)["change_better_in_pairs"] == 1


def test_gain_needs_a_median_gap_beyond_the_parent_iqr():
    parent = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
    # wins every pair, but the medians differ by 0.1 against an IQR of 2
    change = [v + 0.1 for v in parent]
    s = bp.metric_summary("higher", parent, change)
    assert s["change_better_in_pairs"] == 10 and not bp.gain_met(s)
    change = [v + 2.5 for v in parent]
    assert bp.gain_met(bp.metric_summary("higher", parent, change))


def test_bound_status():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert bp.bound_status(bp.metric_summary("lower", parent, [v * 1.2 for v in parent]),
                           0.25) == "within"
    assert bp.bound_status(bp.metric_summary("lower", parent, [v * 1.3 for v in parent]),
                           0.25) == "beyond"
    assert bp.bound_status(bp.metric_summary("higher", parent, [v * 0.7 for v in parent]),
                           0.25) == "beyond"
    # the parent's runs spread wider than the bound: unresolved unless
    # every change run beats every parent run
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bp.bound_status(bp.metric_summary("lower", wide, wide[::-1]),
                           0.25) == "unresolved"
    assert bp.bound_status(bp.metric_summary("lower", wide, [0.5] * 6), 0.25) == "within"
    # ratios that never move
    ones = [1.0] * 6
    assert bp.bound_status(bp.metric_summary("higher", ones, ones), 0.01) == "within"


def test_workload_summary_and_texts():
    parent = _runs([0.044] * 10, [54.6] * 10, [0.17] * 10, [0.15] * 10)
    change = _runs([0.037] * 10, [57.6] * 10, [0.30] * 10, [0.16] * 10)
    summary = bp.workload_summary(parent, change, DECLARED)
    assert summary["pairs"] == 10 and summary["correct"]
    assert (summary["failed_parent"], summary["failed"]) == (0, 0)
    assert list(summary["metrics"]) == ["job_s.p90", "jobs_per_s", "setup_s",
                                        bp.UNSCALED_SETUP]
    assert summary["metrics"][bp.UNSCALED_SETUP]["better"] == "lower"
    assert bp.voided(summary) == "" and bp.claim_met(summary, "job_s.p90")
    claim = bp.claim_text("scan", "job_s.p90", summary)
    assert claim == ("scan job_s.p90 0.044 -> 0.037 (-15.9%, 10/10), parent quartiles "
                     "0.044-0.044 (0 apart, against a 0.007 median gap). Met.")
    text, ok = bp.regression_text({"scan": summary}, DECLARED)
    # setup_s rose 76%
    assert not ok
    assert text.startswith("Beyond or unresolved against its bound: scan setup_s beyond. "
                           "scan: job_s.p90 0.044 -> 0.037 (-15.9%, 10/10), ")
    assert text.endswith("unscaled.setup_s 0.15 -> 0.16 (+6.7%, 0/10).")


def test_failed_jobs_and_incorrect_runs_void_the_claim_and_the_bounds():
    parent = _runs([0.044] * 10, [54.6] * 10, [0.17] * 10, [0.15] * 10)
    change = _runs([0.037] * 10, [57.6] * 10, [0.17] * 10, [0.15] * 10)
    summary = bp.workload_summary(parent, change, DECLARED)
    text, ok = bp.regression_text({"scan": summary}, DECLARED)
    assert ok and text.startswith("Every end-to-end metric is within its bound. scan: ")
    # the change fails more jobs than the parent: the same gain is not met
    change[3]["failed"] = 2
    summary = bp.workload_summary(parent, change, DECLARED)
    assert (summary["failed_parent"], summary["failed"]) == (0, 2)
    assert bp.gain_met(summary["metrics"]["job_s.p90"])
    assert not bp.claim_met(summary, "job_s.p90")
    assert bp.claim_text("scan", "job_s.p90", summary).endswith(
        "median gap). Not met: the change failed 2 jobs against the parent's 0.")
    text, ok = bp.regression_text({"scan": summary}, DECLARED)
    assert not ok
    assert text.startswith("Every end-to-end metric is within its bound. Failed jobs or "
                           "incorrect runs: scan (the change failed 2 jobs against the "
                           "parent's 0). scan: ")
    # as many failures on both sides void nothing
    parent[7]["failed"] = 2
    summary = bp.workload_summary(parent, change, DECLARED)
    assert bp.claim_met(summary, "job_s.p90")
    assert bp.regression_text({"scan": summary}, DECLARED)[1]
    # one run that is not correct, on either side, voids both
    parent[0]["correct"] = False
    summary = bp.workload_summary(parent, change, DECLARED)
    assert not bp.claim_met(summary, "job_s.p90")
    assert bp.claim_text("scan", "job_s.p90", summary).endswith(
        "Not met: a run is not correct.")
    assert not bp.regression_text({"scan": summary}, DECLARED)[1]


def test_main_takes_the_run_length_from_benchmark_json(monkeypatch, tmp_path):
    parent, change = tmp_path.resolve() / "parent", tmp_path.resolve() / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"run_seconds": 12, "end_to_end": ' + str(DECLARED).replace("'", '"') + "}")
    seen = []

    def fake_run(checkout, workload, seed, seconds):
        seen.append((checkout, workload, seed, seconds))
        side = 0.044 if checkout == parent else 0.037
        return {**_runs([side], [55.0], [0.17], [0.15])[0], "env": {"nproc": 2}}

    monkeypatch.setattr(bp, "run", fake_run)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--seed", "7", "--pairs", "scan=2",
            "--claim", "scan:job_s.p90", "--out", str(out)]
    assert bp.main(argv) == 0
    assert seen == [(parent, "scan", 7, 12), (change, "scan", 7, 12),
                    (change, "scan", 7, 12), (parent, "scan", 7, 12)]
    written = json.loads(out.read_text())
    assert written["command"].endswith("--seed 7 --seconds 12 --trace 0")
    assert "change" not in written and written["claim"].endswith("Met.")
    # the change's checkout is required, and the run length is no option
    for bad in ([str(parent), "--seed", "7", "--out", str(out)],
                argv + ["--seconds", "30"],
                argv[:-4] + ["--claim", "scan:job_s.p99", "--out", str(out)]):
        with pytest.raises(SystemExit):
            bp.main(bad)


def test_run_reads_the_result_detail_and_env_lines(monkeypatch, tmp_path):
    seen = {}

    class Done:
        returncode, stderr = 0, ""
        stdout = ('# env {"nproc": 2}\n# detail {"unscaled": {"setup_s": 0.15}}\n'
                  '{"correct": true, "attempted": 40, "failed": 1, "metrics": '
                  '{"setup_s": {"value": 0.17, "unit": "s"}}}\n')

    def fake_run(argv, **kw):
        seen.update(argv=argv, cwd=kw["cwd"], env=kw["env"])
        return Done()

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    assert bp.run(tmp_path, "scan", 7, 30.0) == {
        "correct": True, "failed": 1, "env": {"nproc": 2},
        "values": {"setup_s": 0.17, bp.UNSCALED_SETUP: 0.15}}
    assert seen["argv"][1:] == ["perfbench/run.py", "--workload", "scan", "--seed", "7",
                                "--seconds", "30.0", "--trace", "0"]
    assert seen["cwd"] == tmp_path and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout.name)
        return {"values": {"setup_s": float(len(order))}}

    monkeypatch.setattr(bp, "run", fake_run)
    parent, change = bp.run_pairs(tmp_path / "parent", tmp_path / "change", "scan", 3,
                                  7, 30.0)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["values"]["setup_s"] for r in parent] == [1.0, 4.0, 5.0]
    assert [r["values"]["setup_s"] for r in change] == [2.0, 3.0, 6.0]


def test_failed_run_stops(monkeypatch, tmp_path):
    class Done:
        returncode, stdout, stderr = 1, "", "Traceback: boom"

    monkeypatch.setattr(bp.subprocess, "run", lambda *a, **k: Done())
    with pytest.raises(RuntimeError, match="scan exited 1\nTraceback: boom"):
        bp.run(tmp_path, "scan", 1, 30.0)
