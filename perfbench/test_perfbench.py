"""Self-tests of the benchmark: ``python -m pytest perfbench -q``."""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import tracer  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Job, block_sequence, build_jobs, trig_poly, write_inputs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert build_jobs(workload, 7) == build_jobs(workload, 7)
    assert build_jobs(workload, 7) != build_jobs(workload, 8)


def test_cycle_shape_does_not_depend_on_seed():
    def shape(jobs):
        return sorted(j.key.split("-")[0] + j.key.rsplit("-", 1)[-1] for j in jobs)

    for workload in WORKLOADS:
        assert shape(build_jobs(workload, 1)) == shape(build_jobs(workload, 2))


def _bindings():
    from almostconv import cli, spectral, tauberian

    return {
        "cli.main": cli.main,
        "cli.render_discrete": cli.render_discrete,
        "cli.signal_from_csv": cli.signal_from_csv,
        "cli.sweep_to_csv": cli.sweep_to_csv,
        "tauberian.cesaro_sweep": tauberian.cesaro_sweep,
        "tauberian.ac_verdict": tauberian.ac_verdict,
        "tauberian.convolve": tauberian.convolve,
        "spectral.highpass_project": spectral.highpass_project,
    }


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from almostconv import cli

    spec = tmp_path / "trig.json"
    spec.write_text(json.dumps(trig_poly(((0.5, 0.0), (0.4, 0.25)))))
    before = _bindings()
    spans = tracer.Tracer()
    with spans:
        during = _bindings()
        for command in ("chain", "spectrum"):
            rc = cli.main([command, "--input", str(spec), "--n-min", "0",
                           "--n-max", "4095", "--out-dir", str(tmp_path / command)])
            assert rc == 0
    after = _bindings()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    names = {s[2] for s in spans.spans}
    # calls that only a by-name or module-global binding can see
    assert {"signals.render_discrete", "cesaro.cesaro_sweep", "cesaro.ac_verdict",
            "spectral.convolve", "spectral.highpass_project"} <= names
    metrics = tracer.layer_metrics(spans.spans, {}, 1)
    assert metrics["cli.jobs"] == 2
    assert metrics["signals.samples"] == 2 * 4096
    assert metrics["spectral.highpass_calls"] >= 1


def test_self_time_subtracts_direct_children():
    spans = [(0, None, "cli.main", 0.0, 10.0, "j", False, {}),
             (1, 0, "signals.render_discrete", 1.0, 4.0, "j", False, {}),
             (2, 0, "tauberian.chain_report", 4.0, 9.0, "j", False, {}),
             (3, 2, "cesaro.cesaro_sweep", 5.0, 7.0, "j", False, {})]
    assert tracer.self_times(spans) == {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0}


def _cesaro_job(tmp_path, status, limit):
    job = Job("cesaro-block", (), None,
              {"exit": 0, "report": "cesaro", "verdict": "negative",
               "tol": 1e-2, "limit": None,
               "spec": block_sequence((0.0, 1.0), 2.0)})
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.csv").write_text("k,sup_re,sup_im,inf_re,inf_im,argmax,argmin\n")
    (out / "report.json").write_text(json.dumps(
        {"schema": 1, "analysis": "cesaro", "tol": 1e-2,
         "verdict": {"status": status, "limit": limit, "uncertainty": 0.0,
                     "notes": "", "witness": None}}))
    return job, str(out)


def test_oracle_flags_fabricated_positive_verdict_on_blocks(tmp_path):
    job, out = _cesaro_job(tmp_path, "almost_convergent", {"re": 0.5, "im": 0.0})
    outcome = Oracle().check(job, 0, out)
    assert outcome.failed
    assert "positive verdict, expected negative" in outcome.reasons[0]


def test_oracle_accepts_negative_and_counts_inconclusive(tmp_path):
    job, out = _cesaro_job(tmp_path, "not_almost_convergent", None)
    assert not Oracle().check(job, 0, out).failed
    job, out = _cesaro_job(tmp_path, "inconclusive", None)
    outcome = Oracle().check(job, 0, out)
    assert outcome.inconclusive and not outcome.failed


def test_oracle_flags_bytes_that_differ_on_repeat(tmp_path):
    oracle = Oracle()
    job, out = _cesaro_job(tmp_path, "not_almost_convergent", None)
    assert not oracle.check(job, 0, out).failed
    assert not oracle.check(job, 0, out).failed
    with open(os.path.join(out, "sweep.csv"), "a") as fh:
        fh.write("4.0,1.0,0.0,0.0,0.0,0.0,9.0\n")
    outcome = oracle.check(job, 0, out)
    assert outcome.failed
    assert "differ from the first execution" in outcome.reasons[0]


def test_oracle_flags_wrong_exit_code(tmp_path):
    job, out = _cesaro_job(tmp_path, "not_almost_convergent", None)
    assert Oracle().check(job, 1, out).failed


def test_generated_inputs_load_in_the_library(tmp_path):
    from almostconv.serialize import load_generator, signal_from_csv

    jobs = build_jobs("files", 3)
    write_inputs(jobs, str(tmp_path))
    for job in jobs:
        path = str(tmp_path / job.input_name)
        if path.endswith(".csv"):
            assert len(signal_from_csv(path)) == job.expect["source"]["grid"]["count"]
        else:
            load_generator(path)
