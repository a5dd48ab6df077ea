import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import cesaro, cli, serialize
from almostconv.signals import Sidedness, WindowSchedule


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    serialize.save_generator(spec, str(path))
    return str(path)


def test_generate_constant(tmp_path):
    spec = write_spec(tmp_path, ac.Character(0.0))
    out = tmp_path / "samples.csv"
    rc = cli.main(["generate", "--spec", spec, "--out", str(out),
                   "--n-min", "0", "--n-max", "3"])
    assert rc == 0
    sig = serialize.signal_from_csv(str(out))
    assert np.allclose(sig.values, 1.0)
    assert sig.n_min == 0 and len(sig) == 4


def test_generate_block_expansion(tmp_path):
    spec = write_spec(tmp_path, ac.BlockSequence())
    out = tmp_path / "blocks.csv"
    rc = cli.main(["generate", "--spec", spec, "--out", str(out),
                   "--n-min", "0", "--n-max", "6"])
    assert rc == 0
    sig = serialize.signal_from_csv(str(out))
    assert np.allclose(sig.values, [0, 1, 1, 0, 0, 0, 0])


def test_generate_divergent_dirichlet_no_file(tmp_path):
    spec = write_spec(tmp_path, ac.DirichletLine((1, 1), 0.5))
    out = tmp_path / "never.csv"
    rc = cli.main(["generate", "--spec", spec, "--out", str(out),
                   "--n-min", "0", "--n-max", "7"])
    assert rc == 2
    assert not out.exists()


def test_analyze_cesaro_character(tmp_path):
    spec = write_spec(tmp_path, ac.Character(1 / 7))
    out_dir = tmp_path / "run"
    rc = cli.main(["analyze", "--analysis", "cesaro", "--input", spec,
                   "--n-min", "-16384", "--n-max", "16384",
                   "--k-min", "4", "--k-max", "1024", "--tol", "1e-2",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["schema"] == 1
    assert report["verdict"]["status"] == "almost_convergent"
    assert abs(report["verdict"]["limit"]["re"]) <= 1e-2
    assert (out_dir / "sweep.csv").exists()


def test_analyze_matches_direct_library_call(tmp_path):
    spec_obj = ac.Character(1 / 7)
    spec = write_spec(tmp_path, spec_obj)
    out_dir = tmp_path / "run"
    rc = cli.main(["analyze", "--analysis", "cesaro", "--input", spec,
                   "--n-min", "-4096", "--n-max", "4096",
                   "--k-min", "4", "--k-max", "256", "--tol", "1e-2",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    signal = ac.render_discrete(spec_obj, -4096, 4096)
    sched = WindowSchedule.geometric(4, 256, 2, Sidedness.TWO_SIDED)
    verdict = cesaro.ac_verdict(cesaro.cesaro_sweep(signal, sched), 1e-2)
    assert report["verdict"]["status"] == verdict.status.value
    assert report["verdict"]["limit"]["re"] == verdict.limit.real
    assert report["verdict"]["uncertainty"] == verdict.uncertainty


def test_analyze_cyclic_suite(tmp_path):
    out_dir = tmp_path / "cy"
    rc = cli.main(["analyze", "--analysis", "cyclic-suite", "--order", "64",
                   "--cases", "10", "--seed", "7", "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True
    assert report["failures"] == []


def test_malformed_spec_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = cli.main(["analyze", "--analysis", "cesaro", "--input", str(bad),
                   "--out-dir", str(tmp_path / "x")])
    assert rc == 1


def test_bad_schedule_exits_one(tmp_path):
    spec = write_spec(tmp_path, ac.Character(0.25))
    rc = cli.main(["analyze", "--analysis", "cesaro", "--input", spec,
                   "--k-min", "64", "--k-max", "8",
                   "--out-dir", str(tmp_path / "x")])
    assert rc == 1


def test_reports_byte_identical_across_runs(tmp_path):
    spec = write_spec(tmp_path, ac.TrigPoly(((1.0, 0.125), (0.5, 0.0))))
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = cli.main(["analyze", "--analysis", "cesaro", "--input", spec,
                       "--n-min", "0", "--n-max", "4096",
                       "--k-min", "8", "--k-max", "512", "--seed", "5",
                       "--out-dir", str(out_dir)])
        assert rc == 0
        blobs.append(((out_dir / "report.json").read_bytes(),
                      (out_dir / "sweep.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_spectrum_subcommand(tmp_path):
    spec = write_spec(tmp_path, ac.Character(0.125))
    out_dir = tmp_path / "sp"
    rc = cli.main(["spectrum", "--input", spec, "--n-min", "0",
                   "--n-max", "4095", "--deltas", "0.25,0.0625",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["analysis"] == "spectral"
    assert report["verdict"]["status"] == "almost_convergent"
    assert (out_dir / "spectrum.csv").exists()


def test_tauber_subcommand_discrete(tmp_path):
    samples = tmp_path / "stream.csv"
    coeffs = ac.DiscreteSignal(0, np.tile([1.0, 0.0], 1024), 1.0)
    serialize.signal_to_csv(coeffs, str(samples))
    out_dir = tmp_path / "tb"
    rc = cli.main(["tauber", "--input", str(samples), "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    lim = report["sweep"]["extrapolated_limit"]
    assert lim["re"] == pytest.approx(0.5, abs=1e-3)


def test_chain_subcommand(tmp_path):
    spec = write_spec(tmp_path, ac.Convergent(2.0))
    out_dir = tmp_path / "ch"
    rc = cli.main(["chain", "--input", spec, "--x0", "0", "--h", "0.25",
                   "--count", "2049", "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["report"]["consistency"] is True
    assert report["report"]["ac_verdict"]["status"] == "almost_convergent"


def test_config_file_with_flag_override(tmp_path):
    spec = write_spec(tmp_path, ac.Character(0.25))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "analysis": "cesaro", "input": spec, "n_min": 0, "n_max": 2048,
        "k_min": 4, "k_max": 128, "tol": 1e-2,
        "out_dir": str(tmp_path / "from_cfg")}))
    rc = cli.main(["analyze", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_cfg" / "report.json").exists()
    rc = cli.main(["analyze", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "override")])
    assert rc == 0
    assert (tmp_path / "override" / "report.json").exists()


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": "cesaro", "bogus": 1}))
    rc = cli.main(["analyze", "--config", str(cfg)])
    assert rc == 1


def test_generator_json_round_trip(tmp_path):
    specs = [
        ac.Character(0.3),
        ac.TrigPoly(((1 + 2j, 0.1), (0.5, -0.2))),
        ac.DirichletLine((1, 2j, 0.5), 1.5, 1.0),
        ac.MeasureTransform(((0.0, 0.5), (0.1, 0.5j)),
                            ac.Density(-0.1, 0.1, (1.0, 2.0, 1.0))),
        ac.BlockSequence((0.0, 1.0, 2.0), 3.0),
        ac.PartialSums(ac.Character(0.5)),
        ac.Convergent(1.5 + 0.5j, "power", 2.0, 0.25),
        ac.Custom((1.0, 2.0 + 1j), 3.0, 0.5),
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / f"s{i}.json"
        serialize.save_generator(spec, str(path))
        assert serialize.load_generator(str(path)) == spec


_finite = st.floats(allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _finite, _finite)
_positive = st.floats(1e-3, 10.0)


def _tuples(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=4).map(tuple)


_density = st.builds(lambda lo, width, values: ac.Density(lo, lo + width, values),
                     st.floats(-1e3, 1e3), _positive, _tuples(_complex, 2))
_SPEC_STRATEGIES = {
    "character": st.builds(ac.Character, _finite),
    "trig_poly": st.builds(ac.TrigPoly, _tuples(st.tuples(_complex, _finite))),
    "dirichlet_line": st.builds(ac.DirichletLine, _tuples(_complex), _finite,
                                _finite),
    "measure_transform": st.builds(ac.MeasureTransform,
                                   _tuples(st.tuples(_finite, _complex), 0),
                                   st.none() | _density),
    "block_sequence": st.builds(ac.BlockSequence, _tuples(_complex),
                                st.floats(1.01, 8.0)),
    "convergent": st.builds(ac.Convergent, _complex,
                            st.sampled_from(["exp", "power"]), _positive,
                            _complex),
    "custom": st.builds(ac.Custom, _tuples(_complex), _finite, _positive),
}
_SPEC_STRATEGIES["partial_sums"] = st.builds(
    ac.PartialSums, st.one_of(*_SPEC_STRATEGIES.values()))


@pytest.mark.parametrize("kind", sorted(_SPEC_STRATEGIES))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_generator_dict_round_trip_every_kind(kind, data):
    spec = data.draw(_SPEC_STRATEGIES[kind])
    text = json.dumps(serialize.generator_to_dict(spec))
    assert serialize.generator_from_dict(json.loads(text)) == spec


@pytest.mark.parametrize("obj, spec", [
    ({"kind": "block_sequence"}, ac.BlockSequence()),
    ({"kind": "block_sequence", "growth": 3}, ac.BlockSequence(growth=3.0)),
    ({"kind": "dirichlet_line", "coeffs": [1], "sigma": 2}, ac.DirichletLine((1,), 2.0)),
    ({"kind": "measure_transform", "atoms": []}, ac.MeasureTransform(())),
    ({"kind": "convergent", "limit": 0.5}, ac.Convergent(0.5)),
    ({"kind": "custom", "values": [1, 2]}, ac.Custom((1.0, 2.0))),
], ids=["block_sequence", "block_sequence_growth", "dirichlet_line",
        "measure_transform", "convergent", "custom"])
def test_missing_spec_keys_take_the_spec_defaults(obj, spec):
    assert serialize.generator_from_dict(obj) == spec


def test_signal_csv_round_trip(tmp_path):
    disc = ac.render_discrete(ac.Character(0.3), -5, 20)
    path = tmp_path / "d.csv"
    serialize.signal_to_csv(disc, str(path))
    back = serialize.signal_from_csv(str(path))
    assert back.n_min == disc.n_min
    assert np.allclose(back.values, disc.values)
    assert back.bound == disc.bound

    cont = ac.render_continuous(ac.Character(0.1), -2.0, 0.25, 33)
    path2 = tmp_path / "c.csv"
    serialize.signal_to_csv(cont, str(path2))
    back2 = serialize.signal_from_csv(str(path2))
    assert back2.x0 == cont.x0 and back2.h == cont.h
    assert np.allclose(back2.samples, cont.samples)


def test_cyclic_csv_round_trip(tmp_path):
    from almostconv.cyclic import CyclicFunction

    f = CyclicFunction(6, np.arange(6) * (1 + 2j))
    path = tmp_path / "f.csv"
    serialize.cyclic_to_csv(f, str(path))
    back = serialize.cyclic_from_csv(str(path))
    assert back.N == 6
    assert np.allclose(back.values, f.values)
