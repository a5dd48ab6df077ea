import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import cesaro, cli, cyclic, serialize
from almostconv.errors import ConfigError
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


@pytest.mark.parametrize("fields", [
    {"deltas": 5}, {"xs": ["a"]}, {"input": 5}, {"n_min": "0"}, {"x0": "a"},
    {"tol": 10 ** 400}, {"analysis": "cyclic-suite", "seed": "x"},
    {"analysis": "cyclic-suite", "order": 1.5},
    {"analysis": "cyclic-suite", "cases": 1.5},
], ids=["deltas", "xs", "input", "n_min", "x0", "tol", "seed", "order", "cases"])
def test_config_field_of_wrong_type_is_a_config_error(tmp_path, capsys, fields):
    spec = write_spec(tmp_path, ac.Character(0.25))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": spec, "n_max": 255, **fields}))
    with pytest.raises(ConfigError):
        cli.config_from_file(str(cfg))
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: bad config: ")
    assert not (tmp_path / "out").exists()


def test_huge_cyclic_order_exits_one(tmp_path, capsys):
    assert cli.main(["cyclic", "--order", "1" + "0" * 400, "--cases", "1",
                     "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


# ---------------------------------------------------------------------------
# CSV files: the block writers and the np.loadtxt reader against in-test
# copies of the per-row code they replaced
# ---------------------------------------------------------------------------

def _old_write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _old_signal_to_csv(signal, path):
    lines = []
    if isinstance(signal, ac.DiscreteSignal):
        lines.append(f"# signal kind=discrete n_min={signal.n_min} "
                     f"bound={signal.bound!r} extension={signal.extension.value} "
                     f"source={signal.source or '-'}")
        lines.append("index,re,im")
        for i, v in enumerate(signal.values):
            lines.append(f"{signal.n_min + i},{float(v.real)!r},{float(v.imag)!r}")
    else:
        lines.append(f"# signal kind=continuous x0={signal.x0!r} h={signal.h!r} "
                     f"bound={signal.bound!r} extension={signal.extension.value} "
                     f"source={signal.source or '-'}")
        lines.append("x,re,im")
        for i, v in enumerate(signal.samples):
            lines.append(f"{float(signal.x_at(i))!r},{float(v.real)!r},{float(v.imag)!r}")
    _old_write(path, lines)


def _old_sweep_to_csv(sweep, path):
    lines = ["k,sup_re,sup_im,inf_re,inf_im,argmax,argmin"]
    for k, s, i, am, an in zip(sweep.lengths, sweep.sup, sweep.inf,
                               sweep.argmax, sweep.argmin):
        lines.append(f"{float(k)!r},{float(s.real)!r},{float(s.imag)!r},"
                     f"{float(i.real)!r},{float(i.imag)!r},"
                     f"{float(am)!r},{float(an)!r}")
    _old_write(path, lines)


def _old_spectrum_to_csv(est, path):
    lines = ["freq,magnitude,masked"]
    for f, m, b in zip(est.freqs, est.magnitudes, est.support_mask):
        lines.append(f"{float(f)!r},{float(m)!r},{int(b)}")
    _old_write(path, lines)


def _old_mean_sweep_to_csv(sweep, path):
    lines = ["abscissa,re,im"]
    for x, v in zip(sweep.abscissas, sweep.values):
        lines.append(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}")
    _old_write(path, lines)


def _old_cyclic_to_csv(f, path):
    lines = [f"# cyclic N={f.N}", "index,re,im"]
    for i, v in enumerate(f.values):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    _old_write(path, lines)


def _old_parse_meta(line):
    out = {}
    for token in line.lstrip("# ").split():
        if "=" in token:
            key, val = token.split("=", 1)
            out[key] = val
    return out


def _old_signal_from_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    meta = {}
    rows = []
    header_seen = False
    for ln in lines:
        if ln.startswith("#"):
            meta.update(_old_parse_meta(ln))
            continue
        if not header_seen:
            header_seen = True
            continue
        parts = ln.split(",")
        assert len(parts) == 3
        rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
    vals = np.asarray([complex(r, i) for _, r, i in rows])
    ext = ac.Extension(meta.get("extension", "valid_only"))
    source = meta.get("source")
    if source in (None, "-"):
        source = "custom"
    kind = meta.get("kind")
    if kind is None:
        xs = [r[0] for r in rows]
        kind = "discrete" if all(abs(x - round(x)) < 1e-9 for x in xs) and \
            (len(xs) < 2 or abs(xs[1] - xs[0] - 1) < 1e-9) else "continuous"
    bound = float(meta["bound"]) if "bound" in meta else float(np.max(np.abs(vals)))
    if kind == "discrete":
        n_min = int(meta.get("n_min", round(rows[0][0])))
        return ac.DiscreteSignal(n_min, vals, bound, ext, source)
    x0 = float(meta.get("x0", rows[0][0]))
    h = float(meta["h"]) if "h" in meta else rows[1][0] - rows[0][0]
    return ac.ContinuousSignal(x0, h, vals, bound, ext, source)


def _signal_fields(sig):
    """Everything a signal carries, floats as bits."""
    if isinstance(sig, ac.DiscreteSignal):
        grid = ("discrete", sig.n_min)
        vals = sig.values
    else:
        grid = ("continuous", np.float64(sig.x0).view(np.int64),
                np.float64(sig.h).view(np.int64))
        vals = sig.samples
    return (grid, np.float64(sig.bound).view(np.int64), sig.extension,
            sig.source, vals.view(np.float64).tobytes())


# the points where repr switches notation, the extremes, and signed zeros
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0,
                1.0000000000000002e16, 1e-5, 9.999999999999999e-06,
                1.0000000000000001e-05, -1e-5, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1 / 3]
_csv_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
_LENGTHS = [1, ac.signals.BLOCK, ac.signals.BLOCK + 1, 3 * ac.signals.BLOCK + 7]


def _column(data, n, elements=_csv_floats):
    """``n`` floats drawn, with their bits, from a small drawn pool."""
    pool = np.array(data.draw(st.lists(elements, min_size=1, max_size=24)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return pool[rng.integers(0, len(pool), n)]


def _complex_column(data, n, elements=_csv_floats):
    out = np.empty(n, dtype=np.complex128)
    out.real = _column(data, n)
    out.imag = _column(data, n, elements)
    return out


@pytest.mark.parametrize("n", _LENGTHS)
@pytest.mark.parametrize("grid", ["discrete", "continuous"])
@pytest.mark.parametrize("sign", [-1, 1])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_signal_csv_matches_per_row_code(tmp_path_factory, n, grid, sign, data):
    # |z| must stay finite, so imaginary parts keep clear of the overflow edge
    vals = _complex_column(data, n, _csv_floats.filter(lambda v: abs(v) <= 1e300))
    bound = float(np.max(np.abs(vals)))
    if grid == "discrete":
        n_min = sign * data.draw(st.integers(0, 10 ** 12))
        sig = ac.DiscreteSignal(n_min, vals, bound, ac.Extension.ZERO_OUTSIDE)
    else:
        x0 = sign * data.draw(st.sampled_from([0.0, 1e-5, 1e16]) | st.floats(0, 1e6))
        h = data.draw(st.sampled_from([0.1, 0.05, 1e-5]) | st.floats(1e-6, 10.0))
        sig = ac.ContinuousSignal(x0, h, vals, bound, source="drawn")
    tmp = tmp_path_factory.mktemp("csv")
    new, old = str(tmp / "new.csv"), str(tmp / "old.csv")
    serialize.signal_to_csv(sig, new)
    _old_signal_to_csv(sig, old)
    with open(new, "rb") as a, open(old, "rb") as b:
        assert a.read() == b.read()
    back = serialize.signal_from_csv(new)
    assert _signal_fields(back) == _signal_fields(_old_signal_from_csv(new))
    assert back.values.view(np.float64).tobytes() == vals.view(np.float64).tobytes()


@pytest.mark.parametrize("n", _LENGTHS)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_analysis_csv_writers_match_per_row_code(tmp_path_factory, n, data):
    from almostconv.cyclic import CyclicFunction
    from almostconv.spectral import SpectrumEstimate, Taper
    from almostconv.tauberian import MeanMethod, MeanSweep

    a, b = _complex_column(data, n), _complex_column(data, n)
    sup = np.maximum(a.real, b.real) + 1j * np.maximum(a.imag, b.imag)
    inf = np.minimum(a.real, b.real) + 1j * np.minimum(a.imag, b.imag)
    sweep = cesaro.CesaroSweep(
        lengths=tuple(range(1, n + 1)), sup=tuple(sup.tolist()),
        inf=tuple(inf.tolist()), argmax=tuple(_column(data, n).tolist()),
        argmin=tuple(_column(data, n).tolist()), sidedness=Sidedness.TWO_SIDED,
        shift_stride=1, p_bar_est=sup[-1], p_lower_est=inf[-1])
    est = SpectrumEstimate(
        freqs=_column(data, n), magnitudes=np.abs(_column(data, n)),
        taper=Taper.HANN, mask_threshold=0.5,
        support_mask=_column(data, n, st.booleans()).astype(bool),
        parseval_rel_error=0.0, window_length=n, step=1.0)
    step = data.draw(st.sampled_from([1e-5, 0.1, 1e16]) | st.floats(1e-300, 1e300))
    means = MeanSweep(MeanMethod.LAPLACE, tuple((step * np.arange(n, 0, -1)).tolist()),
                      tuple(_complex_column(data, n).tolist()), None, 0.0)
    cyc = CyclicFunction(n, _complex_column(data, n))
    tmp = tmp_path_factory.mktemp("csv")
    for new_writer, old_writer, obj in (
            (serialize.sweep_to_csv, _old_sweep_to_csv, sweep),
            (serialize.spectrum_to_csv, _old_spectrum_to_csv, est),
            (serialize.mean_sweep_to_csv, _old_mean_sweep_to_csv, means),
            (serialize.cyclic_to_csv, _old_cyclic_to_csv, cyc)):
        new_writer(obj, str(tmp / "new.csv"))
        old_writer(obj, str(tmp / "old.csv"))
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes(), \
            new_writer.__name__
    back = serialize.cyclic_from_csv(str(tmp / "new.csv"))
    assert back.N == n
    assert back.values.view(np.float64).tobytes() == cyc.values.view(np.float64).tobytes()


@pytest.mark.parametrize("text", [
    "\n\n  \n# signal kind=discrete n_min=3 bound=2.0 extension=zero_outside "
    "source=-\n\n \nindex,re,im\n3,1,0\n4,-0.0,2\n",
    "index,re,im\n0,1,0\n\n\n1,2,-0.0\n\n2,0.5,0.25\n\n",
    "x,re,im\n# kind=continuous x0=0.5 h=0.25 source=late\n0.5,1,0\n"
    "# a comment among the rows\n0.75,1,1\n",
    "# signal kind=discrete n_min=-2 bound=3.0\r\nindex,re,im\r\n"
    "-2,1,0\r\n-1,0,3\r\n",
    "index , re , im\n 0 , 1.5 ,  -2 \n1,\t2,0\t\n  2,2,1\n",
    "index,re,im\n-3,1,0\n-2,0.5,0\n-1,0,0.25\n",
    "x,re,im\n0.5,1,0\n0.75,0.5,0\n1.0,0,0.25\n",
    "x,re,im\n7,1,0\n",
], ids=["leading_blank_lines", "blank_lines_between_rows", "comment_after_header",
        "crlf", "spaces_around_fields", "no_kind_discrete", "no_kind_continuous",
        "no_kind_one_row"])
def test_odd_but_valid_sample_files_read_as_before(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    expected = _old_signal_from_csv(str(path))
    assert _signal_fields(serialize.signal_from_csv(str(path))) == \
        _signal_fields(expected)


@pytest.mark.parametrize("rows", ["0,1,0\ninf,0.5,0\n", "0,1,0\n1,1,0\ninf,0.5,0\n",
                                  "0,1,0\nnan,0.5,0\n"],
                         ids=["inf_step", "inf_after_unit_steps", "nan"])
def test_sample_positions_must_be_finite_without_kind(tmp_path, rows):
    path = tmp_path / "a.csv"
    path.write_text("index,re,im\n" + rows)
    rc = cli.main(["spectrum", "--input", str(path),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    with pytest.raises(ac.errors.ConfigError):
        serialize.signal_from_csv(str(path))


def test_infinite_first_index_without_n_min_is_a_config_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("# signal kind=discrete\nindex,re,im\ninf,1,0\n")
    with pytest.raises(ac.errors.ConfigError):
        serialize.signal_from_csv(str(path))


@pytest.mark.parametrize("rows", ["0,1\n1,2,0\n", "0,1\n1,2\n", "0,abc,0\n1,2,0\n",
                                  "0,1,0,5\n1,2,0,5\n", "0,nan,0\n1,2,0\n",
                                  "0,1,0\n1,2,inf\n", "0,-inf,0\n1,2,0\n"],
                         ids=["short_row", "short_rows", "bad_number", "long_row",
                              "nan_value", "inf_value", "minus_inf_value"])
def test_cyclic_from_csv_rejects_bad_rows(tmp_path, rows):
    # a non-finite value left both the zero set and the spectrum empty
    path = tmp_path / "f.csv"
    path.write_text("# cyclic N=2\nindex,re,im\n" + rows)
    with pytest.raises(ac.errors.ConfigError):
        serialize.cyclic_from_csv(str(path))


@pytest.mark.parametrize("text", ["", "# only metadata\n", "index,re,im\n",
                                  "index,re,im\n# c\n  \n"])
def test_sample_file_without_rows_is_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ac.errors.ConfigError, match="no sample rows"):
        serialize.signal_from_csv(str(path))


def test_hash_after_the_data_starts_a_comment(tmp_path):
    # float() rejected "0 # first"; np.loadtxt cuts the comment off
    path = tmp_path / "c.csv"
    path.write_text("index,re,im\n0,1,0 # first\n1,2,0\n")
    sig = serialize.signal_from_csv(str(path))
    assert sig.n_min == 0 and sig.values.tolist() == [1, 2]


@pytest.mark.parametrize("rows", ["0,1_000,0\n", "0,1,0\n   \n1,2,0\n",
                                  "0,1,0\n  # indented\n1,2,0\n"],
                         ids=["underscore_digits", "whitespace_only_line",
                              "indented_comment_line"])
def test_rows_float_took_but_loadtxt_rejects(tmp_path, rows):
    # float("1_000") is 1000.0, and the per-row reader skipped lines that were
    # blank after stripping; np.loadtxt reads both as malformed rows
    path = tmp_path / "u.csv"
    path.write_text("index,re,im\n" + rows)
    with pytest.raises(ac.errors.ConfigError):
        serialize.signal_from_csv(str(path))


def test_csv_memory_stays_bounded(tmp_path):
    import tracemalloc

    rng = np.random.default_rng(3)
    n = 1 << 18
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sig = ac.DiscreteSignal(-5, vals, float(np.max(np.abs(vals))))
    path = str(tmp_path / "big.csv")
    tracemalloc.start()
    try:
        serialize.signal_to_csv(sig, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = serialize.signal_from_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, vals)
    assert write_peak < 40 * 2 ** 20
    assert read_peak < 40 * 2 ** 20


def test_numpy_scalar_metadata_round_trips(tmp_path):
    # under NumPy 2, repr(np.float64(1.0)) is "np.float64(1.0)", which the
    # reader rejected; the writer now stores plain floats
    disc = ac.signals.scaled(ac.DiscreteSignal(0, [1.0, 2.0], 2.0), np.float64(0.5))
    cont = ac.ContinuousSignal(np.float64(0.5), np.float64(0.25), [1.0, 2.0],
                               np.float64(2.0))
    backs = []
    for sig in (disc, cont):
        path = str(tmp_path / "s.csv")
        serialize.signal_to_csv(sig, path)
        backs.append(serialize.signal_from_csv(path))
        assert backs[-1].bound == sig.bound
        assert np.array_equal(backs[-1].values, sig.values)
    assert backs[0].n_min == 0
    assert (backs[1].x0, backs[1].h) == (0.5, 0.25)


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--growth", "inf"],
                                    ["--deltas", "0.25,nan"]])
def test_non_finite_options_are_config_errors(tmp_path, capsys, option):
    # --tol nan used to exit 0 with "tol": NaN in report.json, and
    # --growth inf ended in an uncaught OverflowError
    spec = write_spec(tmp_path, ac.Character(0.25))
    out_dir = tmp_path / "run"
    rc = cli.main(["analyze", "--input", spec, "--n-max", "255",
                   "--out-dir", str(out_dir), *option])
    err = capsys.readouterr().err
    assert rc == 1
    assert "finite" in err and "Traceback" not in err
    assert not (out_dir / "report.json").exists()


_HUGE_TERMS = [{"coefficient": 1e308, "frequency": 0.25},
               {"coefficient": 1e308, "frequency": 0.25}]


@pytest.mark.parametrize("spec, grid, message", [
    # 2^17 samples: tiled, and (at 0.1) rendered block by block on the pool
    ({"kind": "trig_poly", "terms": _HUGE_TERMS}, ["--n-max", "131071"],
     "signal values must be finite"),
    ({"kind": "trig_poly", "terms": [{**t, "frequency": 0.1} for t in _HUGE_TERMS]},
     ["--n-max", "131071"], "signal values must be finite"),
    ({"kind": "convergent", "limit": 1e308, "amplitude": 1e308}, [],
     "signal values must be finite"),
    ({"kind": "character", "frequency": math.inf}, [], "frequency must be finite"),
    ({"kind": "character", "frequency": math.nan}, [], "frequency must be finite"),
    ({"kind": "trig_poly", "terms": [{"coefficient": 1.0, "frequency": math.inf}]},
     [], "frequency must be finite"),
    ({"kind": "trig_poly", "terms": [{"coefficient": 1.0, "frequency": math.nan}]},
     [], "frequency must be finite"),
], ids=["trig_poly_tiled", "trig_poly_pool", "convergent", "character_inf",
        "character_nan", "trig_poly_inf", "trig_poly_nan"])
def test_hostile_specs_leave_one_error_line(tmp_path, capsys, spec, grid, message):
    # NumPy's RuntimeWarnings used to come first, with a source path and line
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["chain", "--input", str(path), *grid,
                       "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("xs", ["inf", "nan", "0.5,-inf"])
def test_non_finite_xs_is_a_config_error_before_the_sweep(tmp_path, capsys, xs):
    # --xs inf on a continuous input used to print NumPy's RuntimeWarning
    # from the Laplace sweep before failing on its non-finite values
    spec = write_spec(tmp_path, ac.Convergent(2.0))
    out_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["tauber", "--input", spec, "--h", "0.25", "--count", "2049",
                       f"--xs={xs}", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "xs must be finite" in err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_needs_a_sample(tmp_path, capsys, count):
    # --count 0 used to fall back to the default and write 4096 rows
    spec = write_spec(tmp_path, ac.Character(0.25))
    out = tmp_path / "never.csv"
    rc = cli.main(["generate", "--spec", spec, "--out", str(out), "--h", "0.1",
                   "--count", count])
    assert rc == 1
    assert "at least one sample" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="at least one sample"):
        ac.render_continuous(ac.Character(0.25), 0.0, 0.1, int(count))


def test_reports_are_strict_json(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        serialize.dump_json({"tol": float("nan")}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("cases", ["-1", "0"])
def test_cyclic_suite_needs_a_case(tmp_path, capsys, cases):
    # zero cases used to report "passed": true without checking anything
    out_dir = tmp_path / "run"
    rc = cli.main(["cyclic", "--order", "8", "--cases", cases,
                   "--out-dir", str(out_dir)])
    assert rc == 1
    assert "cases" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("order", ["-3", "0"])
def test_cyclic_order_below_one_is_a_config_error(tmp_path, capsys, order):
    # --order -3 used to end in NumPy's "negative dimensions are not allowed"
    out_dir = tmp_path / "run"
    rc = cli.main(["cyclic", "--order", order, "--cases", "1",
                   "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "order must be at least 1" in err and "dimensions" not in err
    assert not (out_dir / "report.json").exists()


def test_cyclic_tolerance_below_float_resolution_is_a_config_error(tmp_path, capsys):
    # the suite's own float64 data used to fail such a tolerance, and the
    # run ended as a violated hypothesis (exit 2)
    out_dir = tmp_path / "run"
    rc = cli.main(["cyclic", "--order", "8", "--cases", "1", "--tol", "1e-300",
                   "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "floor" in err and "N=8" in err
    assert not (out_dir / "report.json").exists()


def test_cyclic_tolerance_floor_leaves_room_for_the_suite():
    # seeded runs first fail at about 1e-15 (N = 8, 64) to 1e-13 (N = 1024)
    for n, failing in ((8, 1e-15), (64, 1e-15), (256, 1e-14), (1024, 1e-13)):
        assert failing < cyclic.tolerance_floor(n) < 1e-9
    assert cyclic.random_suite(8, 1, 5, cyclic.tolerance_floor(8))["passed"]


@pytest.mark.parametrize("x0, h", [(np.inf, 0.05), (np.nan, 0.05), (-np.inf, 0.05),
                                   (0.0, np.nan), (0.0, np.inf)])
def test_non_finite_grid_is_a_config_error_before_rendering(tmp_path, capsys, x0, h):
    # --x0 inf used to render with two RuntimeWarnings and then fail on
    # "signal values must be finite"
    line = ac.DirichletLine((1, 1), 2.0)
    spec = write_spec(tmp_path, line)
    out_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="grid"):
            ac.render_continuous(line, x0, h, 16)
        rc = cli.main(["chain", "--input", spec, "--count", "4096", f"--x0={x0}",
                       f"--h={h}", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "grid" in err and "values must be finite" not in err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("render", [
    lambda: ac.render_continuous(ac.Convergent(2.0), 0.0, 0.0, 4),
    lambda: ac.render_continuous(ac.Convergent(2.0), 0.0, -0.5, 4),
    lambda: ac.render_discrete(ac.Character(0.25), 5, 2),
])
def test_bad_sampling_grid_is_a_config_error(render):
    # a non-positive step and an empty index range used to raise a plain
    # ValueError, unlike a non-finite grid or count < 1
    with pytest.raises(ConfigError):
        render()


@pytest.mark.parametrize("argv", [
    ["generate", "--h", "0"],
    ["generate", "--n-min", "5", "--n-max", "2"],
    ["analyze", "--n-min", "5", "--n-max", "2"],
])
def test_bad_sampling_grid_exits_one(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, ac.Character(0.25))
    out = tmp_path / "out"
    where = ["--spec", spec, "--out", str(out / "s.csv")] if argv[0] == "generate" \
        else ["--input", spec, "--out-dir", str(out)]
    assert cli.main(argv + where) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def _files(root):
    """{relative path: bytes} of every file under root."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def _run_on_fresh_parser(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def test_shared_parser_matches_a_fresh_one(tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    assert cli.main(["cyclic", "--order"]) == 1
    assert cli.main(["--help"]) == 0
    assert "usage: almostconv" in capsys.readouterr().out
    spec = write_spec(tmp_path, ac.Character(0.25))
    line = write_spec(tmp_path, ac.Convergent(2.0), "line.json")
    samples = tmp_path / "samples.csv"
    serialize.signal_to_csv(ac.DiscreteSignal(0, np.tile([1.0, 0.0], 256), 1.0),
                            str(samples))
    jobs = [
        ["generate", "--spec", spec, "--n-min", "0", "--n-max", "63",
         "--out", "{out}/s.csv"],
        ["analyze", "--analysis", "cesaro", "--input", spec, "--n-max", "511",
         "--k-max", "64", "--out-dir", "{out}"],
        ["spectrum", "--input", spec, "--n-max", "1023", "--deltas", "0.125",
         "--out-dir", "{out}"],
        ["tauber", "--input", str(samples), "--xs", "0.5,0.75",
         "--out-dir", "{out}"],
        ["chain", "--input", line, "--h", "0.25", "--count", "1025",
         "--out-dir", "{out}"],
        ["cyclic", "--order", "8", "--cases", "2", "--out-dir", "{out}"],
    ]
    for i, job in enumerate(jobs):
        outs = []
        for side, run in (("shared", cli.main), ("fresh", _run_on_fresh_parser)):
            out = tmp_path / f"{side}{i}"
            out.mkdir()
            rc = run([a.replace("{out}", str(out)) for a in job])
            outs.append((rc, _files(out)))
        assert outs[0] == outs[1], job[0]
        assert outs[0][0] == 0 and outs[0][1], job[0]


_HOSTILE = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "", "x", "1e400", "-0.5"])
_VALID = {
    "--n-min": st.integers(-64, 64).map(str),
    "--n-max": st.integers(-8, 512).map(str),
    "--x0": st.sampled_from(["0", "-4.5", "8"]),
    "--h": st.sampled_from(["0.05", "0.25", "0.5"]),
    "--count": st.integers(1, 1024).map(str),
    "--k-min": st.sampled_from(["2", "4", "8"]),
    "--k-max": st.sampled_from(["16", "64", "256"]),
    "--growth": st.sampled_from(["2", "1.5", "3"]),
    "--tol": st.sampled_from(["1e-2", "1e-9", "0.5"]),
    "--seed": st.integers(0, 9).map(str),
    "--sidedness": st.sampled_from(["one", "two"]),
    "--deltas": st.sampled_from(["0.25", "0.25,0.125", "0.1,0.05"]),
    "--xs": st.sampled_from(["0.5,0.75", "0.03125"]),
    "--order": st.integers(1, 16).map(str),
    "--cases": st.integers(1, 3).map(str),
    "--analysis": st.sampled_from(["cesaro", "spectral", "tauber", "chain",
                                   "cyclic-suite"]),
}
_COMMON = ["--input", "--config", "--tol", "--seed", "--k-min", "--k-max",
           "--growth", "--sidedness", "--deltas", "--xs", "--n-min", "--n-max",
           "--x0", "--h", "--count", "--order", "--cases"]
_COMMAND_OPTIONS = {
    "generate": ["--spec", "--n-min", "--n-max", "--x0", "--h", "--count"],
    "analyze": ["--input", "--analysis"] + _COMMON[1:],
    "spectrum": _COMMON, "tauber": _COMMON, "chain": _COMMON, "cyclic": _COMMON,
}


# JSON values of the wrong type, sign or size for any config field or spec key
_JSON_HOSTILE = st.sampled_from([None, "", "x", [], {}, [1, "x"], True, -1, 0, -0.5,
                                 1.5, 10 ** 400, float("nan"), float("inf")])
_CONFIG_VALID = {
    "analysis": st.sampled_from(["cesaro", "spectral", "tauber", "chain",
                                 "cyclic-suite", "bogus"]),
    "k_min": st.sampled_from([2, 4, 8.0]),
    "k_max": st.sampled_from([16, 64, 256.0]),
    "growth": st.sampled_from([2, 1.5, 3]),
    "sidedness": st.sampled_from(["one", "two"]),
    "deltas": st.lists(st.sampled_from([0.25, 0.125, 0.05]), max_size=3),
    "xs": st.lists(st.sampled_from([0.5, 0.75, 0.03125]), max_size=3),
    "tol": st.sampled_from([1e-2, 1e-9, 0.5]),
    "seed": st.integers(0, 9),
    "cases": st.integers(1, 3),
    "order": st.integers(1, 16),
    "n_min": st.integers(-64, 64),
    "n_max": st.integers(-8, 512),
    "x0": st.sampled_from([0, -4.5, 8.0]),
    "h": st.sampled_from([0.05, 0.25, 0.5]),
    "count": st.integers(1, 1024),
}
_SMALL = st.floats(-4.0, 4.0)
_SMALL_SPECS = st.one_of(
    st.builds(ac.Character, _SMALL),
    st.builds(ac.TrigPoly, _tuples(st.tuples(st.builds(complex, _SMALL, _SMALL), _SMALL))),
    st.builds(ac.DirichletLine, _tuples(st.builds(complex, _SMALL, _SMALL)),
              st.floats(-1.0, 3.0), _SMALL),
    st.builds(ac.MeasureTransform, _tuples(st.tuples(_SMALL, st.builds(complex, _SMALL)), 0)),
    st.builds(ac.BlockSequence, _tuples(st.builds(complex, _SMALL)), st.floats(1.1, 4.0)),
    st.builds(ac.Convergent, st.builds(complex, _SMALL), st.sampled_from(["exp", "power"]),
              st.floats(0.1, 4.0)),
    st.builds(ac.Custom, _tuples(st.builds(complex, _SMALL)), _SMALL,
              st.floats(0.05, 2.0)),
)
_CSV_CELLS = st.sampled_from(["0", "1", "-2.5", "0.25", "1e-300", "nan", "inf", "-inf",
                              "1e400", "x", "", "1,2"])
_META = st.sampled_from(["kind=discrete", "kind=continuous", "kind=bogus", "n_min=0",
                         "n_min=x", "n_min=1e400", "x0=0", "x0=nan", "h=0.5", "h=0",
                         "h=-1", "h=inf", "bound=1", "bound=nan", "bound=-1",
                         "extension=valid_only", "extension=bogus", "source=custom"])


@st.composite
def _config_text(draw):
    """Config file text: mostly an object of known fields with valid or
    hostile values, sometimes another JSON value or broken text."""
    kind = draw(st.sampled_from(["object", "object", "object", "other", "broken"]))
    if kind == "broken":
        return "{"
    if kind == "other":
        return json.dumps(draw(_JSON_HOSTILE))
    obj = {}
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALID) + ["bogus"]),
                             unique=True, max_size=4)):
        valid = _CONFIG_VALID.get(key, _JSON_HOSTILE)
        obj[key] = draw(valid if draw(st.integers(0, 3)) else _JSON_HOSTILE)
    return json.dumps(obj)


@st.composite
def _spec_text(draw):
    """Generator spec text: a small valid spec, possibly with one key given
    a hostile value or dropped."""
    obj = serialize.generator_to_dict(draw(_SMALL_SPECS))
    how = draw(st.sampled_from(["valid", "valid", "hostile", "drop"]))
    key = draw(st.sampled_from(sorted(obj)))
    if how == "hostile":
        obj[key] = draw(_JSON_HOSTILE)
    elif how == "drop":
        del obj[key]
    return json.dumps(obj)


@st.composite
def _samples_text(draw):
    """Sample file text: metadata, a header and rows of valid or hostile cells."""
    meta = draw(st.lists(_META, max_size=4))
    lines = ["# signal " + " ".join(meta)] if meta else []
    lines.append("index,re,im")
    rows = [[str(i), str(i % 3), "0"] for i in range(draw(st.integers(0, 300)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = \
            draw(_CSV_CELLS)
    return "\n".join(lines + [",".join(row) for row in rows]) + "\n"


@pytest.fixture(scope="module")
def reference_job(tmp_path_factory):
    """A fixed job and the bytes it writes on a fresh parser."""
    root = tmp_path_factory.mktemp("reference")
    reference = ["analyze", "--input", write_spec(root, ac.Character(0.25)),
                 "--n-max", "255", "--k-max", "32", "--out-dir", "{out}"]
    out = root / "reference"
    assert _run_on_fresh_parser([a.replace("{out}", str(out)) for a in reference]) == 0
    return reference, _files(out)


def _check_strict(name, blob):
    text = blob.decode("utf-8")
    if name.endswith(".json"):
        def reject(token):
            raise AssertionError(f"{name} holds {token}")
        json.loads(text, parse_constant=reject)
        return
    assert name.endswith(".csv"), name
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    assert rows and all(len(row) == len(rows[0]) for row in rows), name
    for row in rows[1:]:
        assert all(np.isfinite(float(cell)) for cell in row), (name, row)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_argv_ends_in_an_exit_code(reference_job, tmp_path_factory, data):
    reference, expected = reference_job
    root = tmp_path_factory.mktemp("fuzz")
    inputs = tmp_path_factory.mktemp("fuzz_inputs")
    command = data.draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    source = "--spec" if command == "generate" else "--input"
    flags = [source] + data.draw(st.lists(
        st.sampled_from(_COMMAND_OPTIONS[command][1:]), unique=True, max_size=4))
    argv = [command]
    for flag in flags:
        if flag == source:
            name = data.draw(st.sampled_from(["spec.json", "samples.csv", "missing.json"]))
            text = {"spec.json": _spec_text(), "samples.csv": _samples_text()}.get(name)
            if text is not None:
                (inputs / name).write_text(data.draw(text))
            valid = st.just(str(inputs / name))
        elif flag == "--config":
            (inputs / "config.json").write_text(data.draw(_config_text()))
            valid = st.just(str(inputs / "config.json"))
        else:
            valid = _VALID[flag]
        how = data.draw(st.sampled_from(["valid", "valid", "valid", "hostile", "bare"]))
        if how == "bare":
            argv.append(flag)
        else:
            argv += [flag, data.draw(valid if how == "valid" else _HOSTILE)]
    argv += ["--out", str(root / "out.csv")] if command == "generate" \
        else ["--out-dir", str(root / "out")]
    rc = cli.main(argv)
    assert rc in (0, 1, 2)
    for name, blob in _files(root).items():
        _check_strict(name, blob)
    out = root / "reference"
    assert cli.main([a.replace("{out}", str(out)) for a in reference]) == 0
    assert _files(out) == expected
