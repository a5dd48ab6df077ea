"""The vectorised ``repr`` kernel against ``float.__repr__``, and which CSV
blocks go to it."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import _shortest, cli, serialize
from almostconv.spectral import SpectrumEstimate, Taper


def _fallbacks(monkeypatch) -> list:
    """Collect the floats the kernel hands to ``repr``."""
    seen = []

    def spy(value):
        seen.append(value)
        return float.__repr__(value)

    monkeypatch.setattr(_shortest, "repr", spy, raising=False)
    return seen


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_every_drawn_float_reads_as_its_repr(values):
    assert _shortest.reprs(np.array(values)) == [repr(v) for v in values]


def _classes(rng) -> dict:
    n = 12_000
    digits = rng.integers(1, 18, n)
    decimals = np.floor(rng.random(n) * 10.0 ** digits) + 10.0 ** (digits - 1)
    tens, twos = 10.0 ** np.arange(-300, 300), 2.0 ** np.arange(-1070, 1020)
    return {
        "bit patterns": rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
        .view(np.float64),
        "decimals": decimals * 10.0 ** rng.integers(-25, 26, n).astype(float),
        "near powers of 10": np.concatenate(
            [np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)]),
        "near powers of 2": np.concatenate(
            [np.nextafter(twos, 0), twos, np.nextafter(twos, np.inf)]),
        "dyadics": rng.integers(-2 ** 30, 2 ** 30, n) / 2.0 ** rng.integers(0, 40, n),
        "fft magnitudes": np.abs(np.fft.fft(rng.standard_normal(2 * n)))[:n],
        "fftfreq grid": np.fft.fftfreq(n, 0.1),
        "sample grid": -0.5 + 0.05 * np.arange(n),
    }


@pytest.mark.parametrize("name", [
    "bit patterns", "decimals", "near powers of 10", "near powers of 2", "dyadics",
    "fft magnitudes", "fftfreq grid", "sample grid"])
def test_seeded_classes_read_as_their_repr(name):
    values = _classes(np.random.default_rng(20230104))[name]
    assert _shortest.reprs(values) == list(map(float.__repr__, values.tolist()))


def test_fft_magnitudes_need_no_fallback(monkeypatch):
    seen = _fallbacks(monkeypatch)
    values = np.abs(np.fft.fft(np.random.default_rng(5).standard_normal(2 ** 14)))
    assert _shortest.reprs(values) == list(map(float.__repr__, values.tolist()))
    assert seen == []


def test_powers_of_ten_table_is_double_double_exact():
    for k, hi, lo in zip(range(_shortest._K0, _shortest._K1), _shortest._HI,
                         _shortest._LO):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2 ** 104, k


@pytest.mark.parametrize("value, text", [(7.4e22, "7.4e+22"),
                                         (1.824934528e22, "1.824934528e+22")])
def test_interval_end_ties_go_to_repr(monkeypatch, value, text):
    # x + ulp/2 is exactly the short decimal, which reads back to x only
    # because x's significand is even: the kernel leaves it to repr
    x = np.float64(value)
    assert Fraction(float(x)) + Fraction(float(np.spacing(x))) / 2 == Fraction(text)
    seen = _fallbacks(monkeypatch)
    assert _shortest.reprs(np.array([value, 1.5])) == [text, "1.5"]
    assert seen == [value]


def test_small_tables_never_load_the_kernel(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "almostconv._shortest")
    monkeypatch.delattr(ac, "_shortest")
    spec = tmp_path / "trig.json"
    spec.write_text(json.dumps(serialize.generator_to_dict(
        ac.TrigPoly(((0.5, 0.0), (0.3, 0.125))))))
    assert cli.main(["analyze", "--input", str(spec), "--n-max", "4095",
                     "--out-dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert 0 < len(rows) < serialize.KERNEL_MIN
    assert "almostconv._shortest" not in sys.modules


def test_spectrum_blocks_go_to_the_kernel(tmp_path, monkeypatch):
    calls, reprs = [], _shortest.reprs

    def spy(values):
        calls.append(len(values))
        return reprs(values)

    monkeypatch.setattr(_shortest, "reprs", spy)
    n = 2 * ac.signals.BLOCK
    rng = np.random.default_rng(3)
    mags = np.abs(np.fft.fft(rng.standard_normal(n)))
    est = SpectrumEstimate(freqs=np.fft.fftfreq(n), magnitudes=mags, taper=Taper.HANN,
                           mask_threshold=0.5, support_mask=mags > 100,
                           parseval_rel_error=0.0, window_length=n, step=1.0)
    serialize.spectrum_to_csv(est, str(tmp_path / "spectrum.csv"))
    # both float columns of both blocks
    assert calls == [ac.signals.BLOCK] * 4
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert rows == [f"{f!r},{m!r},{int(b)}" for f, m, b in
                    zip(est.freqs.tolist(), mags.tolist(), est.support_mask)]
