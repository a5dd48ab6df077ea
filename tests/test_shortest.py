"""The vectorised ``repr`` kernel against ``float.__repr__``, the CSV
writer's bytes against a plain ``repr``/``str`` reference, and which CSV
blocks go to the kernel."""

import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import _shortest, cli, serialize
from almostconv.spectral import SpectrumEstimate, Taper


def _reprs(values: np.ndarray) -> list:
    """The kernel's cells for the floats, as strings."""
    out = np.empty((len(values), 5), np.uint64)
    _shortest.cells(values, out, "\n")
    return out.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


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
    assert _reprs(np.array(values)) == [repr(v) for v in values]


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
    assert _reprs(values) == list(map(float.__repr__, values.tolist()))


def test_fft_magnitudes_need_no_fallback(monkeypatch):
    seen = _fallbacks(monkeypatch)
    values = np.abs(np.fft.fft(np.random.default_rng(5).standard_normal(2 ** 14)))
    assert _reprs(values) == list(map(float.__repr__, values.tolist()))
    assert seen == []


def test_integers_below_1e17_need_no_fallback(monkeypatch):
    # their interval ends are exact: the significand's parity says whether
    # round-half-even reads them back to the float
    seen = _fallbacks(monkeypatch)
    values = np.random.default_rng(6).integers(-10 ** 17, 10 ** 17, 200_000) \
        .astype(np.float64)
    assert _reprs(values) == list(map(float.__repr__, values.tolist()))
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
    assert _reprs(np.array([value, 1.5])) == [text, "1.5"]
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
    calls, cells = [], _shortest.cells

    def spy(values, out, end):
        calls.append((values.dtype.kind, len(values)))
        cells(values, out, end)

    monkeypatch.setattr(_shortest, "cells", spy)
    n = 2 * ac.signals.BLOCK
    rng = np.random.default_rng(3)
    mags = np.abs(np.fft.fft(rng.standard_normal(n)))
    est = SpectrumEstimate(freqs=np.fft.fftfreq(n), magnitudes=mags, taper=Taper.HANN,
                           mask_threshold=0.5, support_mask=mags > 100,
                           parseval_rel_error=0.0, window_length=n, step=1.0)
    serialize.spectrum_to_csv(est, str(tmp_path / "spectrum.csv"))
    # both float columns of both blocks; the two values of the mask go to
    # Python
    assert calls == [("f", ac.signals.BLOCK)] * 4
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert rows == [f"{f!r},{m!r},{int(b)}" for f, m, b in
                    zip(est.freqs.tolist(), mags.tolist(), est.support_mask)]


@st.composite
def _tables(draw):
    """Columns of one length: floats with repeats or mostly distinct, ints
    of up to 18 digits (past 16 they are left to ``str``), and ranges."""
    block = ac.signals.BLOCK
    n = draw(st.sampled_from([serialize.KERNEL_MIN - 1, serialize.KERNEL_MIN,
                              block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array(draw(st.lists(st.floats(allow_subnormal=True), max_size=40))
                    + [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.0 ** -1030])
    columns = []
    for kind in draw(st.lists(st.sampled_from(["repeats", "distinct", "ints", "range"]),
                              min_size=1, max_size=4)):
        if kind == "repeats":
            columns.append(pool[rng.integers(0, len(pool), n)])
        elif kind == "distinct":
            # a strided view, as the real part of complex samples is
            z = rng.integers(-2 ** 63, 2 ** 63 - 1, 2 * n, dtype=np.int64) \
                .view(np.complex128)
            z.real[rng.integers(0, n, len(pool))] = pool
            columns.append(z.real)
        elif kind == "ints":
            top = 10 ** draw(st.integers(1, 18))
            columns.append(rng.integers(1 - top, top, n))
        else:
            start = draw(st.integers(-2 ** 53, 2 ** 53 - n + 1))
            columns.append(range(start, start + n))
    return columns


@given(_tables())
@settings(max_examples=40, deadline=None)
def test_written_rows_are_reprs_and_strs(columns):
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    expected = "h\n" + "".join(",".join(map(repr, row)) + "\n" for row in zip(*cells))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        serialize._write_rows(path, "h\n", *columns)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode()
