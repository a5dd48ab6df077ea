"""CSV and JSON round-trips for signals, generators, and reports.

File formats:

- generator specs: JSON object with a ``"kind"`` discriminator;
- signals: CSV with ``index,re,im`` (discrete) or ``x,re,im``
  (continuous) rows after ``#``-prefixed metadata lines;
- sweeps: CSV ``k,sup_re,sup_im,inf_re,inf_im,argmax,argmin``;
- spectra: CSV ``freq,magnitude,masked``;
- verdicts and reports: JSON with a ``"schema"`` version field, each
  record in them written by field name (:func:`report_fields`).

All writers are deterministic (sorted keys, shortest-roundtrip floats)
so identical inputs produce byte-identical files.  CSV writers stream
rows in blocks of ``signals.BLOCK``: every float cell is its ``repr``
and every int cell its ``str``, written as five NUL-padded 8-byte words
into a table of the block's rows, whose bytes with the NULs dropped are
the file's bytes.  Within a block each distinct value of a column with
repeats (by bits, so ``-0.0`` is apart from ``0.0``) is formatted once
and its words copied to every row that holds it.  Many values to format
go to a NumPy kernel (:mod:`almostconv._shortest`) that computes the
same shortest round-trip digits for all of them at once; a float it
cannot certify, and every value of a small block, is formatted by Python.
Sample files are parsed by ``np.loadtxt``, whose float
conversion is correctly rounded like ``float()``.  Unlike a ``float()``
per field, it reads a ``#`` after the data on a row as the start of a
comment, and it rejects ``1_000``, non-ASCII digits, and lines after
the header that hold only whitespace or whitespace and then a ``#``
comment.  Metadata lines are found by a literal search for ``#``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .signals import (
    BLOCK,
    BlockSequence,
    Character,
    ContinuousSignal,
    Convergent,
    Custom,
    Density,
    DirichletLine,
    DiscreteSignal,
    Extension,
    GeneratorSpec,
    MeasureTransform,
    PartialSums,
    Signal,
    TrigPoly,
)
from .cesaro import CesaroSweep
from .spectral import SpectrumEstimate
from .tauberian import MeanSweep

SCHEMA_VERSION = 1


def _c2j(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _j2c(obj) -> complex:
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    return complex(obj)


def atomic_write_text(path: str, chunks: Iterable[bytes]) -> None:
    """Write the encoded text's chunks, then rename, so readers never see
    a partial file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_fields(obj):
    """``obj`` as JSON values: a record (dataclass or NamedTuple) as an
    object of its fields, a complex as ``{"re", "im"}``, an enum as its
    value, a tuple or list as a list, a dict by value; anything else as
    it is."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return _c2j(obj)
    if is_dataclass(obj):
        return {f.name: report_fields(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return report_fields(obj._asdict())
    if isinstance(obj, (tuple, list)):
        return [report_fields(v) for v in obj]
    if isinstance(obj, dict):
        return {key: report_fields(v) for key, v in obj.items()}
    return obj


def dump_json(obj, path: str) -> None:
    """Write ``obj``, through :func:`report_fields`, as strict JSON."""
    text = json.dumps(report_fields(obj), sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, ((text + "\n").encode(),))


# ---------------------------------------------------------------------------
# generator specs
# ---------------------------------------------------------------------------

def generator_to_dict(spec: GeneratorSpec) -> dict:
    if isinstance(spec, Character):
        return {"kind": "character", "frequency": spec.frequency}
    if isinstance(spec, TrigPoly):
        return {"kind": "trig_poly",
                "terms": [{"coefficient": _c2j(c), "frequency": f}
                          for c, f in spec.terms]}
    if isinstance(spec, DirichletLine):
        return {"kind": "dirichlet_line",
                "coeffs": [_c2j(c) for c in spec.coeffs],
                "sigma": spec.sigma, "abscissa": spec.abscissa}
    if isinstance(spec, MeasureTransform):
        out = {"kind": "measure_transform",
               "atoms": [{"frequency": f, "weight": _c2j(w)}
                         for f, w in spec.atoms]}
        if spec.density is not None:
            out["density"] = {"freq_min": spec.density.freq_min,
                              "freq_max": spec.density.freq_max,
                              "values": [_c2j(v) for v in spec.density.values]}
        return out
    if isinstance(spec, BlockSequence):
        return {"kind": "block_sequence",
                "symbols": [_c2j(s) for s in spec.symbols],
                "growth": spec.growth}
    if isinstance(spec, PartialSums):
        return {"kind": "partial_sums", "inner": generator_to_dict(spec.inner)}
    if isinstance(spec, Convergent):
        return {"kind": "convergent", "limit": _c2j(spec.limit),
                "decay": spec.decay, "rate": spec.rate,
                "amplitude": _c2j(spec.amplitude)}
    if isinstance(spec, Custom):
        return {"kind": "custom", "values": [_c2j(v) for v in spec.values],
                "start": spec.start, "step": spec.step}
    raise TypeError(f"not a generator spec: {spec!r}")


def _present(obj: dict, **convert) -> dict:
    """Converted values of the optional keys ``obj`` has.

    A missing key is left out, so the spec class's own default applies.
    """
    return {key: conv(obj[key]) for key, conv in convert.items() if key in obj}


def generator_from_dict(obj: dict) -> GeneratorSpec:
    try:
        kind = obj["kind"]
        if kind == "character":
            return Character(float(obj["frequency"]))
        if kind == "trig_poly":
            return TrigPoly(tuple((_j2c(t["coefficient"]), float(t["frequency"]))
                                  for t in obj["terms"]))
        if kind == "dirichlet_line":
            return DirichletLine(tuple(_j2c(c) for c in obj["coeffs"]),
                                 float(obj["sigma"]),
                                 **_present(obj, abscissa=float))
        if kind == "measure_transform":
            dens = None
            if obj.get("density") is not None:
                d = obj["density"]
                dens = Density(float(d["freq_min"]), float(d["freq_max"]),
                               tuple(_j2c(v) for v in d["values"]))
            return MeasureTransform(tuple((float(a["frequency"]), _j2c(a["weight"]))
                                          for a in obj["atoms"]), dens)
        if kind == "block_sequence":
            return BlockSequence(**_present(
                obj, symbols=lambda v: tuple(_j2c(s) for s in v),
                growth=float))
        if kind == "partial_sums":
            return PartialSums(generator_from_dict(obj["inner"]))
        if kind == "convergent":
            return Convergent(_j2c(obj["limit"]),
                              **_present(obj, decay=str, rate=float,
                                         amplitude=_j2c))
        if kind == "custom":
            return Custom(tuple(_j2c(v) for v in obj["values"]),
                          **_present(obj, start=float, step=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed generator spec: {exc}") from exc
    raise ConfigError(f"unknown generator kind {obj.get('kind')!r}")


def load_generator(path: str) -> GeneratorSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read generator spec {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("generator spec must be a JSON object")
    return generator_from_dict(obj)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _parts(values) -> tuple:
    z = np.asarray(values, dtype=np.complex128)
    return z.real, z.imag


#: Fewest cells that go to the vectorised kernel: below this, its fixed
#: cost outweighs a ``float.__repr__`` or ``str`` per cell.
KERNEL_MIN = 512
_U8 = np.dtype("<u8")
#: Rows of the table compacted at once, which bounds the copy it takes
_COMPACT = 4096


def _format(values: np.ndarray, out: np.ndarray, end: str) -> None:
    """Write each value's text, then ``end``, into its row of five
    NUL-padded words of ``out``: ``repr`` of a float, ``str`` of an int.
    Fewer than :data:`KERNEL_MIN` values are formatted by Python, more by
    :mod:`almostconv._shortest`."""
    if len(values) < KERNEL_MIN:
        text = map(float.__repr__ if values.dtype.kind == "f" else str, values.tolist())
        out[:] = np.array([t + end for t in text], "S40").view(_U8).reshape(-1, 5)
        return
    from ._shortest import cells
    cells(values, out, end)


def _cells(column, out: np.ndarray, end: str) -> None:
    """Write the column's cells, each followed by ``end``, into ``out``.

    Where a strided sample of about 1,024 of the values repeats one (by
    bits, so ``-0.0`` is apart from ``0.0``), each distinct value (found
    by ``np.unique`` on the bits) is formatted once and its row of words
    gathered to every row holding it.  A column whose sample is all
    distinct, such as a spectrum's frequencies or an index range, would
    share almost nothing, and its values are formatted as they are.
    """
    if isinstance(column, range):
        column = np.arange(column.start, column.stop, dtype=np.int64)
    elif column.dtype.kind != "f":
        column = column.astype(np.int64, copy=False)
    bits = column.view(np.int64)
    sample = bits[::max(1, len(bits) // 1024)]
    if len(np.unique(sample)) == len(sample):
        _format(column, out, end)
        return
    bits, where = np.unique(bits, return_inverse=True)
    words = np.empty((len(bits), 5), _U8)
    _format(bits.view(column.dtype), words, end)
    np.take(words, where, axis=0, out=out)


def _write_rows(path: str, head: str, *columns) -> None:
    """Write ``head``, then one comma-joined line per row of the columns.

    The columns are equal-length float or int arrays, or ranges.  Rows
    are formatted ``BLOCK`` at a time into one table of five NUL-padded
    8-byte words per cell, reused for every block, whose bytes with the
    NULs dropped (``_COMPACT`` rows at a time) are the block's lines: no
    Python object is made per cell, and no string of the whole file is
    built.
    """
    n = len(columns[0])
    ends = [","] * (len(columns) - 1) + ["\n"]
    table = np.empty((min(n, BLOCK), len(columns), 5), _U8)

    def chunks():
        yield head.encode()
        for lo in range(0, n, BLOCK):
            rows = table[:n - lo]
            for c, (column, end) in enumerate(zip(columns, ends)):
                _cells(column[lo:lo + BLOCK], rows[:, c], end)
            for at in range(0, len(rows), _COMPACT):
                yield rows[at:at + _COMPACT].tobytes().translate(None, b"\0")

    atomic_write_text(path, chunks())


_HASH_TO_EOL = re.compile(r"#(.*)")
_TABLE_LINE = re.compile(r"^\s*[^#\s]", re.M)


def _meta_lines(text: str):
    r"""What follows ``#`` on each line whose first non-space is that ``#``.

    These are the matches of ``^\s*#(.*)`` under ``re.M`` (whose ``\s``
    is ``str.isspace``), found by a literal search for ``#`` rather than
    a match attempt at every character of the text.
    """
    for m in _HASH_TO_EOL.finditer(text):
        pos = m.start()
        lead = text[text.rfind("\n", 0, pos) + 1:pos]
        if not lead or lead.isspace():
            yield m.group(1)


def _parse_meta(line: str) -> dict:
    out = {}
    for token in line.lstrip("# ").split():
        if "=" in token:
            key, val = token.split("=", 1)
            out[key] = val
    return out


def _read_table(path: str, what: str) -> tuple:
    """Metadata, first column and complex values of an ``index,re,im`` file.

    Every line starting with ``#`` contributes ``key=value`` metadata; the
    first other non-blank line is the column header; ``np.loadtxt`` reads
    the rows after it, treating ``#`` as the start of a comment.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    meta = {}
    for line in _meta_lines(text):
        meta.update(_parse_meta(line))
    lines = _TABLE_LINE.finditer(text)
    header = next(lines, None)
    if next(lines, None) is None:
        raise ConfigError("no sample rows found")
    try:
        table = np.loadtxt(path, delimiter=",", comments="#",
                           skiprows=text.count("\n", 0, header.end()) + 1,
                           dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"bad sample rows in {path}: {exc}") from exc
    if table.shape[1] != 3:
        raise ConfigError(f"sample rows need 3 columns, found {table.shape[1]}")
    vals = np.empty(len(table), dtype=np.complex128)
    vals.real = table[:, 1]
    vals.imag = table[:, 2]
    return meta, table[:, 0], vals


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

def signal_to_csv(signal: Signal, path: str) -> None:
    tail = (f"bound={float(signal.bound)!r} extension={signal.extension.value} "
            f"source={signal.source or '-'}\n")
    if isinstance(signal, DiscreteSignal):
        n = len(signal.values)
        head = f"# signal kind=discrete n_min={signal.n_min} {tail}index,re,im\n"
        _write_rows(path, head, range(signal.n_min, signal.n_min + n),
                    *_parts(signal.values))
        return
    # x_at(i) = x0 + i*h: the same multiply and add, element by element
    xs = float(signal.x0) + np.arange(len(signal.samples)) * float(signal.h)
    head = (f"# signal kind=continuous x0={float(signal.x0)!r} "
            f"h={float(signal.h)!r} {tail}x,re,im\n")
    _write_rows(path, head, xs, *_parts(signal.samples))


def signal_from_csv(path: str) -> Signal:
    """The signal of a samples CSV, whose first column must list its grid.

    Row ``j`` must sit at ``x_at(j)`` within ``1e-9 * max(1, step)``, plus,
    on a continuous grid, the ``4 * (j + 2)`` spacings of its largest
    position that decimal rows and a step read off them can round by.  The
    writer's rows differ by 0; integer grids round by nothing.
    """
    meta, xs, vals = _read_table(path, "samples")
    source = meta.get("source")
    if source in (None, "-"):
        source = "custom"
    kind = meta.get("kind")
    if kind is None:
        if not np.isfinite(xs).all():
            raise ConfigError("sample positions must be finite")
        kind = "discrete" if np.all(np.abs(xs - np.round(xs)) < 1e-9) and \
            (len(xs) < 2 or abs(xs[1] - xs[0] - 1) < 1e-9) else "continuous"
    elif kind not in ("discrete", "continuous"):
        raise ConfigError(f"unknown signal kind {kind!r}")
    try:
        ext = Extension(meta.get("extension", "valid_only"))
        bound = float(meta["bound"]) if "bound" in meta else float(np.max(np.abs(vals)))
        if kind == "discrete":
            n_min = int(meta["n_min"]) if "n_min" in meta else round(float(xs[0]))
            signal = DiscreteSignal(n_min, vals, bound, ext, source)
        else:
            x0 = float(meta.get("x0", xs[0]))
            if "h" in meta:
                h = float(meta["h"])
            elif len(xs) > 1:
                h = float(xs[1] - xs[0])
            else:
                raise ConfigError("continuous samples need a step")
            signal = ContinuousSignal(x0, h, vals, bound, ext, source)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"inconsistent samples: {exc}") from exc
    rows = np.arange(len(xs))
    grid = signal.x_at(rows)
    tol = 1e-9 * max(1.0, signal.step)
    if kind == "continuous":
        scale = max(abs(signal.start), abs(signal.x_end), signal.step)
        tol = tol + 4.0 * (rows + 2) * np.spacing(scale)
    with np.errstate(over="ignore"):
        off = np.flatnonzero(~(np.abs(xs - grid) <= tol))
    if off.size:
        j = off[0]
        raise ConfigError(
            f"inconsistent samples: row {j} (from 0) is at {float(xs[j])!r}, "
            f"but the grid from {float(signal.start)!r} by "
            f"{float(signal.step)!r} puts it at {float(grid[j])!r}")
    return signal


# ---------------------------------------------------------------------------
# analysis outputs
# ---------------------------------------------------------------------------

def sweep_to_csv(sweep: CesaroSweep, path: str) -> None:
    _write_rows(path, "k,sup_re,sup_im,inf_re,inf_im,argmax,argmin\n",
                _floats(sweep.lengths), *_parts(sweep.sup), *_parts(sweep.inf),
                _floats(sweep.argmax), _floats(sweep.argmin))


def spectrum_to_csv(est: SpectrumEstimate, path: str) -> None:
    _write_rows(path, "freq,magnitude,masked\n", _floats(est.freqs),
                _floats(est.magnitudes), np.asarray(est.support_mask, dtype=np.int64))


def mean_sweep_to_csv(sweep: MeanSweep, path: str) -> None:
    _write_rows(path, "abscissa,re,im\n", _floats(sweep.abscissas),
                *_parts(sweep.values))
