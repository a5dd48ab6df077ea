"""CSV and JSON round-trips for signals, generators, and reports.

File formats:

- generator specs: JSON object with a ``"kind"`` discriminator;
- signals: CSV with ``index,re,im`` (discrete) or ``x,re,im``
  (continuous) rows after ``#``-prefixed metadata lines;
- sweeps: CSV ``k,sup_re,sup_im,inf_re,inf_im,argmax,argmin``;
- spectra: CSV ``freq,magnitude,masked``;
- verdicts and reports: JSON with a ``"schema"`` version field.

All writers are deterministic (sorted keys, shortest-roundtrip floats)
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

import numpy as np

from .errors import ConfigError
from .signals import (
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
from .cesaro import ACVerdict, CesaroSweep, VerdictStatus
from .cyclic import CyclicFunction
from .spectral import SpectrumEstimate
from .tauberian import ChainReport, MeanSweep

SCHEMA_VERSION = 1


def _c2j(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _j2c(obj) -> complex:
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    return complex(obj)


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never see a partial file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj, path: str) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


def save_generator(spec: GeneratorSpec, path: str) -> None:
    dump_json(generator_to_dict(spec), path)


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

def signal_to_csv(signal: Signal, path: str) -> None:
    lines = []
    if isinstance(signal, DiscreteSignal):
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
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_meta(line: str) -> dict:
    out = {}
    for token in line.lstrip("# ").split():
        if "=" in token:
            key, val = token.split("=", 1)
            out[key] = val
    return out


def signal_from_csv(path: str) -> Signal:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    meta = {}
    rows = []
    header_seen = False
    for ln in lines:
        if ln.startswith("#"):
            meta.update(_parse_meta(ln))
            continue
        if not header_seen:
            header_seen = True  # column header
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"bad sample row {ln!r}")
        rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
    if not rows:
        raise ConfigError("no sample rows found")
    vals = np.asarray([complex(r, i) for _, r, i in rows])
    ext = Extension(meta.get("extension", "valid_only"))
    source = meta.get("source")
    if source in (None, "-"):
        source = "custom"
    kind = meta.get("kind")
    if kind is None:
        xs = [r[0] for r in rows]
        kind = "discrete" if all(abs(x - round(x)) < 1e-9 for x in xs) and \
            (len(xs) < 2 or abs(xs[1] - xs[0] - 1) < 1e-9) else "continuous"
    bound = float(meta["bound"]) if "bound" in meta else float(np.max(np.abs(vals)))
    try:
        if kind == "discrete":
            n_min = int(meta.get("n_min", round(rows[0][0])))
            return DiscreteSignal(n_min, vals, bound, ext, source)
        x0 = float(meta.get("x0", rows[0][0]))
        if "h" in meta:
            h = float(meta["h"])
        elif len(rows) > 1:
            h = rows[1][0] - rows[0][0]
        else:
            raise ConfigError("continuous samples need a step")
        return ContinuousSignal(x0, h, vals, bound, ext, source)
    except ValueError as exc:
        raise ConfigError(f"inconsistent samples: {exc}") from exc


# ---------------------------------------------------------------------------
# analysis outputs
# ---------------------------------------------------------------------------

def sweep_to_csv(sweep: CesaroSweep, path: str) -> None:
    lines = ["k,sup_re,sup_im,inf_re,inf_im,argmax,argmin"]
    for k, s, i, am, an in zip(sweep.lengths, sweep.sup, sweep.inf,
                               sweep.argmax, sweep.argmin):
        lines.append(f"{float(k)!r},{float(s.real)!r},{float(s.imag)!r},"
                     f"{float(i.real)!r},{float(i.imag)!r},"
                     f"{float(am)!r},{float(an)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def spectrum_to_csv(est: SpectrumEstimate, path: str) -> None:
    lines = ["freq,magnitude,masked"]
    for f, m, b in zip(est.freqs, est.magnitudes, est.support_mask):
        lines.append(f"{float(f)!r},{float(m)!r},{int(b)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def mean_sweep_to_csv(sweep: MeanSweep, path: str) -> None:
    lines = ["abscissa,re,im"]
    for x, v in zip(sweep.abscissas, sweep.values):
        lines.append(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def verdict_to_dict(v: ACVerdict) -> dict:
    out = {
        "status": v.status.value,
        "limit": _c2j(v.limit) if v.limit is not None else None,
        "uncertainty": v.uncertainty,
        "notes": v.notes,
    }
    if v.witness is not None:
        k, s1, s2, gap = v.witness
        out["witness"] = {"window": k, "shift_sup": s1, "shift_inf": s2,
                          "gap": gap}
    else:
        out["witness"] = None
    return out


def mean_sweep_to_dict(sweep: MeanSweep) -> dict:
    return {
        "method": sweep.method.value,
        "abscissas": list(sweep.abscissas),
        "values": [_c2j(v) for v in sweep.values],
        "extrapolated_limit": (_c2j(sweep.extrapolated_limit)
                               if sweep.extrapolated_limit is not None else None),
        "tail_bound": sweep.tail_bound,
    }


def chain_report_to_dict(report: ChainReport) -> dict:
    return {
        "c_verdict": verdict_to_dict(report.c_verdict),
        "wstar_verdict": verdict_to_dict(report.wstar_verdict),
        "ac_verdict": verdict_to_dict(report.ac_verdict),
        "difference_decay": [
            {"shift": d.shift, "verdict": verdict_to_dict(d.verdict)}
            for d in report.difference_decay
        ],
        "oscillation_modulus": report.oscillation_modulus,
        "consistency": report.consistency,
        "violations": list(report.violations),
    }


def cyclic_to_csv(f: CyclicFunction, path: str) -> None:
    lines = [f"# cyclic N={f.N}", "index,re,im"]
    for i, v in enumerate(f.values):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def cyclic_from_csv(path: str) -> CyclicFunction:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read cyclic samples {path}: {exc}") from exc
    meta = {}
    rows = []
    header_seen = False
    for ln in lines:
        if ln.startswith("#"):
            meta.update(_parse_meta(ln))
            continue
        if not header_seen:
            header_seen = True
            continue
        parts = ln.split(",")
        rows.append(complex(float(parts[1]), float(parts[2])))
    n = int(meta.get("N", len(rows)))
    if n != len(rows):
        raise ConfigError(f"declared N={n} but {len(rows)} rows present")
    return CyclicFunction(n, np.asarray(rows))
