"""Command-line front end.

Subcommands: ``generate``, ``analyze``, ``spectrum``, ``tauber``,
``chain``, ``cyclic``.  Every path is a thin composition of library
calls; reports are JSON (schema-versioned) and curves are CSV, written
atomically, and byte-identical for identical (input, config, seed).

Exit codes: 0 - analysis completed (whatever the verdict);
1 - configuration error (bad files, invalid schedules, a render too
large to allocate); 2 - a declared hypothesis failed on the data, that
is, a :class:`~almostconv.errors.HypothesisViolated` of any subclass.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from . import cesaro, cyclic, spectral, tauberian
from .errors import AlmostconvError, ConfigError, HypothesisViolated
from .serialize import (
    SCHEMA_VERSION,
    dump_json,
    load_generator,
    mean_sweep_to_csv,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
    sweep_to_csv,
)
from .signals import (
    Convergent,
    DirichletLine,
    MeasureTransform,
    Sidedness,
    WindowSchedule,
    render_continuous,
    render_discrete,
)

@dataclass
class AnalysisConfig:
    """Mirror of the CLI flags; loadable from a JSON file via --config."""

    input: str = ""
    analysis: str = "cesaro"
    k_min: float = 4
    k_max: float = 256
    growth: float = 2.0
    sidedness: str = "two"
    deltas: tuple = (0.25, 0.125, 0.0625)
    xs: tuple = ()
    tol: float = 1e-2
    seed: int = 0
    cases: int = 100
    order: int = 64
    n_min: int = 0
    n_max: int = 4096
    x0: float = 0.0
    h: float = 0.05
    count: int = 4096
    out_dir: str = "."

    def __post_init__(self):
        for name in ("tol", "growth", "k_min", "k_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("deltas", "xs"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.k_min >= self.k_max:
            raise ConfigError("need k_min < k_max")
        if self.growth <= 1:
            raise ConfigError("growth factor must exceed 1")
        if self.sidedness not in ("one", "two"):
            raise ConfigError("sidedness must be 'one' or 'two'")
        if self.cases < 1:
            raise ConfigError("cases must be at least 1")
        if self.order < 1:
            raise ConfigError("order must be at least 1")

    def schedule(self) -> WindowSchedule:
        side = Sidedness.ONE_SIDED if self.sidedness == "one" else Sidedness.TWO_SIDED
        k_min, k_max = self.k_min, self.k_max
        if float(k_min).is_integer() and float(k_max).is_integer() \
                and float(self.growth).is_integer():
            k_min, k_max = int(k_min), int(k_max)
        return WindowSchedule.geometric(k_min, k_max, self.growth, side)


# JSON types each kind of AnalysisConfig field accepts, and their names
_CONFIG_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                 "float": ((int, float), "a number"),
                 "tuple": ((int, float), "a list of numbers")}


def config_from_file(path: str) -> AnalysisConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    fields = AnalysisConfig.__dataclass_fields__
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, value in obj.items():
        kind = fields[key].type
        want, what = _CONFIG_TYPES[kind]
        items = value if kind == "tuple" else [value]
        # a JSON boolean is a Python int, but no number
        if not isinstance(items, list) or not all(
                isinstance(v, want) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"bad config: {key} must be {what}")
        if kind == "tuple":
            obj[key] = tuple(value)
    try:
        return AnalysisConfig(**obj)
    except OverflowError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_input_signal(config: AnalysisConfig):
    """Generator JSON renders per the config; CSV loads as-is."""
    path = config.input
    if not path:
        raise ConfigError("no input given")
    if path.endswith(".json"):
        return _render(load_generator(path), config)
    return signal_from_csv(path)


def _render(spec, config: AnalysisConfig, continuous: bool = False):
    """The spec on the config's range: on the real line when ``continuous``
    or when its kind lives there, on the integers otherwise."""
    if continuous or isinstance(spec, (DirichletLine, MeasureTransform, Convergent)):
        return render_continuous(spec, config.x0, config.h, config.count)
    return render_discrete(spec, config.n_min, config.n_max)


def _report_path(config: AnalysisConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _report(config: AnalysisConfig, **fields) -> int:
    """Write ``report.json``: the schema, the analysis and ``fields``."""
    dump_json({"schema": SCHEMA_VERSION, "analysis": config.analysis, **fields},
              _report_path(config, "report.json"))
    return 0


def run(config: AnalysisConfig) -> int:
    """Dispatch one analysis and write its report files."""
    if config.analysis == "cesaro":
        sweep = cesaro.cesaro_sweep(load_input_signal(config), config.schedule())
        verdict = cesaro.ac_verdict(sweep, config.tol)
        sweep_to_csv(sweep, _report_path(config, "sweep.csv"))
        return _report(config, tol=config.tol, verdict=verdict)
    if config.analysis == "spectral":
        signal = load_input_signal(config)
        est = spectral.dft_spectrum(signal)
        verdict = spectral.spectral_ac_verdict(signal, config.deltas, config.tol)
        spectrum_to_csv(est, _report_path(config, "spectrum.csv"))
        return _report(config, tol=config.tol, deltas=config.deltas, verdict=verdict)
    if config.analysis == "tauber":
        sweep = tauberian.boundary_sweep(load_input_signal(config), config.xs)
        mean_sweep_to_csv(sweep, _report_path(config, "mean_sweep.csv"))
        return _report(config, sweep=sweep)
    if config.analysis == "chain":
        report = tauberian.chain_report(load_input_signal(config), config.tol)
        return _report(config, tol=config.tol, report=report)
    if config.analysis == "cyclic-suite":
        tol = min(config.tol, 1e-9)
        floor = cyclic.tolerance_floor(config.order)
        if tol < floor:
            raise ConfigError(f"cyclic tol {tol:.3g} is below the float64 "
                              f"floor {floor:.3g} for N={config.order}")
        return _report(config, **cyclic.random_suite(config.order, config.cases,
                                                      config.seed, tol))
    raise ConfigError(f"unknown analysis {config.analysis!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of AnalysisConfig fields")
    p.add_argument("--input", help="generator spec (.json) or samples (.csv)")
    p.add_argument("--out-dir", help="directory for report files")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-min", type=float)
    p.add_argument("--k-max", type=float)
    p.add_argument("--growth", type=float)
    p.add_argument("--sidedness", choices=["one", "two"])
    p.add_argument("--deltas", help="comma-separated gap half-widths")
    p.add_argument("--xs", help="comma-separated abscissas")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--x0", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--order", type=int, help="cyclic group order N")
    p.add_argument("--cases", type=int)


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    config = config_from_file(args.config) if args.config else AnalysisConfig()
    updates = {}
    for key, field in AnalysisConfig.__dataclass_fields__.items():
        val = getattr(args, key, None)
        if val is None:
            continue
        if field.type == "tuple":
            try:
                val = tuple(float(tok) for tok in val.split(",") if tok)
            except ValueError as exc:
                raise ConfigError(f"bad --{key}: {exc}") from exc
        updates[key] = val
    try:
        return replace(config, **updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = load_generator(args.spec)
    # the range that analysing the spec itself renders, as far as not given
    grid = replace(AnalysisConfig(), **{
        key: getattr(args, key) for key in ("n_min", "n_max", "x0", "h", "count")
        if getattr(args, key) is not None})
    signal_to_csv(_render(spec, grid, continuous=args.h is not None), args.out)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return run(_merge_config(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostconv",
        description="Almost-convergence analysis of bounded sequences and "
                    "sampled functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a generator spec to samples CSV")
    p.add_argument("--spec", required=True, help="generator spec JSON path")
    p.add_argument("--out", required=True, help="output samples CSV path")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--x0", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--count", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="run an analysis selected by --analysis")
    p.add_argument("--analysis",
                   choices=["cesaro", "spectral", "tauber", "chain",
                            "cyclic-suite"])
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    for name, analysis, hlp in (
            ("spectrum", "spectral", "spectrum estimate + spectral verdict"),
            ("tauber", "tauber", "boundary mean sweep"),
            ("chain", "chain", "convergence-chain report"),
            ("cyclic", "cyclic-suite", "random duality suite on Z_N")):
        p = sub.add_parser(name, help=hlp)
        _add_common(p)
        p.set_defaults(func=_cmd_run, analysis=analysis)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (see the module doc).

    The parser is built on the first call and reused by every later one
    in the process; parsing keeps no state between calls, so each call
    behaves as on a fresh :func:`build_parser`.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (AlmostconvError, ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
