"""Command-line front end.

Subcommands: ``generate``, ``analyze``, ``spectrum``, ``tauber``,
``chain``, ``cyclic``.  Every path is a thin composition of library
calls; reports are JSON (schema-versioned) and curves are CSV, written
atomically, and byte-identical for identical (input, config, seed).

Exit codes: 0 - analysis completed (whatever the verdict);
1 - configuration error (bad files, invalid schedules);
2 - a declared hypothesis failed on the data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import cesaro, cyclic, spectral, tauberian
from .errors import (
    AlmostconvError,
    ConfigError,
    DivergentSeries,
    HypothesisViolated,
    InsufficientCoefficients,
    KernelVanishes,
    NotAMean,
    NotInvariant,
    TailNotControlled,
)
from .serialize import (
    SCHEMA_VERSION,
    chain_report_to_dict,
    dump_json,
    load_generator,
    mean_sweep_to_csv,
    mean_sweep_to_dict,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
    sweep_to_csv,
    verdict_to_dict,
)
from .signals import (
    Convergent,
    DirichletLine,
    DiscreteSignal,
    MeasureTransform,
    Sidedness,
    WindowSchedule,
    render_continuous,
    render_discrete,
)

_HYPOTHESIS_ERRORS = (HypothesisViolated, TailNotControlled, KernelVanishes,
                      DivergentSeries, NotAMean, NotInvariant,
                      InsufficientCoefficients)


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
        if not all(math.isfinite(d) for d in self.deltas):
            raise ConfigError("deltas must be finite")
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

    def schedule(self) -> WindowSchedule:
        side = Sidedness.ONE_SIDED if self.sidedness == "one" else Sidedness.TWO_SIDED
        k_min, k_max = self.k_min, self.k_max
        if float(k_min).is_integer() and float(k_max).is_integer() \
                and float(self.growth).is_integer():
            k_min, k_max = int(k_min), int(k_max)
        return WindowSchedule.geometric(k_min, k_max, self.growth, side)


def config_from_file(path: str) -> AnalysisConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    known = {f for f in AnalysisConfig.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("deltas", "xs"):
        if key in obj:
            obj[key] = tuple(obj[key])
    try:
        return AnalysisConfig(**obj)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_input_signal(config: AnalysisConfig):
    """Generator JSON renders per the config; CSV loads as-is."""
    path = config.input
    if not path:
        raise ConfigError("no input given")
    if path.endswith(".json"):
        spec = load_generator(path)
        try:
            if _prefers_continuous(spec):
                return spec, render_continuous(spec, config.x0, config.h,
                                               config.count)
            return spec, render_discrete(spec, config.n_min, config.n_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return None, signal_from_csv(path)


def _prefers_continuous(spec) -> bool:
    return isinstance(spec, (DirichletLine, MeasureTransform, Convergent))


def _report_path(config: AnalysisConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def run(config: AnalysisConfig) -> int:
    """Dispatch one analysis and write its report files."""
    if config.analysis == "cesaro":
        _, signal = load_input_signal(config)
        sweep = cesaro.cesaro_sweep(signal, config.schedule())
        verdict = cesaro.ac_verdict(sweep, config.tol)
        sweep_to_csv(sweep, _report_path(config, "sweep.csv"))
        dump_json({"schema": SCHEMA_VERSION, "analysis": "cesaro",
                   "tol": config.tol, "verdict": verdict_to_dict(verdict)},
                  _report_path(config, "report.json"))
        return 0
    if config.analysis == "spectral":
        _, signal = load_input_signal(config)
        est = spectral.dft_spectrum(signal)
        verdict = spectral.spectral_ac_verdict(signal, config.deltas, config.tol)
        spectrum_to_csv(est, _report_path(config, "spectrum.csv"))
        dump_json({"schema": SCHEMA_VERSION, "analysis": "spectral",
                   "tol": config.tol, "deltas": list(config.deltas),
                   "verdict": verdict_to_dict(verdict)},
                  _report_path(config, "report.json"))
        return 0
    if config.analysis == "tauber":
        _, signal = load_input_signal(config)
        if isinstance(signal, DiscreteSignal):
            xs = config.xs or (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
            sweep = tauberian.abel_sweep(signal.values, signal.bound, xs)
        else:
            xs = config.xs or (2.0 ** (-5), 2.0 ** (-6), 2.0 ** (-7))
            sweep = tauberian.laplace_sweep(signal, xs)
        mean_sweep_to_csv(sweep, _report_path(config, "mean_sweep.csv"))
        dump_json({"schema": SCHEMA_VERSION, "analysis": "tauber",
                   "sweep": mean_sweep_to_dict(sweep)},
                  _report_path(config, "report.json"))
        return 0
    if config.analysis == "chain":
        _, signal = load_input_signal(config)
        report = tauberian.chain_report(
            signal, tauberian.ChainConfig(tol=config.tol))
        dump_json({"schema": SCHEMA_VERSION, "analysis": "chain",
                   "tol": config.tol, "report": chain_report_to_dict(report)},
                  _report_path(config, "report.json"))
        return 0
    if config.analysis == "cyclic-suite":
        tol = min(config.tol, 1e-9)
        floor = cyclic.tolerance_floor(config.order)
        if tol < floor:
            raise ConfigError(f"cyclic tol {tol:.3g} is below the float64 "
                              f"floor {floor:.3g} for N={config.order}")
        suite = cyclic.random_suite(config.order, config.cases, config.seed, tol)
        dump_json({"schema": SCHEMA_VERSION, "analysis": "cyclic-suite",
                   **suite}, _report_path(config, "report.json"))
        return 0
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


def _merge_config(args: argparse.Namespace,
                  analysis: Optional[str] = None) -> AnalysisConfig:
    config = config_from_file(args.config) if args.config else AnalysisConfig()
    updates = {}
    for key in ("input", "out_dir", "tol", "seed", "k_min", "k_max", "growth",
                "sidedness", "n_min", "n_max", "x0", "h", "count", "order",
                "cases"):
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = val
    for key in ("deltas", "xs"):
        raw = getattr(args, key, None)
        if raw is not None:
            try:
                updates[key] = tuple(float(tok) for tok in raw.split(",") if tok)
            except ValueError as exc:
                raise ConfigError(f"bad --{key}: {exc}") from exc
    if analysis is not None:
        updates["analysis"] = analysis
    elif getattr(args, "analysis", None):
        updates["analysis"] = args.analysis
    try:
        return replace(config, **updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = load_generator(args.spec)
    if args.h is not None:
        signal = render_continuous(spec, args.x0 or 0.0, args.h,
                                   args.count or 4096)
    else:
        n_min = args.n_min if args.n_min is not None else 0
        n_max = args.n_max if args.n_max is not None else 4095
        signal = render_discrete(spec, n_min, n_max)
    signal_to_csv(signal, args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    return run(_merge_config(args))


def _cmd_spectrum(args: argparse.Namespace) -> int:
    return run(_merge_config(args, "spectral"))


def _cmd_tauber(args: argparse.Namespace) -> int:
    return run(_merge_config(args, "tauber"))


def _cmd_chain(args: argparse.Namespace) -> int:
    return run(_merge_config(args, "chain"))


def _cmd_cyclic(args: argparse.Namespace) -> int:
    return run(_merge_config(args, "cyclic-suite"))


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
    p.set_defaults(func=_cmd_analyze)

    for name, func, hlp in (
            ("spectrum", _cmd_spectrum, "spectrum estimate + spectral verdict"),
            ("tauber", _cmd_tauber, "boundary mean sweep"),
            ("chain", _cmd_chain, "convergence-chain report"),
            ("cyclic", _cmd_cyclic, "random duality suite on Z_N")):
        p = sub.add_parser(name, help=hlp)
        _add_common(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, AlmostconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
