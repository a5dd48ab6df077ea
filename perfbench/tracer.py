"""Span recorder that wraps ``almostconv`` functions from the outside.

Each traced function is replaced, for the length of a ``with`` block, in
every ``almostconv`` module namespace that binds it: ``cli`` imports the
renderers and the serialize readers and writers by name, ``tauberian``
imports ``cesaro_sweep``, ``ac_verdict`` and ``convolve`` by name, and
``spectral_ac_verdict`` calls the module global ``highpass_project``.
Wrapping only the defining module would miss all of those calls.  Every
original binding is restored when the block ends.

A span is (id, parent id, name, start, end, job key, error flag, counts).
Self time is a span's duration minus the durations of its direct
children.  With ``alloc=True`` the recorder instead tracks, through
``tracemalloc``, the peak bytes allocated above the level at entry for
each layer; that pass is separate so its overhead does not touch the
timings.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# layer -> functions traced in that layer's module
TARGETS = {
    "signals": ("render_discrete", "render_continuous"),
    "cesaro": ("cesaro_sweep", "ac_verdict"),
    "spectral": ("dft_spectrum", "spectral_ac_verdict", "highpass_project",
                 "convolve"),
    "tauberian": ("chain_report", "ordinary_verdict", "weak_star_verdict",
                  "oscillation_modulus", "abel_sweep", "laplace_sweep"),
    "cyclic": ("random_suite", "verify_character_spectrum", "annihilator",
               "span_rank"),
    "serialize": ("load_generator", "dump_json", "signal_from_csv",
                  "signal_to_csv", "sweep_to_csv", "spectrum_to_csv",
                  "mean_sweep_to_csv"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)

_CSV_WRITERS = ("signal_to_csv", "sweep_to_csv", "spectrum_to_csv",
                "mean_sweep_to_csv")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _window_means(signal, schedule, stride: int) -> int:
    """Window means a sweep computes: admissible shifts per snapped window.

    Follows the sweep's conventions for signals that must keep windows
    inside the rendered range: ``n - 2m`` shifts for a two-sided window of
    half-width m samples, ``n - m + 1`` (discrete) or ``n - m`` (continuous)
    for a one-sided one, on signals that start at or after 0.
    """
    n = len(signal)
    h = getattr(signal, "h", None)
    two_sided = str(getattr(schedule.sidedness, "value", schedule.sidedness)) \
        == "two_sided"
    total = 0
    for k in schedule.lengths:
        m = int(round(k / h)) if h else int(round(k))
        if two_sided:
            count = n - 2 * m
        else:
            count = n - m + (0 if h else 1)
        total += -(-max(count, 0) // stride)
    return total


def _counts(fn_name: str, args, kwargs, result) -> dict:
    """Work counts recorded at the boundary, after the span's end time."""
    if fn_name in ("render_discrete", "render_continuous"):
        return {"samples": len(result)}
    if fn_name == "cesaro_sweep":
        schedule = _arg(args, kwargs, 1, "schedule")
        stride = args[2] if len(args) > 2 else kwargs.get("shift_stride", 1)
        return {"windows": len(schedule.lengths),
                "window_means": _window_means(args[0], schedule, stride)}
    if fn_name == "random_suite":
        return {"cases": int(_arg(args, kwargs, 1, "cases"))}
    if fn_name in _CSV_WRITERS:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    if fn_name == "signal_from_csv":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if fn_name == "main":
        return {"exit_nonzero": int(result != 0)}
    return {}


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []          # (id, parent, name, t0, t1, job, error, counts)
        self.peaks = defaultdict(int)  # layer -> peak bytes above entry level
        self.job = None
        self._stack = []         # open frames: [id, peak_seen, base]
        self._next_id = 0
        self._saved = []         # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "almostconv"
                                         or name.startswith("almostconv."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"almostconv.{layer}")
            if home is None:
                continue
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.alloc:
            tracemalloc.stop()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, span_name: str, fn_name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                tracer._close(frame, span_name, t0, t1, True, {})
                raise
            t1 = time.perf_counter()
            try:
                counts = _counts(fn_name, args, kwargs, result)
            except (OSError, LookupError, TypeError, AttributeError, ValueError):
                counts = {}  # a count the library's shapes no longer support
            tracer._close(frame, span_name, t0, t1, False, counts)
            return result

        return wrapper

    # -- span bookkeeping -----------------------------------------------------

    def _open(self) -> list:
        span_id = self._next_id
        self._next_id += 1
        base = 0
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[1] = max(parent[1], peak)
            tracemalloc.reset_peak()
            base = current
        frame = [span_id, base, base]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, t0, t1, error, counts) -> None:
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        if self.alloc:
            _, peak = tracemalloc.get_traced_memory()
            frame[1] = max(frame[1], peak)
            layer = name.split(".", 1)[0]
            self.peaks[layer] = max(self.peaks[layer], frame[1] - frame[2])
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], frame[1])
        self.spans.append((frame[0], parent, name, t0, t1, self.job, error,
                           counts))


def self_times(spans) -> dict:
    """span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, parent, _, t0, t1, _, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1, _, _, _ in spans}


def layer_metrics(spans, peaks: dict, cycles: int) -> dict:
    """Per-layer metrics per cycle of the workload's job list."""
    selfs = self_times(spans)
    s = defaultdict(float)      # span name -> summed self time
    total = defaultdict(float)  # span name -> summed duration
    n = defaultdict(int)        # span name -> calls
    c = defaultdict(int)        # count name -> summed counts
    calls = defaultdict(int)
    errors = defaultdict(int)
    for sid, _, name, t0, t1, _, error, counts in spans:
        layer = name.split(".", 1)[0]
        s[name] += selfs[sid]
        total[name] += t1 - t0
        n[name] += 1
        calls[layer] += 1
        errors[layer] += int(error)
        for key, value in counts.items():
            c[f"{name}.{key}"] += value

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    csv_write_s = sum(s[f"serialize.{w}"] for w in _CSV_WRITERS)
    csv_write_bytes = sum(c[f"serialize.{w}.bytes"] for w in _CSV_WRITERS)
    csv_read_bytes = c["serialize.signal_from_csv.bytes"]
    render_s = s["signals.render_discrete"] + s["signals.render_continuous"]
    samples = (c["signals.render_discrete.samples"]
               + c["signals.render_continuous.samples"])
    window_means = c["cesaro.cesaro_sweep.window_means"]
    cases = c["cyclic.random_suite.cases"]
    mb = 1 << 20
    # totals over the traced cycles, reported per cycle
    totals = {
        "signals.render_s": render_s,
        "signals.samples": samples,
        "cesaro.sweep_s": s["cesaro.cesaro_sweep"],
        "cesaro.windows": c["cesaro.cesaro_sweep.windows"],
        "cesaro.window_means": window_means,
        "cesaro.verdict_s": s["cesaro.ac_verdict"],
        "spectral.dft_s": s["spectral.dft_spectrum"],
        "spectral.verdict_s": s["spectral.spectral_ac_verdict"],
        "spectral.highpass_calls": n["spectral.highpass_project"],
        "spectral.highpass_s": s["spectral.highpass_project"],
        "spectral.convolve_s": s["spectral.convolve"],
        "spectral.convolve_calls": n["spectral.convolve"],
        "tauberian.chain_self_s": s["tauberian.chain_report"],
        "tauberian.ordinary_s": s["tauberian.ordinary_verdict"],
        "tauberian.weak_star_s": s["tauberian.weak_star_verdict"],
        "tauberian.weak_star_calls": n["tauberian.weak_star_verdict"],
        "tauberian.osc_modulus_s": s["tauberian.oscillation_modulus"],
        "tauberian.mean_sweep_s": (s["tauberian.abel_sweep"]
                                   + s["tauberian.laplace_sweep"]),
        "cyclic.suite_s": s["cyclic.random_suite"],
        "cyclic.cases": cases,
        "cyclic.character_spectrum_s": s["cyclic.verify_character_spectrum"],
        "cyclic.annihilator_s": s["cyclic.annihilator"],
        "cyclic.annihilator_calls": n["cyclic.annihilator"],
        "cyclic.span_rank_s": s["cyclic.span_rank"],
        "cyclic.span_rank_calls": n["cyclic.span_rank"],
        "serialize.csv_write_s": csv_write_s,
        "serialize.csv_write_bytes": csv_write_bytes,
        "serialize.csv_read_s": s["serialize.signal_from_csv"],
        "serialize.csv_read_bytes": csv_read_bytes,
        "serialize.json_s": (s["serialize.dump_json"]
                             + s["serialize.load_generator"]),
        "cli.self_s": s["cli.main"],
        "cli.jobs": n["cli.main"],
        "cli.exit_nonzero": c["cli.main.exit_nonzero"],
    }
    for layer in LAYERS:
        totals[f"{layer}.calls"] = calls[layer]
        totals[f"{layer}.errors"] = errors[layer]
    out = {k: v / cycles for k, v in totals.items()}
    out.update({
        "signals.ns_per_sample": ratio(render_s, samples, 1e9),
        "cesaro.ns_per_window_mean": ratio(s["cesaro.cesaro_sweep"],
                                           window_means, 1e9),
        "cyclic.ms_per_case": ratio(total["cyclic.random_suite"], cases, 1e3),
        "serialize.csv_write_mb_per_s": ratio(csv_write_bytes / mb, csv_write_s),
        "serialize.csv_read_mb_per_s": ratio(csv_read_bytes / mb,
                                             s["serialize.signal_from_csv"]),
    })
    for layer in ("cesaro", "cyclic", "serialize"):
        out[f"{layer}.peak_alloc_mb"] = peaks.get(layer, 0) / mb
    return out
