import numpy as np
import pytest

import almostconv as ac
from almostconv import serialize
from almostconv.cesaro import cesaro_sweep
from almostconv.cyclic import CyclicFunction
from almostconv.errors import ConfigError
from almostconv.signals import DiscreteSignal, Extension, Signal, WindowSchedule, subtract
from almostconv.spectral import convolve, require_unit_mass


@pytest.fixture(scope="session")
def generator_corpus():
    """Generators with exactly known almost-convergence limits, rendered.

    Each entry: (name, spec, signal, known_limit or None).
    """
    entries = []

    def add(name, spec, signal):
        entries.append((name, spec, signal, ac.known_limit(spec)))

    add("constant", ac.TrigPoly(((2.0, 0.0),)),
        ac.render_discrete(ac.TrigPoly(((2.0, 0.0),)), 0, 4096))
    add("char_half", ac.Character(0.5),
        ac.render_discrete(ac.Character(0.5), 0, 2 ** 14))
    add("char_seventh", ac.Character(1 / 7),
        ac.render_discrete(ac.Character(1 / 7), -2 ** 14, 2 ** 14))
    add("trig_poly", ac.TrigPoly(((0.7, 0.0), (0.4, 1 / 8), (0.2 - 0.1j, -1 / 4))),
        ac.render_discrete(
            ac.TrigPoly(((0.7, 0.0), (0.4, 1 / 8), (0.2 - 0.1j, -1 / 4))),
            0, 2 ** 14))
    add("measure", ac.MeasureTransform(((0.0, 0.3), (0.2, 0.35), (-0.2, 0.35))),
        ac.render_continuous(
            ac.MeasureTransform(((0.0, 0.3), (0.2, 0.35), (-0.2, 0.35))),
            -2048.0, 0.5, 8193))
    add("dirichlet", ac.DirichletLine((1, 1), 2.0),
        ac.render_continuous(ac.DirichletLine((1, 1), 2.0), 0.0, 0.05, 81921))
    add("convergent", ac.Convergent(2.0),
        ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 2049))
    add("blocks", ac.BlockSequence(),
        ac.render_discrete(ac.BlockSequence(), 0, 2 ** 16))
    add("partial_sums", ac.PartialSums(ac.Character(0.5)),
        ac.render_discrete(ac.PartialSums(ac.Character(0.5)), 0, 2 ** 14))
    return entries


def brute_window_mean(values, n_min, k, shift, sidedness="two"):
    """Independent window-mean oracle: explicit Python summation."""
    if sidedness == "two":
        idx = range(shift - k, shift + k + 1)
        width = 2 * k + 1
    else:
        idx = range(shift, shift + k)
        width = k
    total = 0
    for n in idx:
        total += values[n - n_min]
    return total / width


def delta_kernel() -> DiscreteSignal:
    """The unit of convolution."""
    return DiscreteSignal(0, [1.0], 1.0, Extension.VALID_ONLY, "kernel")


def fejer_kernel(width: int) -> DiscreteSignal:
    """Triangular unit-mass kernel supported on ``[-width//2, width//2]``."""
    m = max(1, width // 2)
    j = np.arange(-m, m + 1)
    w = 1.0 - np.abs(j) / (m + 1.0)
    w /= w.sum()
    return DiscreteSignal(-m, w, float(w.max()), Extension.VALID_ONLY, "kernel")


def convolution_invariance_residual(signal: Signal, kernel: Signal,
                                    schedule: WindowSchedule) -> float:
    """Size of the uniform-mean functionals on ``signal - kernel*signal``.

    For any nonnegative unit-mass kernel the difference has upper and
    lower uniform means exactly zero in the limit, so the returned
    ``max(|p_bar_est|, |p_lower_est|)`` should shrink as the schedule
    grows; it quantifies how far the finite sweep is from that identity.
    """
    vals = np.asarray(kernel.values)
    if np.any(vals.real < -1e-12) or np.any(np.abs(vals.imag) > 1e-12):
        raise ValueError("kernel must be nonnegative")
    require_unit_mass(kernel)
    sweep = cesaro_sweep(subtract(signal, convolve(signal, kernel)), schedule)
    return float(max(abs(sweep.p_bar_est), abs(sweep.p_lower_est)))


def save_generator(spec, path: str) -> None:
    """Write a generator spec as the JSON file the CLI reads."""
    serialize.dump_json(serialize.generator_to_dict(spec), path)


def cyclic_to_csv(f: CyclicFunction, path: str) -> None:
    """Write a Z_N function as ``index,re,im`` rows under a ``# cyclic N=`` line."""
    serialize._write_rows(path, f"# cyclic N={f.N}\nindex,re,im\n", range(f.N),
                          *serialize._parts(f.values))


def cyclic_from_csv(path: str) -> CyclicFunction:
    """Read what :func:`cyclic_to_csv` writes."""
    meta, _, vals = serialize._read_table(path, "cyclic samples")
    n = int(meta.get("N", len(vals)))
    if n != len(vals):
        raise ConfigError(f"declared N={n} but {len(vals)} rows present")
    if not np.isfinite(vals).all():
        raise ConfigError("cyclic values must be finite")
    return CyclicFunction(n, vals)
