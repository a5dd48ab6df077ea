"""Bounded sampled signals, closed-form generators, and window schedules.

One type carries all data through the analysis routes: a :class:`Signal`
holds complex samples on a uniform grid ``x_j = start + j*step`` with a
declared sup bound, and owns the quadrature rule of its group's Haar
measure.  Its running sum, quadrature weights and mean apply that rule,
so every module agrees on quadrature.

- :class:`DiscreteSignal` - the integers with counting measure: step 1,
  ``start`` is the integer ``n_min``, integrals are plain sums.
- :class:`ContinuousSignal` - the real line with Lebesgue measure: step
  ``h``, ``start`` is ``x0``, integrals are trapezoid sums.

Everything else (shifting, scaling, subtracting, convolving) works on
``start``, ``step`` and ``values`` alone and keeps the signal's kind.

Each signal declares an extension policy. ``VALID_ONLY`` (the default)
means analysis windows must fit inside the rendered range; operations
that cannot honor that raise instead of silently touching the boundary.
``ZERO_OUTSIDE`` treats the signal as identically zero off its range.

Generators are small frozen recipes (:data:`GeneratorSpec`) with exact
closed forms, so every rendered signal comes with a certified bound and,
where theory pins it down, a known almost-convergence limit
(:func:`known_limit`) that the analysis routes can be checked against.

Rendering (:func:`evaluate_many`) runs in cache-sized blocks on a small
thread pool, one thread per CPU.  Each sample has the same bits as the
whole-array formula gives it, whatever the number of points rendered.
A sum of characters whose samples provably repeat every :data:`BLOCK`
grid points (dyadic frequencies on an exact dyadic grid, as on Z ->
Z_{2^k}) is rendered over one block and tiled, with the same bits.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import (
    AliasingError,
    ConfigError,
    DivergentSeries,
    UnsupportedPoint,
    WindowOutOfRange,
)

#: Aliasing guard for continuous rendering: require h * f_max <= this.
MAX_CYCLES_PER_STEP = 0.1

_BOUND_SLACK = 1e-12


class Extension(str, Enum):
    """How windows touching the rendered boundary are treated."""

    VALID_ONLY = "valid_only"
    ZERO_OUTSIDE = "zero_outside"


class Sidedness(str, Enum):
    """Two-sided windows ``[x-k, x+k]`` or one-sided ``[x, x+k)``."""

    TWO_SIDED = "two_sided"
    ONE_SIDED = "one_sided"


def _as_complex(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128)
    if out.ndim != 1 or out.size == 0:
        raise ValueError("signal values must be a nonempty 1-d array")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError("signal values must be finite")
    return out


def _check_bound(values: np.ndarray, bound: float) -> None:
    if not math.isfinite(bound) or bound < 0:
        raise ValueError(f"bound must be finite and nonnegative, got {bound}")
    top = float(np.max(np.abs(values)))
    if top > bound * (1.0 + _BOUND_SLACK) + _BOUND_SLACK:
        raise ValueError(f"|values| reach {top} above declared bound {bound}")


@dataclass(frozen=True)
class Signal:
    """Complex samples at ``x_j = start + j*step``, with a quadrature rule.

    Subclasses fix the rule: :class:`DiscreteSignal` sums its values,
    :class:`ContinuousSignal` integrates by the trapezoid rule.  Every
    window sum, weight vector and mean comes from :meth:`running_sum`,
    :meth:`weights` and :meth:`mean`.

    Parameters
    ----------
    start, step : float
        Position of the first sample and the positive grid step.
    values : array-like of complex
        One value per grid point.
    bound : float
        Declared sup bound; every ``|value|`` must stay at or below it.
    extension : Extension
        Boundary policy for analysis windows.
    source : str, optional
        Name of the generator that rendered this signal, when known.
        Verdicts on unsourced data are flagged grid-relative.
    """

    start: float
    step: float
    values: np.ndarray
    bound: float
    extension: Extension = Extension.VALID_ONLY
    source: Optional[str] = None

    #: Integrals are trapezoid sums (Lebesgue measure), not plain sums
    #: (counting measure).
    trapezoid: ClassVar[bool] = False

    def __post_init__(self):
        if not (self.step > 0) or not math.isfinite(self.step):
            raise ValueError(f"grid step must be positive, got {self.step}")
        if not self.trapezoid and self.step != 1.0:
            raise ValueError("plain sums count samples on the integers: step must be 1")
        object.__setattr__(self, "values", _as_complex(self.values))
        _check_bound(self.values, self.bound)

    def __len__(self) -> int:
        return len(self.values)

    def x_at(self, j):
        """Position of grid index ``j`` (an int or an int array)."""
        return self.start + j * self.step

    @property
    def x_end(self) -> float:
        return self.x_at(len(self.values) - 1)

    def derived(self, **fields) -> "Signal":
        """A signal of this kind and step, with the named fields replaced."""
        kept = {"start": self.start, "values": self.values, "bound": self.bound,
                "extension": self.extension, "source": self.source}
        out = object.__new__(type(self))
        Signal.__init__(out, step=self.step, **{**kept, **fields})
        return out

    def lag(self, s: float) -> int:
        """The shift ``s`` in grid steps; it must be a whole multiple."""
        steps = s / self.step
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"shift {s} is not a multiple of the grid step {self.step}")
        return round(steps)

    def shifted(self, s: float) -> "Signal":
        """Translate by a multiple of the grid step: the result at x is this
        signal at x + s."""
        return self.derived(start=self.start - self.lag(s) * self.step)

    def running_sum(self) -> np.ndarray:
        """Running sum from 0: a window's sum is the difference of two entries.

        Plain sum: ``n + 1`` entries, entry ``j`` the sum of the first ``j``
        values.  Trapezoid: ``n`` entries, entry ``j`` the integral from
        ``start`` to ``x_j``.
        """
        v = self.values
        if self.trapezoid:
            v = (v[1:] + v[:-1]) * (self.step / 2.0)
        out = np.empty(len(v) + 1, dtype=np.complex128)
        out[0] = 0.0
        np.cumsum(v, out=out[1:])
        return out

    def weights(self) -> np.ndarray:
        """Quadrature weights: ``values * step`` with the two end weights
        halved for the trapezoid rule, the values themselves otherwise."""
        if not self.trapezoid:
            return self.values
        w = self.values * self.step
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def mean(self) -> complex:
        if not self.trapezoid:
            return complex(np.mean(self.values))
        if len(self.values) == 1:
            return complex(self.values[0])
        span = (len(self.values) - 1) * self.step
        return complex(np.trapezoid(self.values, dx=self.step) / span)


class DiscreteSignal(Signal):
    """Complex values on the integer range ``[n_min, n_min + len - 1]``."""

    def __init__(self, n_min: int, values, bound: float,
                 extension: Extension = Extension.VALID_ONLY,
                 source: Optional[str] = None):
        super().__init__(n_min, 1.0, values, bound, extension, source)

    def __post_init__(self):
        super().__post_init__()
        n_min = int(self.start)
        if n_min != self.start:
            raise ValueError(f"discrete signals start at an integer, got {self.start}")
        object.__setattr__(self, "start", n_min)

    @property
    def n_min(self) -> int:
        return self.start

    @property
    def n_max(self) -> int:
        return self.start + len(self.values) - 1

    def value_at(self, n: int) -> complex:
        if self.n_min <= n <= self.n_max:
            return complex(self.values[n - self.n_min])
        if self.extension is Extension.ZERO_OUTSIDE:
            return 0.0
        raise WindowOutOfRange(f"index {n} outside [{self.n_min}, {self.n_max}]")


class ContinuousSignal(Signal):
    """Complex samples at ``x_j = x0 + j*h``; integrals are trapezoid sums."""

    trapezoid = True

    def __init__(self, x0: float, h: float, samples, bound: float,
                 extension: Extension = Extension.VALID_ONLY,
                 source: Optional[str] = None):
        super().__init__(x0, h, samples, bound, extension, source)

    x0 = property(lambda self: self.start)
    h = property(lambda self: self.step)
    samples = property(lambda self: self.values)


def subtract(a: Signal, b: Signal) -> Signal:
    """Pointwise ``a - b`` on the intersection of the two valid ranges."""
    if a.trapezoid != b.trapezoid:
        raise TypeError("cannot mix discrete and continuous signals")
    if abs(a.step - b.step) > 1e-12 * a.step:
        raise ValueError("grid steps differ")
    off = (b.start - a.start) / a.step
    if abs(off - round(off)) > 1e-6:
        raise ValueError("grids are not aligned")
    off = round(off)
    ia = max(0, off)
    ib = max(0, -off)
    n = min(len(a) - ia, len(b) - ib)
    if n <= 0:
        raise ValueError("signals have no overlapping range")
    return a.derived(start=a.x_at(ia), values=a.values[ia:ia + n] - b.values[ib:ib + n],
                     bound=a.bound + b.bound, source=None)


def scaled(signal: Signal, c: complex) -> Signal:
    return signal.derived(values=signal.values * c, bound=signal.bound * abs(c))


def offset(signal: Signal, c: complex) -> Signal:
    """Pointwise ``signal + c`` with the bound enlarged accordingly."""
    return signal.derived(values=signal.values + c, bound=signal.bound + abs(c))


# ---------------------------------------------------------------------------
# Window schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowSchedule:
    """Strictly increasing window lengths plus a sidedness choice.

    Even lengths are preferred in the defaults so pure alternating
    signals cancel exactly instead of leaving an O(1/k) floor.
    """

    lengths: tuple
    sidedness: Sidedness = Sidedness.TWO_SIDED

    def __post_init__(self):
        ls = tuple(self.lengths)
        if not ls:
            raise ValueError("schedule must be nonempty")
        if any(l <= 0 for l in ls):
            raise ValueError("window lengths must be positive")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("window lengths must be strictly increasing")
        object.__setattr__(self, "lengths", ls)

    @classmethod
    def geometric(cls, k_min, k_max, factor: float = 2.0,
                  sidedness: Sidedness = Sidedness.TWO_SIDED) -> "WindowSchedule":
        if not 1 < factor < math.inf:
            raise ValueError("growth factor must be finite and exceed 1")
        if not 0 < k_min <= k_max < math.inf:
            raise ValueError("need 0 < k_min <= k_max < inf")
        ls = []
        k = float(k_min)
        while k <= k_max * (1 + 1e-12):
            ls.append(k)
            k *= factor
        if isinstance(k_min, int) and isinstance(k_max, int) and factor == int(factor):
            ls = [int(round(v)) for v in ls]
        return cls(tuple(ls), sidedness)


# ---------------------------------------------------------------------------
# Generator recipes
# ---------------------------------------------------------------------------

def _check_frequencies(freqs) -> None:
    for f in freqs:
        if not math.isfinite(f):
            raise ValueError(f"frequency must be finite, got {f}")


@dataclass(frozen=True)
class Character:
    """Pure frequency: x -> exp(2*pi*i*frequency*x)."""

    frequency: float

    def __post_init__(self):
        _check_frequencies([self.frequency])


@dataclass(frozen=True)
class TrigPoly:
    """Finite sum of characters: ``terms`` is ((coefficient, frequency), ...)."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            tuple((complex(c), float(f)) for c, f in self.terms))
        if not self.terms:
            raise ValueError("TrigPoly requires at least one term")
        _check_frequencies(f for _, f in self.terms)


@dataclass(frozen=True)
class DirichletLine:
    """Vertical-line trace of a Dirichlet series.

    ``t -> sum_n coeffs[n-1] * n**(-sigma) * exp(-i*t*log n)``.  The
    convergence abscissa is declared by the caller, never inferred;
    evaluation with ``sigma <= abscissa`` raises :class:`DivergentSeries`.
    """

    coeffs: tuple
    sigma: float
    abscissa: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("DirichletLine requires at least one coefficient")


@dataclass(frozen=True)
class Density:
    """Sampled density on a frequency interval, integrated by trapezoid."""

    freq_min: float
    freq_max: float
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) < 2:
            raise ValueError("density needs at least two samples")
        _check_frequencies([self.freq_min, self.freq_max])
        if not self.freq_max > self.freq_min:
            raise ValueError("density interval must have positive length")

    def grid(self) -> np.ndarray:
        return np.linspace(self.freq_min, self.freq_max, len(self.values))


@dataclass(frozen=True)
class MeasureTransform:
    """Transform of atoms plus an optional absolutely continuous density.

    ``x -> sum_j w_j exp(2*pi*i*f_j*x) + integral exp(2*pi*i*f*x) dens(f) df``.
    """

    atoms: tuple
    density: Optional[Density] = None

    def __post_init__(self):
        object.__setattr__(
            self, "atoms",
            tuple((float(f), complex(w)) for f, w in self.atoms))
        _check_frequencies(f for f, _ in self.atoms)


@dataclass(frozen=True)
class BlockSequence:
    """Blocks of constant symbols with geometrically growing lengths.

    Block m (m = 0, 1, ...) has length ``round(growth**m)`` and carries
    ``symbols[m % len(symbols)]``; the sequence lives on n >= 0 and is 0
    for n < 0.
    """

    symbols: tuple = (0.0, 1.0)
    growth: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(complex(s) for s in self.symbols))
        if self.growth <= 1:
            raise ValueError("block growth must exceed 1")


@dataclass(frozen=True)
class PartialSums:
    """Cumulative sums s_n = sum_{k<=n} a_k of an inner coefficient recipe."""

    inner: "GeneratorSpec"


@dataclass(frozen=True)
class Convergent:
    """A limit plus a decaying perturbation: ``limit + amplitude*decay(|x|)``.

    ``decay`` is ``"exp"`` for exp(-rate*|x|) or ``"power"`` for
    (1+|x|)**(-rate).
    """

    limit: complex
    decay: str = "exp"
    rate: float = 1.0
    amplitude: complex = 1.0

    def __post_init__(self):
        if self.decay not in ("exp", "power"):
            raise ValueError(f"unknown decay profile {self.decay!r}")
        if self.rate <= 0:
            raise ValueError("decay rate must be positive")


@dataclass(frozen=True)
class Custom:
    """Explicit samples on ``start + j*step``; no closed form off-grid."""

    values: tuple
    start: float = 0.0
    step: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if not self.values:
            raise ValueError("Custom requires samples")
        if self.step <= 0:
            raise ValueError("Custom step must be positive")


GeneratorSpec = Union[Character, TrigPoly, DirichletLine, MeasureTransform,
                      BlockSequence, PartialSums, Convergent, Custom]

_KIND_NAMES = {
    Character: "character",
    TrigPoly: "trig_poly",
    DirichletLine: "dirichlet_line",
    MeasureTransform: "measure_transform",
    BlockSequence: "block_sequence",
    PartialSums: "partial_sums",
    Convergent: "convergent",
    Custom: "custom",
}


def kind_of(spec: GeneratorSpec) -> str:
    return _KIND_NAMES[type(spec)]


def _block_boundaries(spec: BlockSequence, n_top: int) -> np.ndarray:
    """Cumulative block end indices covering [0, n_top]."""
    ends = []
    total = 0
    m = 0
    while total <= n_top:
        total += max(1, int(round(spec.growth ** m)))
        ends.append(total)
        m += 1
    return np.asarray(ends)


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------

#: Points per block of :func:`evaluate_many`.  A block's buffers, about
#: 1 MB, stay in a 2 MiB L2 cache.  It is also the period that
#: :func:`_grid_values` tiles: every dyadic denominator up to 2^14
#: divides it.
BLOCK = 16384

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The render pool, created on first use: one thread per extra CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_CPUS - 1,
                                       thread_name_prefix="almostconv-render")
        return _pool


def _map_blocks(fill, xs: np.ndarray, out: np.ndarray) -> None:
    """Call ``fill(x, o, z, w)`` on every block of ``xs`` and ``out``.

    ``z`` and ``w`` are complex scratch buffers of the block's length,
    reused by one thread across its blocks.  The blocks are dealt out in
    turn to min(CPUs, blocks) threads, the caller among them; the ufunc
    loops run with the GIL released.
    """
    n = len(xs)
    workers = max(1, min(_CPUS, -(-n // BLOCK)))

    def work(first: int) -> None:
        zbuf = np.empty(min(BLOCK, n), dtype=np.complex128)
        wbuf = np.empty_like(zbuf)
        # Overflow and NaN are left to the Signal's finite check.  NumPy's
        # error state is per context: a pool thread does not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(first * BLOCK, n, workers * BLOCK):
                hi = min(lo + BLOCK, n)
                fill(xs[lo:hi], out[lo:hi], zbuf[:hi - lo], wbuf[:hi - lo])

    if workers == 1:
        work(0)
        return
    pool = _executor()
    futures = [pool.submit(work, first) for first in range(1, workers)]
    try:
        work(0)
    finally:
        for future in futures:
            future.result()


def _reduce_phase(t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.mod(t, 1.0)`` in place, with the same bits at a tenth of the cost.

    ``fmod(t, 1)`` is exact and equals ``t - trunc(t)``.  NumPy's remainder
    then adds 1 to a negative result and gives +0.0 for a zero, which is
    what ``t - trunc(t)`` already gives.  ``scratch`` has ``t``'s shape.
    """
    np.trunc(t, out=scratch)
    np.subtract(t, scratch, out=t)
    np.add(t, 1.0, out=t, where=t < 0.0)
    return t


def _unit_phases(freq: float, x: np.ndarray, z: np.ndarray,
                 t: np.ndarray) -> None:
    """``z = exp(2*pi*i*freq*x)`` with the phase reduced mod 1 first.

    Keeps the exp argument O(1) so dyadic frequencies on integer grids
    (e.g. the alternating sequence) come out exact instead of drifting
    by eps * |freq * x|.  ``t`` is float scratch of ``x``'s length.
    """
    np.multiply(x, freq, out=t)
    _reduce_phase(t, z.view(np.float64)[:len(t)])
    np.multiply(t, 2j * np.pi, out=z)
    np.exp(z, out=z)


def _add_characters(terms, x: np.ndarray, out: np.ndarray, z: np.ndarray,
                    w: np.ndarray) -> None:
    """``out += c * exp(2*pi*i*f*x)`` for each ``(c, f)`` in ``terms``.

    The product is taken as ``phases * c``.  NumPy's FMA complex multiply
    is not bitwise commutative, and this is the order that a whole-array
    ``out += c * phases`` of 256 KiB or more runs in, once NumPy's
    temporary elision turns it into ``phases *= c``.  It is written to
    ``w``: in place, NumPy multiplies a single sample without FMA.
    """
    t = w.view(np.float64)[:len(x)]
    for c, f in terms:
        _unit_phases(f, x, z, t)
        np.multiply(z, c, out=w)
        out += w


def _add_density(density: Density, x: np.ndarray, out: np.ndarray,
                 z: np.ndarray, w: np.ndarray) -> None:
    """Add the trapezoid integral of ``exp(2*pi*i*f*x) dens(f) df``.

    Takes one density point at a time through ``np.trapezoid``'s
    arithmetic, in its order, so the memory is a few blocks however many
    points the density has.
    """
    grid = density.grid()
    steps = np.diff(grid)
    t = w.view(np.float64)[:len(x)]
    prev, cur, total = (np.empty_like(z) for _ in range(3))
    for k, (f, c) in enumerate(zip(grid, density.values)):
        _unit_phases(f, x, z, t)
        np.multiply(c, z, out=cur)
        if k:
            np.add(cur, prev, out=z)
            np.multiply(z, steps[k - 1], out=w)
            np.divide(w, 2.0, out=total if k == 1 else z)
            if k > 1:
                total += z
        prev, cur = cur, prev
    out += total


def _block_filler(spec: GeneratorSpec, xs: np.ndarray):
    """The ``fill(x, o, z, w)`` that writes one block of ``spec``'s values."""
    if isinstance(spec, Character):
        freq = spec.frequency
        return lambda x, o, z, w: _unit_phases(
            freq, x, o, z.view(np.float64)[:len(x)])
    if isinstance(spec, TrigPoly):
        return lambda x, o, z, w: _add_characters(spec.terms, x, o, z, w)
    if isinstance(spec, DirichletLine):
        if not spec.sigma > spec.abscissa:
            raise DivergentSeries(
                f"sigma={spec.sigma} not above declared abscissa {spec.abscissa}")
        terms = [(a * n ** (-spec.sigma), -math.log(n) / (2 * math.pi))
                 for n, a in enumerate(spec.coeffs, start=1)]
        return lambda x, o, z, w: _add_characters(terms, x, o, z, w)
    if isinstance(spec, MeasureTransform):
        terms = [(weight, f) for f, weight in spec.atoms]

        def fill(x, o, z, w):
            _add_characters(terms, x, o, z, w)
            if spec.density is not None:
                _add_density(spec.density, x, o, z, w)
        return fill
    if isinstance(spec, BlockSequence):
        ends = _block_boundaries(spec, int(np.floor(xs.max(initial=-1.0))))
        syms = np.asarray(spec.symbols)

        def fill(x, o, z, w):
            ns = np.floor(x).astype(np.int64)
            pos = ns >= 0
            if np.any(pos):
                blocks = np.searchsorted(ends, ns[pos], side="right")
                o[pos] = syms[blocks % len(syms)]
        return fill
    if isinstance(spec, Convergent):
        def fill(x, o, z, w):
            a = np.abs(x)
            if spec.decay == "exp":
                tail = np.exp(-spec.rate * a)
            else:
                tail = (1.0 + a) ** (-spec.rate)
            o[...] = spec.limit + spec.amplitude * tail
        return fill
    if isinstance(spec, Custom):
        raise UnsupportedPoint("custom samples have no closed form")
    raise TypeError(f"not a generator spec: {spec!r}")


def evaluate_many(spec: GeneratorSpec, points) -> np.ndarray:
    """Closed-form values of the generated function at the given points.

    Pointwise kinds are evaluated in blocks of :data:`BLOCK` points on a
    small thread pool.  A sample's bits do not depend on the number of
    points or on where the blocks fall, so :func:`_grid_values` may
    evaluate one block of a periodic grid and copy it.
    """
    xs = np.asarray(points, dtype=np.float64)
    out = np.zeros(xs.shape, dtype=np.complex128)
    if isinstance(spec, PartialSums):
        ns = np.floor(xs).astype(np.int64)
        pos = ns >= 0
        if np.any(pos):
            top = int(ns[pos].max())
            coeffs = evaluate_many(spec.inner, np.arange(top + 1))
            sums = np.cumsum(coeffs)
            out[pos] = sums[ns[pos]]
        return out
    fill = _block_filler(spec, xs)
    _map_blocks(fill, xs.reshape(-1), out.reshape(-1))
    return out


def evaluate(spec: GeneratorSpec, point: float) -> complex:
    """Scalar version of :func:`evaluate_many`."""
    return complex(evaluate_many(spec, np.asarray([point]))[0])


def declared_bound(spec: GeneratorSpec) -> Optional[float]:
    """Closed-form sup bound, or None when only the rendering knows it."""
    if isinstance(spec, Character):
        return 1.0
    if isinstance(spec, TrigPoly):
        return float(sum(abs(c) for c, _ in spec.terms))
    if isinstance(spec, DirichletLine):
        return float(sum(abs(a) * n ** (-spec.sigma)
                         for n, a in enumerate(spec.coeffs, start=1)))
    if isinstance(spec, MeasureTransform):
        total = sum(abs(w) for _, w in spec.atoms)
        if spec.density is not None:
            grid = spec.density.grid()
            total += float(np.trapezoid(np.abs(spec.density.values), grid))
        return float(total)
    if isinstance(spec, BlockSequence):
        return float(max(abs(s) for s in spec.symbols))
    if isinstance(spec, Convergent):
        return abs(spec.limit) + abs(spec.amplitude)
    if isinstance(spec, Custom):
        return float(max(abs(v) for v in spec.values))
    return None  # PartialSums: no closed form in general


def max_frequency(spec: GeneratorSpec) -> Optional[float]:
    """Largest |frequency| present, used by the continuous aliasing guard."""
    if isinstance(spec, Character):
        return abs(spec.frequency)
    if isinstance(spec, TrigPoly):
        return max(abs(f) for _, f in spec.terms)
    if isinstance(spec, DirichletLine):
        return math.log(len(spec.coeffs)) / (2 * math.pi) if len(spec.coeffs) > 1 else 0.0
    if isinstance(spec, MeasureTransform):
        tops = [abs(f) for f, _ in spec.atoms]
        if spec.density is not None:
            tops += [abs(spec.density.freq_min), abs(spec.density.freq_max)]
        return max(tops) if tops else 0.0
    return None


def declared_frequencies(spec: GeneratorSpec) -> Optional[np.ndarray]:
    """Frequency set a spectrum estimate should concentrate on, if declared."""
    if isinstance(spec, Character):
        return np.asarray([spec.frequency])
    if isinstance(spec, TrigPoly):
        return np.asarray(sorted({f for _, f in spec.terms}))
    if isinstance(spec, DirichletLine):
        return np.asarray([-math.log(n) / (2 * math.pi)
                           for n in range(1, len(spec.coeffs) + 1)])
    if isinstance(spec, MeasureTransform):
        return np.asarray(sorted({f for f, _ in spec.atoms}))
    return None


def known_limit(spec: GeneratorSpec) -> Optional[complex]:
    """Exact almost-convergence limit when theory provides one.

    Characters and trig polynomials almost converge to their zero-frequency
    coefficient; measure transforms to the weight of the atom at 0;
    Dirichlet lines to their leading coefficient; convergent profiles to
    their limit.  Returns None when no closed-form limit is known.
    """
    if isinstance(spec, Character):
        return 1.0 if spec.frequency == 0 else 0.0
    if isinstance(spec, TrigPoly):
        return complex(sum(c for c, f in spec.terms if f == 0.0))
    if isinstance(spec, DirichletLine):
        return spec.coeffs[0]
    if isinstance(spec, MeasureTransform):
        return complex(sum(w for f, w in spec.atoms if f == 0.0))
    if isinstance(spec, Convergent):
        return complex(spec.limit)
    if isinstance(spec, BlockSequence) and len(set(spec.symbols)) == 1:
        return complex(spec.symbols[0])
    return None


def _exact_line(a: Fraction, b: Fraction, last: int) -> bool:
    """Whether ``a + b*j`` is a float for every integer ``0 <= j <= last``.

    Over one power-of-two denominator the numerators are linear in ``j``,
    so the two ends bound them all.  (Reduced numerators do not: an
    interior ``j`` can need one more bit.)  An integer of at most 2^53
    over at most 2^1074 is a float.
    """
    d = max(a.denominator, b.denominator)
    return d <= 2 ** 1074 and max(abs(a * d), abs((a + b * last) * d)) <= 2 ** 53


def _repeats_every_block(spec: GeneratorSpec, start, step, count) -> bool:
    """Whether the samples at ``start + j*step`` repeat every BLOCK points.

    Holds, bit for bit, for a sum of characters (a spec with declared
    frequencies and no density) when every grid point ``x_j`` and every
    product ``f*x_j`` is computed exactly and ``f*step*BLOCK`` is an
    integer.  Then ``f*x_{j+BLOCK}`` is ``f*x_j`` plus a whole number,
    :func:`_reduce_phase` gives both the same bits, and every later
    operation is elementwise.  Checked in exact rational arithmetic;
    every finite float is a dyadic rational.  A Dirichlet line's
    frequencies ``-log(n)/(2*pi)`` fail the last condition.
    """
    if not isinstance(count, numbers.Integral) or count <= BLOCK:
        return False
    freqs = declared_frequencies(spec)
    if freqs is None or isinstance(spec, MeasureTransform) and spec.density is not None:
        return False
    a, b, last = Fraction(start), Fraction(step), int(count) - 1
    if not (_exact_line(Fraction(0), b, last) and _exact_line(a, b, last)):
        return False
    return all((f * b * BLOCK).denominator == 1
               and _exact_line(f * a, f * b, last)
               for f in map(Fraction, freqs))


def _grid_values(spec: GeneratorSpec, start: float, step: float,
                 count: int) -> tuple:
    """Values at ``start + j*step`` for ``j = 0..count-1``, and a bound.

    A sum of characters that :func:`_repeats_every_block` proves periodic
    is evaluated on the first BLOCK points, as the first block of the
    whole grid would be, and that block is tiled over the rest.
    """
    if isinstance(spec, Custom):
        if abs(step - spec.step) > 1e-12 * spec.step:
            raise UnsupportedPoint("requested step differs from the custom grid")
        lo = (start - spec.start) / spec.step
        if abs(lo - round(lo)) > 1e-6:
            raise UnsupportedPoint("requested grid misaligned with custom samples")
        lo = int(round(lo))
        if lo < 0 or lo + count > len(spec.values):
            raise UnsupportedPoint("requested range outside the custom samples")
        vals = np.asarray(spec.values[lo:lo + count], dtype=np.complex128)
    elif _repeats_every_block(spec, start, step, count):
        head = evaluate_many(spec, start + step * np.arange(BLOCK))
        vals = np.resize(head, count)
    else:
        vals = evaluate_many(spec, start + step * np.arange(count))
    bound = declared_bound(spec)
    if bound is None:
        bound = float(np.max(np.abs(vals)))
    return vals, bound


def render_discrete(spec: GeneratorSpec, n_min: int, n_max: int,
                    extension: Extension = Extension.VALID_ONLY) -> DiscreteSignal:
    """Sample the generator at every integer in ``[n_min, n_max]``."""
    if n_min > n_max:
        raise ConfigError(f"need n_min <= n_max, got [{n_min}, {n_max}]")
    vals, bound = _grid_values(spec, n_min, 1.0, n_max - n_min + 1)
    return DiscreteSignal(n_min, vals, bound, extension, kind_of(spec))


def render_continuous(spec: GeneratorSpec, x0: float, h: float, count: int,
                      extension: Extension = Extension.VALID_ONLY) -> ContinuousSignal:
    """Sample the generator at ``x0 + j*h`` for ``j = 0..count-1``.

    Enforces the aliasing guard ``h * f_max <= MAX_CYCLES_PER_STEP`` for
    generators with declared frequencies, keeping the trapezoid window
    quadrature error at O((h*f)^2) per window.
    """
    if not (math.isfinite(x0) and math.isfinite(h)):
        raise ConfigError(f"grid x0={x0}, h={h} must be finite")
    if h <= 0:
        raise ConfigError("grid step must be positive")
    if count < 1:
        raise ConfigError(f"need at least one sample, got count={count}")
    fm = max_frequency(spec)
    if fm is not None and h * fm > MAX_CYCLES_PER_STEP + 1e-12:
        raise AliasingError(
            f"h*f_max = {h * fm:.4g} exceeds {MAX_CYCLES_PER_STEP}; refine the grid")
    vals, bound = _grid_values(spec, x0, h, count)
    return ContinuousSignal(x0, h, vals, bound, extension, kind_of(spec))


# ---------------------------------------------------------------------------
# Finite kernels (nonnegative, unit mass)
# ---------------------------------------------------------------------------

def delta_kernel() -> DiscreteSignal:
    return DiscreteSignal(0, [1.0], 1.0, Extension.VALID_ONLY, "kernel")


def fejer_kernel(width: int) -> DiscreteSignal:
    """Triangular unit-mass kernel supported on ``[-width//2, width//2]``."""
    m = max(1, width // 2)
    j = np.arange(-m, m + 1)
    w = 1.0 - np.abs(j) / (m + 1.0)
    w /= w.sum()
    return DiscreteSignal(-m, w, float(w.max()), Extension.VALID_ONLY, "kernel")


def gaussian_kernel(sigma: float, radius: Optional[int] = None) -> DiscreteSignal:
    """Truncated discrete Gaussian, normalized to unit mass."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = int(math.ceil(4 * sigma)) if radius is None else int(radius)
    j = np.arange(-r, r + 1)
    w = np.exp(-0.5 * (j / sigma) ** 2)
    w /= w.sum()
    return DiscreteSignal(-r, w, float(w.max()), Extension.VALID_ONLY, "kernel")


def gaussian_kernel_continuous(sigma: float, h: float,
                               radius: Optional[float] = None) -> ContinuousSignal:
    """Sampled Gaussian on step ``h`` with unit trapezoid mass."""
    if sigma <= 0 or h <= 0:
        raise ValueError("sigma and h must be positive")
    r = 4 * sigma if radius is None else radius
    m = max(1, int(round(r / h)))
    t = h * np.arange(-m, m + 1)
    w = np.exp(-0.5 * (t / sigma) ** 2)
    w /= np.trapezoid(w, dx=h)
    return ContinuousSignal(-m * h, h, w, float(w.max()),
                            Extension.VALID_ONLY, "kernel")

