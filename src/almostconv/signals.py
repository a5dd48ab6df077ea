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

Rendering (:func:`evaluate_many`) runs in cache-sized blocks.  Each
sample has the same bits as the whole-array formula gives it, whatever
the number of points rendered.
A grid render of a sum of characters (no density) over more than
:data:`BLOCK` points is block-turned.  When every whole-block turn is 0
(dyadic frequencies on Z -> Z_{2^k}) the first block, with the
per-point bits, is tiled.  Otherwise the render is one matrix product of
per-block factors with per-term tables over one block, each an outer
product of exact turns and a few unit phases, and every sample, the
first block's among them, is within ``sum (|c| * (8*pi*|f|*max|x| +
16*pi) * u + 8 * 2**-1074)``, ``u = 2**-53``, of the exact value at its
float grid point.  No sample of a render of more than one block depends
on the number rendered, or on the number of BLAS threads.  A block
sequence reads one table of block ends (:func:`_block_table`) at any
points and, run by run, on a grid, with the per-point bits.  Every other
grid render keeps the per-point bits.
"""

from __future__ import annotations

import math
import sys
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


def _as_complex(values) -> tuple:
    """``values`` as a complex array, and ``max |values|``.

    One pass takes the modulus: a NaN or inf sample makes it NaN or inf,
    and only then are the parts checked, so finite parts whose modulus
    overflows reach the bound check.
    """
    out = np.asarray(values, dtype=np.complex128)
    if out.ndim != 1 or out.size == 0:
        raise ValueError("signal values must be a nonempty 1-d array")
    top = float(np.max(np.abs(out)))
    if not math.isfinite(top) and not np.all(np.isfinite(out)):
        raise ValueError("signal values must be finite")
    return out, top


def _check_bound(top: float, bound: float) -> None:
    """``top``, the largest ``|value|``, must stay at or below ``bound``."""
    if not math.isfinite(bound) or bound < 0:
        raise ValueError(f"bound must be finite and nonnegative, got {bound}")
    # the slack must not lift a bound near the largest float to inf
    if top > min(bound * (1.0 + _BOUND_SLACK) + _BOUND_SLACK, sys.float_info.max):
        raise ValueError(f"|values| reach {top} above declared bound {bound}")


def _check_grid(start, step: float, count: int, trapezoid: bool) -> None:
    """Every grid position ``start + j*step`` must be a finite float, and an
    integer grid must stay within +-2**53, where integers are exact floats."""
    if not trapezoid:
        if not (-2 ** 53 <= start and start + (count - 1) <= 2 ** 53):
            raise ValueError("integer grid positions must lie within +-2**53")
        return
    end = float(start) + (count - 1) * float(step)
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"grid positions {start}..{end} must be finite")


@dataclass(frozen=True)
class Signal:
    """Complex samples at ``x_j = start + j*step``, with a quadrature rule.

    Subclasses fix the rule: :class:`DiscreteSignal` sums its values,
    :class:`ContinuousSignal` integrates by the trapezoid rule.  Every
    window sum, weight vector and mean comes from :meth:`running_rows`,
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
        values, top = _as_complex(self.values)
        object.__setattr__(self, "values", values)
        _check_grid(self.start, self.step, len(values), self.trapezoid)
        _check_bound(top, self.bound)

    def __len__(self) -> int:
        return len(self.values)

    def x_at(self, j):
        """Position of grid index ``j`` (an int or an int array)."""
        return self.start + j * self.step

    @property
    def x_end(self) -> float:
        return self.x_at(len(self.values) - 1)

    def derived(self, **fields) -> "Signal":
        """A signal of this kind and step, with the named fields replaced;
        a bound that overflowed is capped at the largest float."""
        kept = {"start": self.start, "values": self.values, "bound": self.bound,
                "extension": self.extension, "source": self.source, **fields}
        kept["bound"] = min(kept["bound"], sys.float_info.max)
        out = object.__new__(type(self))
        Signal.__init__(out, step=self.step, **kept)
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

    def running_rows(self, pad: int = 0, end: int = 0) -> np.ndarray:
        """The running sum from 0 as two float rows, its real and imaginary
        parts: a window's sum is the difference of two entries.

        Plain sum: ``n + 1`` entries, entry ``j`` the sum of the first ``j``
        values.  Trapezoid: ``n`` entries, entry ``j`` the integral from
        ``start`` to ``x_j``.  Each row holds ``pad`` copies of entry 0 (a
        zero) before its entries and ``end`` copies of the last one after.

        An increment is a value, or the trapezoid term ``(v[j+1] + v[j]) *
        (step / 2)``.  The increments are summed one :data:`BLOCK` at a time
        in one buffer, by ``np.cumsum`` after the previous block's last
        entry is added to the first, so the entries are those of one
        whole-array ``np.cumsum``, bit for bit: the first block starts at
        its first increment, not at ``0 + it``, which would turn a leading
        -0.0 into +0.0.  A sum that overflows is left inf or NaN, without
        a warning, for the caller's finite checks.
        """
        v = self.values
        n = len(v) - 1 if self.trapezoid else len(v)
        rows = np.empty((2, pad + n + 1 + end))
        rows[:, :pad + 1] = 0.0
        buf = np.empty(min(BLOCK, n), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, BLOCK):
                block = buf[:min(BLOCK, n - lo)]
                if self.trapezoid:
                    np.add(v[lo + 1:lo + 1 + len(block)], v[lo:lo + len(block)],
                           out=block)
                    block *= self.step / 2.0
                else:
                    block[...] = v[lo:lo + len(block)]
                if lo:
                    block[0] += block_end
                np.cumsum(block, out=block)
                block_end = block[-1]
                at = slice(pad + 1 + lo, pad + 1 + lo + len(block))
                rows[0, at] = block.real
                rows[1, at] = block.imag
        rows[:, pad + n + 1:] = rows[:, pad + n:pad + n + 1]
        return rows

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
        """The plain or trapezoid mean.  A plain mean whose partial sums
        overflow is taken again as the sum of ``values / n``."""
        if not self.trapezoid:
            with np.errstate(over="ignore", invalid="ignore"):
                mean = np.mean(self.values)
                if not np.isfinite(mean):
                    mean = np.sum(self.values / len(self.values))
            return complex(mean)
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
        if not self.symbols:
            raise ValueError("block sequence needs at least one symbol")
        if not 1 < self.growth < math.inf:
            raise ValueError("block growth must be finite and exceed 1")


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


#: Block ends or partial-sum terms a render of n points may make: n + this.
_TERM_CAP = 2 ** 20


def _block_boundaries(spec: BlockSequence, top: float, points: int) -> list:
    """Cumulative block ends, made one by one from 0, up to the first past
    ``top``; needing more than ``points + _TERM_CAP`` is a ConfigError."""
    ends, total, m, growth = [], 0, 0, spec.growth
    while total <= top:
        if m == points + _TERM_CAP:
            raise ConfigError(f"block sequence needs more than {points} + 2**20 "
                              f"block ends to reach {top:.17g}")
        total += round(growth ** m)  # at least 1, as growth > 1
        ends.append(total)
        m += 1
    return ends


def _block_table(spec: BlockSequence, top: float, points: int) -> tuple:
    """``(edges, values)``: position x holds ``values[searchsorted(edges, x,
    side="right")]``, for ``points`` positions up to ``top``.

    ``edges`` is ``[0, end_0, ..., end_{B-2}]``, the ends but the last (past
    ``top``), and ``values`` is ``[0, symbols[m % len(symbols)] for m < B]``.
    Integer ends make ``x >= end`` the same as ``floor(x) >= end``; they are
    floats up to 2**53, and a ``top`` past it is a :class:`ConfigError`.
    """
    top = float(top)
    if not top <= 2 ** 53:
        raise ConfigError(f"block sequence positions must not pass 2**53, got {top:.17g}")
    ends = _block_boundaries(spec, top, points)
    edges = np.array([0, *ends][:len(ends)], dtype=np.float64)
    values = np.concatenate(([0j], np.resize(np.asarray(spec.symbols), len(ends))))
    return edges, values


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------

#: Points per block of :func:`evaluate_many`.  A block's buffers, about
#: 1 MB, stay in a 2 MiB L2 cache.  It is also the stride by which
#: :func:`_turned_values` turns phases, and the period it tiles (every
#: dyadic denominator up to 2^14 divides it).
BLOCK = 16384


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
    by eps * |freq * x|.  ``t`` is float scratch of ``x``'s length.  At
    frequency 0 (or -0.0) every reduced phase is +0.0 and every phase
    exactly ``1+0j``, which is written without the exponentials.
    """
    if freq == 0:
        z[...] = 1.0
        return
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


#: Terms per pass of :func:`_turned_values`: their phase tables take at
#: most 32 * 256 KiB = 8 MiB.
_TERMS_PER_PASS = 32


def _turns(ratios, steps) -> np.ndarray:
    """``frac(f*step*s)`` for each ``s`` in ``steps`` (one row each) and
    each ``f*step`` given as an integer ratio (one column each): the phase
    of ``s`` whole grid steps, taken exactly, rounded once."""
    return np.array([[num * s % den / den for num, den in ratios] for s in steps])


def _turned_values(terms, start, step, count: int) -> np.ndarray:
    """``sum c * exp(2*pi*i*f*x)`` over ``(c, f)`` in ``terms`` on the grid
    ``x_j = start + j*step`` of ``count`` points, more than one block.

    If every whole-block turn ``frac(f*step*BLOCK)`` is 0, the first block
    is rendered as :func:`_add_characters` renders it, with the per-point
    bits, and tiled.  Otherwise each term's table over one block is an
    outer product: entry ``512a + r`` is the exact turn of ``512a`` steps
    (:func:`_turns`), ``exp(2*pi*i*frac(f*step*512a))``, times the unit
    phase (:func:`_unit_phases`) of grid point ``r < 512``.  Sample ``qB +
    j`` is then row ``q`` of one ``(blocks x terms) @ (terms x BLOCK)``
    matrix product, of the factors ``c * exp(2*pi*i*frac(f*step*qB))`` with
    the tables.  It is taken :data:`_TERMS_PER_PASS` terms at a time, and
    each later pass's product is added a few block rows at a time, in
    order.  Every sample is within ``sum (|c| * (8*pi*|f|*max|x| + 16*pi)
    * u + 8 * 2**-1074)`` of the exact value at the float grid point.  A
    row of a product with two rows or more has the same bits whatever the
    number of rows, so no sample depends on ``count``.
    """
    ratios = [(Fraction(f) * Fraction(step)).as_integer_ratio() for _, f in terms]
    # overflow and NaN are left to the Signal's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        if all(num * BLOCK % den == 0 for num, den in ratios):
            out = np.zeros(BLOCK, dtype=np.complex128)
            _add_characters(terms, start + step * np.arange(BLOCK), out,
                            np.empty_like(out), np.empty_like(out))
            return np.resize(out, count)
        blocks = -(-count // BLOCK)
        out = np.empty((blocks, BLOCK), dtype=np.complex128)
        head, t = start + step * np.arange(512), np.empty(512)
        size = min(len(terms), _TERMS_PER_PASS)
        phases = np.empty((size, 512), dtype=np.complex128)
        tables = np.empty((size, BLOCK // 512, 512), dtype=np.complex128)
        # later passes are added four block rows at a time, and the last
        # rows with the ones before when they would be one row alone: BLAS
        # takes a single row as a vector, with other bits
        rows = [*range(0, blocks - 1, 4), blocks]
        for first in range(0, len(terms), _TERMS_PER_PASS):
            group = terms[first:first + _TERMS_PER_PASS]
            turns, k = ratios[first:first + _TERMS_PER_PASS], len(group)
            for row, (_, f) in zip(phases, group):
                _unit_phases(f, head, row, t)
            turn = np.exp(_turns(turns, range(0, BLOCK, 512)).T * (2j * np.pi))
            np.multiply(turn[:, :, None], phases[:k, None, :], out=tables[:k])
            table = tables[:k].reshape(k, BLOCK)
            factors = np.array([c for c, _ in group], dtype=np.complex128) * np.exp(
                _turns(turns, range(0, count, BLOCK)) * (2j * np.pi))
            if first:
                for lo, hi in zip(rows, rows[1:]):
                    out[lo:hi] += factors[lo:hi] @ table
            else:
                np.matmul(factors, table, out=out)
    return out.reshape(-1)[:count]


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


def _character_terms(spec: GeneratorSpec) -> Optional[list]:
    """``(coefficient, frequency)`` of each character of a sum-of-characters
    spec (a measure transform's atoms, not its density), else None."""
    if isinstance(spec, Character):
        return [(1.0, spec.frequency)]
    if isinstance(spec, TrigPoly):
        return list(spec.terms)
    if isinstance(spec, DirichletLine):
        # a divergent line is never rendered (DivergentSeries), and its
        # n**-sigma may overflow first: it keeps its bare coefficients
        sigma = spec.sigma if spec.sigma > spec.abscissa else 0.0
        return [(a * n ** (-sigma), -math.log(n) / (2 * math.pi))
                for n, a in enumerate(spec.coeffs, start=1)]
    if isinstance(spec, MeasureTransform):
        return [(weight, f) for f, weight in spec.atoms]
    return None


def _rendered_terms(spec: GeneratorSpec) -> Optional[list]:
    """:func:`_character_terms` of a spec about to be rendered; a divergent
    Dirichlet line raises :class:`DivergentSeries`."""
    if isinstance(spec, DirichletLine) and not spec.sigma > spec.abscissa:
        raise DivergentSeries(
            f"sigma={spec.sigma} not above declared abscissa {spec.abscissa}")
    return _character_terms(spec)


def _block_filler(spec: GeneratorSpec, xs: np.ndarray):
    """The ``fill(x, o, z, w)`` that writes one block of ``spec``'s values."""
    terms = _rendered_terms(spec)
    if terms is not None:
        density = getattr(spec, "density", None)

        def fill(x, o, z, w):
            _add_characters(terms, x, o, z, w)
            if density is not None:
                _add_density(density, x, o, z, w)
        return fill
    if isinstance(spec, BlockSequence):
        edges, values = _block_table(spec, xs.max(initial=-1.0), xs.size)

        def fill(x, o, z, w):
            o[...] = values[np.searchsorted(edges, x, side="right")]
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

    Pointwise kinds are evaluated in blocks of :data:`BLOCK` points.  A
    sample's bits do not depend on the number of points or on where the
    blocks fall.  A tiled grid render
    (:func:`_grid_values`) has these bits; a turned one does not, and each
    of its samples is within the rounding bound of :func:`_turned_values`.
    Block positions past 2**53, or more than ``len(points) + 2**20``
    block ends or partial-sum terms, are a :class:`ConfigError`.
    """
    xs = np.asarray(points, dtype=np.float64)
    out = np.zeros(xs.shape, dtype=np.complex128)
    if isinstance(spec, PartialSums):
        top = float(xs.max(initial=-1.0))  # the sums run from index 0
        if not top < xs.size + _TERM_CAP:
            raise ConfigError(f"partial sums to index {top:.17g} take more than "
                              f"{xs.size} + 2**20 terms")
        if top >= 0:
            pos = xs >= 0
            coeffs = evaluate_many(spec.inner, np.arange(math.floor(top) + 1))
            out[pos] = np.cumsum(coeffs)[np.floor(xs[pos]).astype(np.int64)]
        return out
    fill = _block_filler(spec, xs)
    flat_x, flat_out = xs.reshape(-1), out.reshape(-1)
    z = np.empty(min(BLOCK, xs.size), dtype=np.complex128)
    w = np.empty_like(z)
    # overflow and NaN are left to the Signal's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, xs.size, BLOCK):
            hi = min(lo + BLOCK, xs.size)
            fill(flat_x[lo:hi], flat_out[lo:hi], z[:hi - lo], w[:hi - lo])
    return out


def _block_runs(spec: BlockSequence, start: float, step: float,
                count: int) -> np.ndarray:
    """``spec``'s values at ``start + step*j`` for ``j < count``: each block of
    :func:`_block_table` is one run of indices, from the first ``j`` at or
    above its edge.  Those are found by bisection on ``j`` with the grid's
    own float expression (``j*step``, then ``+ start``), which never
    decreases in ``j``.  The values have the per-point bits."""
    edges, values = _block_table(spec, (count - 1) * step + start, count)
    lo = np.zeros(len(edges), dtype=np.int64)
    hi = np.full(len(edges), count, dtype=np.int64)
    for _ in range(count.bit_length()):
        mid = (lo + hi) // 2
        above = mid * step + start >= edges
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid + 1)
    return np.repeat(values, np.diff(hi, prepend=0, append=count))


def evaluate(spec: GeneratorSpec, point: float) -> complex:
    """Scalar version of :func:`evaluate_many`."""
    return complex(evaluate_many(spec, np.asarray([point]))[0])


def declared_bound(spec: GeneratorSpec) -> Optional[float]:
    """Closed-form sup bound, or None when only the rendering knows it."""
    if isinstance(spec, DirichletLine):
        return float(sum(abs(a) * n ** (-spec.sigma)
                         for n, a in enumerate(spec.coeffs, start=1)))
    terms = _character_terms(spec)
    if terms is not None:
        total = sum(abs(c) for c, _ in terms)
        density = getattr(spec, "density", None)
        if density is not None:
            total += float(np.trapezoid(np.abs(density.values), density.grid()))
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
    terms = _character_terms(spec)
    if terms is None:
        return None
    tops = [abs(f) for _, f in terms]
    if getattr(spec, "density", None) is not None:
        tops += [abs(spec.density.freq_min), abs(spec.density.freq_max)]
    return max(tops) if tops else 0.0


def declared_frequencies(spec: GeneratorSpec) -> Optional[np.ndarray]:
    """Frequency set a spectrum estimate should concentrate on, if declared."""
    terms = _character_terms(spec)
    return None if terms is None else np.asarray(sorted({f for _, f in terms}))


def known_limit(spec: GeneratorSpec) -> Optional[complex]:
    """Exact almost-convergence limit when theory provides one.

    Sums of characters (characters, trig polynomials, Dirichlet lines,
    measure transforms) almost converge to their zero-frequency
    coefficient: a Dirichlet line's leading one, a measure transform's
    atom at 0.  Convergent profiles go to their limit.  Returns None
    when no closed-form limit is known.
    """
    terms = _character_terms(spec)
    if terms is not None:
        return complex(sum(c for c, f in terms if f == 0.0))
    if isinstance(spec, Convergent):
        return complex(spec.limit)
    if isinstance(spec, BlockSequence) and len(set(spec.symbols)) == 1:
        return complex(spec.symbols[0])
    return None


def _grid_values(spec: GeneratorSpec, start: float, step: float,
                 count: int) -> tuple:
    """Values at ``start + j*step`` for ``j = 0..count-1``, and a bound.

    A sum of characters with no density over more than BLOCK points is
    block-turned (:func:`_turned_values`): the first block has the
    per-point bits and is tiled when every whole-block turn is 0;
    otherwise every sample, the first block's among them, is within the
    rounding bound there.  Among renders of more than BLOCK points, no
    sample's bits depend on ``count``.  A block sequence is filled run by
    run from its table of block ends (:func:`_block_runs`) with the
    per-point bits.  Every other grid is rendered point by point.
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
    else:
        terms = _rendered_terms(spec)
        if count > BLOCK and terms is not None and getattr(spec, "density", None) is None:
            vals = _turned_values(terms, start, step, count)
        elif isinstance(spec, BlockSequence):
            vals = _block_runs(spec, start, step, count)
        else:
            xs = np.arange(count, dtype=np.float64)
            xs *= step
            xs += start  # start + step*j, bit for bit, in one array
            vals = evaluate_many(spec, xs)
    bound = declared_bound(spec)
    if bound is None:
        bound = float(np.max(np.abs(vals)))
    return vals, bound


def _whole(value, name: str) -> int:
    """``value`` as an int; :class:`ConfigError` unless it is a whole number."""
    if value % 1:
        raise ConfigError(f"{name} must be a whole number, got {value}")
    return int(value)


def render_discrete(spec: GeneratorSpec, n_min: int, n_max: int) -> DiscreteSignal:
    """Sample the generator at every integer in ``[n_min, n_max]``."""
    n_min, n_max = _whole(n_min, "n_min"), _whole(n_max, "n_max")
    if n_min > n_max:
        raise ConfigError(f"need n_min <= n_max, got [{n_min}, {n_max}]")
    if n_min < -2 ** 53 or n_max > 2 ** 53:
        raise ConfigError("integer grid positions must lie within +-2**53")
    vals, bound = _grid_values(spec, n_min, 1.0, n_max - n_min + 1)
    return DiscreteSignal(n_min, vals, bound, source=kind_of(spec))


def render_continuous(spec: GeneratorSpec, x0: float, h: float,
                      count: int) -> ContinuousSignal:
    """Sample the generator at ``x0 + j*h`` for ``j = 0..count-1``.

    Enforces the aliasing guard ``h * f_max <= MAX_CYCLES_PER_STEP`` for
    generators with declared frequencies, keeping the trapezoid window
    quadrature error at O((h*f)^2) per window.
    """
    if not (math.isfinite(x0) and math.isfinite(h)):
        raise ConfigError(f"grid x0={x0}, h={h} must be finite")
    if h <= 0:
        raise ConfigError("grid step must be positive")
    count = _whole(count, "count")
    if count < 1:
        raise ConfigError(f"need at least one sample, got count={count}")
    end = x0 + h * (count - 1)
    if not math.isfinite(end):
        raise ConfigError(f"grid end x0 + h*(count-1) = {end} must be finite")
    fm = max_frequency(spec)
    if fm is not None and h * fm > MAX_CYCLES_PER_STEP + 1e-12:
        raise AliasingError(
            f"h*f_max = {h * fm:.4g} exceeds {MAX_CYCLES_PER_STEP}; refine the grid")
    vals, bound = _grid_values(spec, x0, h, count)
    return ContinuousSignal(x0, h, vals, bound, source=kind_of(spec))


# ---------------------------------------------------------------------------
# Finite kernels (nonnegative, unit mass)
# ---------------------------------------------------------------------------

def gaussian_kernel(sigma: float) -> DiscreteSignal:
    """Discrete Gaussian truncated at 4 sigma, normalized to unit mass."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = int(math.ceil(4 * sigma))
    j = np.arange(-r, r + 1)
    w = np.exp(-0.5 * (j / sigma) ** 2)
    w /= w.sum()
    return DiscreteSignal(-r, w, float(w.max()), Extension.VALID_ONLY, "kernel")


def gaussian_kernel_continuous(sigma: float, h: float) -> ContinuousSignal:
    """Gaussian sampled on step ``h`` out to 4 sigma, with unit trapezoid mass."""
    if sigma <= 0 or h <= 0:
        raise ValueError("sigma and h must be positive")
    m = max(1, int(round(4 * sigma / h)))
    t = h * np.arange(-m, m + 1)
    w = np.exp(-0.5 * (t / sigma) ** 2)
    w /= np.trapezoid(w, dx=h)
    return ContinuousSignal(-m * h, h, w, float(w.max()),
                            Extension.VALID_ONLY, "kernel")

