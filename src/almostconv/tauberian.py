"""Boundary mean sweeps and convergence-chain verification.

Three notions of convergence are compared on the same data: ordinary
convergence (tail stabilization), weak* convergence (stabilization of a
smoothed signal against a kernel with non-vanishing transform), and
almost convergence (uniform window means from :mod:`almostconv.cesaro`).
Ordinary implies weak*, which implies almost convergence, always; the
converses hold under Tauberian side conditions which this module tests
numerically.  Every check takes a :class:`Signal` on either group; its
quadrature rule picks the route:

- :func:`boundary_sweep` evaluates the boundary means of the signal's
  group along a schedule approaching the boundary: Abel means
  ``(1-x) * sum a_n x^n`` of a plain-sum signal (:func:`abel_sweep`, Z)
  or Laplace means ``x * integral psi(t) exp(-x t) dt`` of a trapezoid
  signal (:func:`laplace_sweep`, R), with certified truncation bounds
  from the declared sup bound, never from the data.
- :func:`residue_oac_estimate` cross-checks the extrapolated boundary
  limit against the one-sided window-mean limit (they agree for bounded
  data).
- :func:`primitive_check` verifies that the primitive (partial sums on
  Z, running integral on R) window-means to the transform's declared
  boundary value, and converges to it when the signal's tail vanishes.
- :func:`chain_report` runs all three verdicts plus translation-difference
  decay and enforces chain monotonicity.

Boundary extrapolation fits a quadratic through the last three sweep
points in the distance-to-boundary variable and evaluates it at 0,
matching the O(distance) error of simple-pole models.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    InsufficientCoefficients,
    KernelVanishes,
    RangeTooShort,
    TailNotControlled,
)
from .signals import (
    BLOCK,
    Sidedness,
    Signal,
    WindowSchedule,
    gaussian_kernel,
    gaussian_kernel_continuous,
)
from .cesaro import _extremes_from, ac_verdict, cesaro_sweep
from .spectral import convolve, require_kernel_fits, require_unit_mass
from .verdict import ACVerdict, Witness, judge

# weak*: least |kernel transform| accepted on the band below half Nyquist
_KERNEL_FLOOR = 1e-3


class MeanMethod(str, Enum):
    ABEL = "abel"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class MeanSweep:
    """Boundary-mean values along an abscissa schedule.

    For the Abel method the abscissas increase toward 1; for the Laplace
    method they decrease toward 0.  ``extrapolated_limit`` is the
    three-point polynomial extrapolation to the boundary.
    """

    method: MeanMethod
    abscissas: tuple
    values: tuple
    extrapolated_limit: Optional[complex]
    tail_bound: float

    def __post_init__(self):
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag))
               for v in self.values):
            raise ValueError("sweep values must be finite")


def _extrapolate(eps: Sequence[float], vals: Sequence[complex]) -> complex:
    """Evaluate at 0 the interpolating polynomial through the last 3 points."""
    e = np.asarray(eps[-3:], dtype=np.float64)
    v = np.asarray(vals[-3:], dtype=np.complex128)
    total = 0.0 + 0.0j
    for i in range(len(e)):
        li = 1.0
        for j in range(len(e)):
            if j != i:
                li *= (0.0 - e[j]) / (e[i] - e[j])
        total += v[i] * li
    return complex(total)


# certified truncation error of each boundary mean
_ABEL_TAIL = 1e-12
_LAPLACE_TAIL = 1e-9


def _abscissas(method: MeanMethod, x_schedule) -> list:
    """The schedule as floats, moving strictly toward the method's boundary."""
    xs = [float(x) for x in x_schedule]
    if not xs:
        raise ValueError("empty abscissa schedule")
    pairs = list(zip(xs, xs[1:]))
    if method is MeanMethod.ABEL:
        if any(not 0 < x < 1 for x in xs) or any(b <= a for a, b in pairs):
            raise ValueError("Abel abscissas must increase strictly toward 1")
    elif any(not x > 0 for x in xs) or any(b >= a for a, b in pairs):
        raise ValueError("Laplace abscissas must decrease strictly toward 0")
    return xs


def abel_sweep(coeffs, bound: float, x_schedule) -> MeanSweep:
    """Values of ``(1-x) * sum_{n<=M(x)} a_n x^n`` along the schedule.

    ``M(x) = ceil(log(1e-12/bound) / log(x))`` certifies the dropped
    tail at ``bound * x^M <= 1e-12`` using the declared bound only.
    Raises :class:`InsufficientCoefficients` when the stream is shorter
    than the certified index for some abscissa.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    if bound <= 0:
        raise ValueError("declared bound must be positive")
    if np.max(np.abs(a)) > bound * (1 + 1e-12):
        raise ValueError("coefficients exceed the declared bound")
    xs = _abscissas(MeanMethod.ABEL, x_schedule)
    values = []
    # overflow and NaN are left to MeanSweep's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs:
            m = int(math.ceil(math.log(_ABEL_TAIL / bound) / math.log(x)))
            m = max(m, 1)
            if m >= len(a):
                raise InsufficientCoefficients(
                    f"need {m + 1} coefficients for x={x}, have {len(a)}")
            powers = np.power(x, np.arange(m + 1))
            values.append(complex((1.0 - x) * np.dot(a[:m + 1], powers)))
        extrap = _extrapolate([1.0 - x for x in xs], values) if len(xs) >= 3 else None
    return MeanSweep(MeanMethod.ABEL, tuple(xs), tuple(values), extrap,
                     tail_bound=_ABEL_TAIL)


def laplace_sweep(signal: Signal, x_schedule) -> MeanSweep:
    """Values of ``x * integral_0^T psi(t) exp(-x t) dt`` along the schedule.

    Requires the rendering to reach far enough that
    ``bound * exp(-x T) <= 1e-9 * x`` for every abscissa
    (:class:`TailNotControlled` otherwise, checked for every abscissa
    before any integral), so the dropped tail of the transform is
    certified from the declared bound.

    Each integral is ``np.trapezoid`` of ``psi(t) * exp(-x t)`` bit for
    bit: its terms ``step * (y[j+1] + y[j]) / 2.0`` fill one buffer
    ``BLOCK`` at a time, and one ``np.add.reduce`` sums the whole buffer
    as ``np.trapezoid`` does.
    """
    if not signal.trapezoid:
        raise TypeError("Laplace sweep needs a continuous signal")
    if signal.start < -1e-12:
        raise ValueError("signal must live on the nonnegative half-line")
    xs = _abscissas(MeanMethod.LAPLACE, x_schedule)
    T = signal.x_end
    for x in xs:
        if signal.bound * math.exp(-x * T) > _LAPLACE_TAIL * x:
            raise TailNotControlled(
                f"range [0, {T}] too short for abscissa {x}: "
                f"tail {signal.bound * math.exp(-x * T):.3g} > {_LAPLACE_TAIL * x:.3g}")
    v, step = signal.values, signal.step
    terms = np.empty(len(v) - 1, dtype=np.complex128)
    scratch = np.empty(min(BLOCK + 1, len(v)), dtype=np.complex128)
    values = []
    # overflow and NaN are left to MeanSweep's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs:
            for lo in range(0, len(terms), BLOCK):
                hi = min(lo + BLOCK, len(terms))
                y = np.multiply(v[lo:hi + 1],
                                np.exp(-x * signal.x_at(np.arange(lo, hi + 1))),
                                out=scratch[:hi + 1 - lo])
                out = np.add(y[1:], y[:-1], out=terms[lo:hi])
                np.multiply(step, out, out=out)
                np.true_divide(out, 2.0, out=out)
            values.append(complex(x * np.add.reduce(terms)))
        extrap = _extrapolate(xs, values) if len(xs) >= 3 else None
    return MeanSweep(MeanMethod.LAPLACE, tuple(xs), tuple(values), extrap,
                     tail_bound=_LAPLACE_TAIL)


def boundary_sweep(signal: Signal, x_schedule=()) -> MeanSweep:
    """Boundary means of the signal's group along ``x_schedule``.

    A plain-sum signal (Z) gets :func:`abel_sweep` of its values read as
    the coefficients ``a_0, a_1, ...``; a trapezoid signal (R) gets
    :func:`laplace_sweep`.  An empty schedule means ``1 - 2^-j`` (Abel)
    or ``2^-(j+2)`` (Laplace) for j = 3, 4, 5.
    """
    xs = tuple(x_schedule)
    if signal.trapezoid:
        return laplace_sweep(signal, xs or (2.0 ** -5, 2.0 ** -6, 2.0 ** -7))
    return abel_sweep(signal.values, signal.bound,
                      xs or (1 - 2.0 ** -3, 1 - 2.0 ** -4, 1 - 2.0 ** -5))


def bounded_below(values, C: float) -> bool:
    """Componentwise check Re >= -C and Im >= -C on the rendered stream."""
    v = np.asarray(values, dtype=np.complex128)
    return bool(np.all(v.real >= -C) and np.all(v.imag >= -C))


def _one_sided_windows(signal: Signal) -> WindowSchedule:
    """Default one-sided schedule: doubling from ``max(step, top / 16)``
    up to ``top``, a quarter of the signal's span."""
    top = (signal.x_end - signal.start) / 4
    return WindowSchedule.geometric(max(signal.step, top / 16), top, 2,
                                    Sidedness.ONE_SIDED)


@dataclass(frozen=True)
class ResidueReport:
    """Boundary limit versus one-sided window-mean limit."""

    alpha_est: complex
    cesaro_verdict: ACVerdict
    agreement: Optional[float]


def residue_oac_estimate(signal: Signal, x_schedule=(),
                         window_schedule: Optional[WindowSchedule] = None,
                         tol: float = 1e-6) -> ResidueReport:
    """Extrapolated boundary limit with a one-sided Cesaro cross-check.

    When the signal's transform (power series on Z, Laplace transform on
    R) has a simple pole at the boundary, the limit of
    :func:`boundary_sweep` equals the one-sided almost-convergence limit
    of the signal (sign convention under regression guard: the all-ones
    stream gives +1).  ``agreement`` is the distance between the two
    limits when the window verdict is positive, else None.
    """
    sweep = boundary_sweep(signal, x_schedule)
    if sweep.extrapolated_limit is None:
        raise ValueError("need at least 3 abscissas to extrapolate")
    schedule = window_schedule or _one_sided_windows(signal)
    verdict = ac_verdict(cesaro_sweep(signal, schedule), tol)
    agreement = None
    if verdict.positive:
        agreement = abs(sweep.extrapolated_limit - verdict.limit)
    return ResidueReport(alpha_est=sweep.extrapolated_limit,
                         cesaro_verdict=verdict, agreement=agreement)


@dataclass(frozen=True)
class PrimitiveReport:
    """One-sided window-mean limit of a signal's primitive.

    ``tail`` is the largest ``|value|`` over the signal's last quarter;
    ``tail_converges`` is None unless that is at most 1e-8.
    """

    oac_verdict: ACVerdict
    limit_error: Optional[float]
    tail: float
    tail_converges: Optional[bool]
    final_value_error: float
    passed: bool


def primitive_check(signal: Signal, value: complex, tol: float,
                    window_schedule: Optional[WindowSchedule] = None,
                    check_index: Optional[int] = None,
                    bounded_below_C: Optional[float] = None) -> PrimitiveReport:
    """Check that the signal's primitive window-means to ``value``.

    The caller asserts that the signal's transform (power series on Z,
    Laplace transform on R) is analytic at the boundary with value
    ``value`` there.  The primitive, from the first sample on, is the
    partial sums on Z and the running trapezoid integral on R.  Its
    one-sided window-mean limit must match ``value`` within ``tol``:
    that is the almost-convergence conclusion, and it needs no decay.
    When the signal's last quarter stays within 1e-8 of 0, the primitive
    must also converge: its value at ``check_index`` (default: the last
    sample) must be within ``tol`` of ``value``.  An optional
    componentwise lower bound on the signal is verified when supplied
    (:class:`HypothesisViolated` otherwise).
    """
    if signal.start < -1e-12:
        raise ValueError("signal must start at x >= 0")
    if bounded_below_C is not None and not bounded_below(signal.values, bounded_below_C):
        raise HypothesisViolated(
            f"signal not bounded below by -{bounded_below_C} componentwise")
    n = len(signal)
    i = n - 1 if check_index is None else int(check_index)
    if not 0 <= i < n:
        raise ValueError("check index outside the signal")
    prim = np.empty(n, dtype=np.complex128)
    prim.real, prim.imag = signal.running_rows()[:, -n:]
    primitive = signal.derived(values=prim, bound=float(np.max(np.abs(prim))),
                               source="primitive")
    schedule = window_schedule or _one_sided_windows(signal)
    verdict = ac_verdict(cesaro_sweep(primitive, schedule), tol)
    limit_err = abs(verdict.limit - value) if verdict.positive else None
    tail = float(np.max(np.abs(signal.values[-max(2, n // 4):])))
    final_err = abs(complex(prim[i]) - value)
    tail_conv = final_err <= tol if tail <= 1e-8 else None
    passed = limit_err is not None and limit_err <= tol and tail_conv is not False
    return PrimitiveReport(oac_verdict=verdict, limit_error=limit_err, tail=tail,
                           tail_converges=tail_conv, final_value_error=final_err,
                           passed=passed)


# ---------------------------------------------------------------------------
# weak* and ordinary convergence as tail stabilization
# ---------------------------------------------------------------------------

def _tail_verdict(positions: np.ndarray, values: np.ndarray,
                  tol: float) -> ACVerdict:
    """Stabilization of a sampled trajectory over its last quarter.

    :func:`~almostconv.verdict.judge` rules on two gaps: the oscillation
    about its mean of the previous quarter, then of the last.  A positive
    verdict's limit is the last quarter's mean; a negative one's witness
    holds the positions of the largest and smallest values there of the
    part (real or imaginary) with the wider spread, as a window-mean
    witness does.  A mean or oscillation that overflows is a
    ``ValueError``.
    """
    n = len(values)
    if n < 8:
        raise RangeTooShort("need at least 8 trajectory samples")
    q = max(2, n // 4)
    tail = values[-q:]
    prev = values[-2 * q:-q] if n >= 2 * q else tail
    with np.errstate(over="ignore", invalid="ignore"):
        center = complex(np.mean(tail))
        osc = float(np.max(np.abs(tail - center)))
        osc_prev = float(np.max(np.abs(prev - np.mean(prev))))
    if not np.isfinite([center, osc, osc_prev]).all():
        raise ValueError("trajectory means and oscillations must be finite")
    ext = _extremes_from(tail.real, tail.imag, lambda j: float(positions[-q:][j]))
    return judge((osc_prev, osc), tol, center,
                 Witness(None, ext.argmax, ext.argmin, osc))


def _geometric_indices(lo: int, hi: int, count: int) -> np.ndarray:
    """Geometrically spaced integer offsets in [lo, hi], deduplicated."""
    if hi <= lo:
        return np.asarray([hi])
    raw = np.unique(np.geomspace(max(1, lo), hi, count).round().astype(int))
    return raw[(raw >= lo) & (raw <= hi)]


@dataclass(frozen=True)
class _View:
    """A signal, or its translation difference ``psi(x) - psi(x + lag*step)``.

    ``lag`` is 0 for the signal itself and a positive step count for a
    difference, which lives on the signal's first ``len - lag`` grid
    points, as :func:`subtract` gives it.  Only the grid (start, step,
    length) is known up front; samples are gathered on request at the
    indices a route reads, so a route that reads a few windows never
    builds the whole difference.
    """

    signal: Signal
    lag: int = 0

    def __len__(self) -> int:
        return len(self.signal) - self.lag

    @property
    def start(self) -> float:
        return self.signal.x_at(0)

    def gathered(self, take: np.ndarray) -> Signal:
        """Samples at view indices ``take``, as one signal on the view's
        grid from ``take[0]``."""
        sig, d = self.signal, self.lag
        start = sig.x_at(int(take[0]))
        if not d:
            return sig.derived(start=start, values=sig.values[take])
        return sig.derived(start=start,
                           values=sig.values[take] - sig.values[take + d],
                           bound=2 * sig.bound, source=None)

    def tail_positions(self, count: int, pad: int) -> np.ndarray:
        """See :func:`geometric_tail_positions`."""
        n = len(self)
        step = self.signal.step
        start = self.start
        i0 = max(0, pad)
        i1 = n - 1 - pad
        if i1 <= i0:
            raise RangeTooShort("padding leaves no usable positions")
        # index of the grid point closest to x = 0, clipped into the range
        center = int(round(-start / step))
        center = min(max(center, i0), i1)
        offsets_right = _geometric_indices(1, i1 - center, count // 2) \
            if i1 > center else np.asarray([], dtype=int)
        offsets_left = _geometric_indices(1, center - i0, count // 2) \
            if center > i0 else np.asarray([], dtype=int)
        idx = np.concatenate(([center], center + offsets_right,
                              center - offsets_left))
        xs = start + idx * step
        order = np.argsort(np.abs(xs), kind="stable")
        return xs[order]


def geometric_tail_positions(signal: Signal, count: int = 96,
                             pad: int = 0) -> np.ndarray:
    """Grid positions at geometrically growing |x|, ordered by |x|.

    Self-similar signals (geometrically growing blocks) look constant on
    any uniformly sampled tail; positions spanning octaves expose their
    oscillation at every scale.  For ranges straddling 0 both directions
    are sampled and interleaved by |x|.
    """
    return _View(signal).tail_positions(count, pad)


def _kernel_transform_floor(kernel: Signal, band: float, floor: float) -> float:
    """Min |transform| of the kernel over [-band, band], zero-padded."""
    w = kernel.weights()
    # zero-pad to at least 4x the kernel, never truncate it
    n_pad = max(4096, 1 << (4 * len(w) - 1).bit_length())
    spec = np.fft.fft(w, n_pad)
    freqs = np.fft.fftfreq(n_pad, d=kernel.step)
    sel = np.abs(freqs) <= band + 1e-15
    m = float(np.min(np.abs(spec[sel])))
    if m < floor:
        raise KernelVanishes(
            f"kernel transform dips to {m:.3g} < floor {floor} on the band")
    return m


def _smoothed_at(view: _View, kernel: Signal, idx: np.ndarray) -> np.ndarray:
    """The kernel-smoothed view at smoothed-grid indices ``idx``.

    Smoothed index k reads view samples ``k .. k + len(kernel) - 1``.
    Indices whose windows overlap are merged into runs; the samples each
    run reads are laid end to end and convolved once, and each run's
    values are read at its offset there.  Every value read comes from a
    window inside its own run's samples.
    """
    width = len(kernel)
    u, inverse = np.unique(idx, return_inverse=True)
    if not len(u):
        return np.empty(0, dtype=np.complex128)
    starts = np.flatnonzero(np.diff(u, prepend=u[0] - width) >= width)
    ends = np.append(starts[1:], len(u))
    lengths = u[ends - 1] - u[starts] + width
    # how far each run's samples move: from its first index to its offset
    moved = np.cumsum(lengths) - lengths - u[starts]
    take = np.arange(int(lengths.sum())) - np.repeat(moved, lengths)
    smoothed = convolve(view.gathered(take), kernel).values
    return smoothed[u + np.repeat(moved, ends - starts)][inverse]


def _weak_star(view: _View, kernel: Signal, shift_schedule,
               tol: float) -> ACVerdict:
    """:func:`weak_star_verdict` on a view of the signal."""
    signal = view.signal
    require_unit_mass(kernel)
    # the analysis band ends at half the Nyquist frequency
    _kernel_transform_floor(kernel, 0.25 / signal.step, _KERNEL_FLOOR)
    n = len(view)
    require_kernel_fits(signal, kernel, n)
    positions = np.asarray(shift_schedule, dtype=np.float64)
    # the smoothed grid: the view's grid less the kernel support
    j = (positions - (view.start + kernel.x_end)) / signal.step
    idx = np.round(j)
    # distance to the grid, infinite for a NaN or infinite shift (and
    # never formed there, since inf - inf warns)
    dist = np.subtract(j, idx, out=np.full_like(j, np.inf), where=np.isfinite(j))
    off = (np.abs(dist) > 1e-6) | (idx < 0) | (idx >= n - len(kernel) + 1)
    if off.any():
        raise RangeTooShort(f"shift {positions[off][0]} outside the smoothed grid")
    return _tail_verdict(positions,
                         _smoothed_at(view, kernel, idx.astype(np.int64)), tol)


def weak_star_verdict(signal: Signal, kernel: Signal, shift_schedule,
                      tol: float) -> ACVerdict:
    """Weak* convergence test: stabilization of the smoothed signal.

    Convergence of the signal against every integrable test function
    reduces, by Wiener's theorem, to convergence of its convolution with
    a single unit-mass kernel whose transform stays away from zero on
    the analysis band, up to half the Nyquist frequency (at least 1e-3
    there, else :class:`KernelVanishes`).
    The smoothed trajectory is sampled along ``shift_schedule`` and its
    last quarter must stabilize within ``tol`` for a positive verdict.

    The smoothed signal is computed only on the kernel windows that the
    schedule reads: each shift is placed on the smoothed grid (within
    1e-6 of a grid point, else :class:`RangeTooShort`), runs of
    overlapping windows are merged, and the slices of the signal that
    the runs read are laid end to end and convolved in one call.  The
    values read are those of the whole-signal convolution.
    """
    return _weak_star(_View(signal), kernel, shift_schedule, tol)


def ordinary_verdict(signal: Signal, tol: float) -> ACVerdict:
    """Ordinary convergence as stabilization at geometrically growing |x|.

    Values are read at 96 positions whose distance from 0 doubles on
    average, so each quarter of the sample list spans fixed octaves of
    |x| no matter the rendered length.
    """
    positions = geometric_tail_positions(signal, 96)
    idx = np.round((positions - signal.start) / signal.step).astype(int)
    return _tail_verdict(positions, signal.values[idx], tol)


def _anchored_ends(signal: Signal, t: float) -> tuple:
    """``(lo, hi)`` with ``{j : |x_j| >= t}`` equal to ``[0, lo)`` and
    ``[hi, n)``: on an increasing grid the set ``|x| >= t`` is at most a
    prefix and a suffix.  ``(0, 0)`` when the two cover the grid."""
    n = len(signal)
    # x_at gives each index the same float as over an index array; a NaN
    # t anchors nothing, as it does elementwise
    lo = bisect.bisect_left(range(n), True, key=lambda j: not signal.x_at(j) <= -t)
    hi = bisect.bisect_left(range(n), True, key=lambda j: signal.x_at(j) >= t)
    return (0, 0) if hi <= lo else (lo, hi)


def oscillation_modulus(signal: Signal, u: float, T: float) -> float:
    """sup{ |psi(x) - psi(y)| : |x - y| <= u, |x|, |y| >= T } over the grid.

    Small values on growing T certify slow oscillation, the Tauberian
    condition upgrading weak* convergence to ordinary convergence.  Both
    points sit beyond the tail start, so for monotone decay the value is
    bounded by the decay at T itself.

    The anchored points ``|x| >= T`` form at most two index ranges, one
    below and one above 0, and each lag is differenced on those ranges
    only, plus the pairs that reach across the gap between them.
    """
    step = signal.step
    if u <= 0:
        raise ValueError("neighborhood width must be positive")
    m = int(math.floor(u / step + 1e-9))
    if m < 1:
        raise ValueError(f"width {u} below one grid step {step}")
    n = len(signal)
    lo, hi = _anchored_ends(signal, T - 1e-12)
    if lo == 0 and hi == n:
        raise RangeTooShort(f"no grid point with |x| >= {T}")
    vals = signal.values
    worst = 0.0
    for d in range(1, m + 1):
        # p and p + d both anchored: both below lo, both from hi, or across
        for p0, p1 in ((0, lo - d), (hi, n - d), (max(0, hi - d), min(lo, n - d))):
            if p1 > p0:
                worst = max(worst, float(np.abs(vals[p0 + d:p1 + d] - vals[p0:p1]).max()))
    return worst


# ---------------------------------------------------------------------------
# chain report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceDecay:
    shift: float
    verdict: ACVerdict


class Unconfirmed(NamedTuple):
    """An implication whose conclusion verdict is inconclusive, with its gap."""

    implication: str
    gap: float


@dataclass(frozen=True)
class ChainReport:
    """Joint verdicts with chain-monotonicity enforcement.

    Each implication of the chain (ordinary => weak* => almost
    convergence, plus the conditional converse: almost convergence with
    decaying translation differences => weak*) applies when its premise
    verdict is positive.  On finite data only a contradiction counts
    against it: a negative conclusion verdict, or a positive one whose
    limit differs from the premise's.  Those are the ``violations``, and
    ``consistency`` is true when there are none.  An inconclusive
    conclusion neither confirms nor refutes: ``unconfirmed`` names each
    such implication with the conclusion's gap.
    """

    c_verdict: ACVerdict
    wstar_verdict: ACVerdict
    ac_verdict: ACVerdict
    difference_decay: tuple
    oscillation_modulus: float
    consistency: bool
    violations: tuple
    unconfirmed: tuple


def _limits_match(a: ACVerdict, b: ACVerdict, tol: float) -> bool:
    return abs(a.limit - b.limit) <= tol


def chain_report(signal: Signal, tol: float = 1e-2) -> ChainReport:
    """Run ordinary, weak*, and window-mean verdicts and check the chain.

    The pieces come from the signal's grid: the three largest of the
    two-sided windows doubling from ``max(4 * step, span / 512)`` to
    ``span / 8``, the three whose gaps the window-mean verdict judges, so
    its steadiness slack is relative to the largest of those three; the
    kernel ``gaussian_kernel(0.5)`` on Z or ``gaussian_kernel_continuous(2 *
    step, step)`` on R; weak* read at 96 tail positions; limits compared
    within ``10 * tol``; the oscillation modulus over 4 steps beyond
    ``|x| >= |midpoint|``.  Difference decay is checked at lags of 1, 4
    and 16 steps.  Each translation difference ``psi(x) - psi(x + s)`` is
    read where its weak* verdict reads it and nowhere else: its tail
    positions come from its grid alone, and its samples are formed only
    on the kernel windows of those positions.
    """
    step = signal.step
    span = step * (len(signal) - 1)
    top = span / 8
    doubling = WindowSchedule.geometric(max(4 * step, top / 64), top, 2).lengths
    schedule = WindowSchedule(doubling[-3:], Sidedness.TWO_SIDED)
    kernel = (gaussian_kernel_continuous(2 * step, step) if signal.trapezoid
              else gaussian_kernel(0.5))
    shifts = tuple(geometric_tail_positions(signal, 96, pad=len(kernel) + 2))
    ctol = 10 * tol

    c_v = ordinary_verdict(signal, tol)
    w_v = weak_star_verdict(signal, kernel, shifts, tol)
    ac_v = ac_verdict(cesaro_sweep(signal, schedule), tol)

    decay = []
    for d in (1, 4, 16):
        diff = _View(signal, d)
        dshifts = diff.tail_positions(64, pad=len(kernel) + 2)
        decay.append(DifferenceDecay(step * d, _weak_star(diff, kernel, dshifts, tol)))
    decay = tuple(decay)
    osc = oscillation_modulus(signal, 4 * step, abs(signal.start + span / 2))

    all_diffs_decay = bool(decay) and all(
        d.verdict.positive and abs(d.verdict.limit) <= ctol for d in decay)
    # (premise, its verdict, conclusion, its verdict, when it applies)
    implications = (
        ("ordinary", c_v, "weak*", w_v, c_v.positive),
        ("ordinary", c_v, "window-mean", ac_v, c_v.positive),
        ("weak*", w_v, "window-mean", ac_v, w_v.positive),
        ("window-mean with decaying differences", ac_v, "weak*", w_v,
         ac_v.positive and all_diffs_decay),
    )
    violations, unconfirmed = [], []
    for premise, pv, conclusion, cv, applies in implications:
        if not applies:
            continue
        if cv.negative:
            violations.append(f"{premise} limit present but {conclusion} verdict negative")
        elif not cv.positive:
            unconfirmed.append(Unconfirmed(f"{premise} => {conclusion}", cv.uncertainty))
        elif not _limits_match(pv, cv, ctol):
            violations.append(f"{premise} and {conclusion} limits disagree")

    return ChainReport(
        c_verdict=c_v,
        wstar_verdict=w_v,
        ac_verdict=ac_v,
        difference_decay=decay,
        oscillation_modulus=osc,
        consistency=not violations,
        violations=tuple(violations),
        unconfirmed=tuple(unconfirmed),
    )
