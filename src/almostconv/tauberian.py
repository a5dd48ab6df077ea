"""Boundary mean sweeps and convergence-chain verification.

Three notions of convergence are compared on the same data: ordinary
convergence (tail stabilization), weak* convergence (stabilization of a
smoothed signal against a kernel with non-vanishing transform), and
almost convergence (uniform window means from :mod:`almostconv.cesaro`).
Ordinary implies weak*, which implies almost convergence, always; the
converses hold under Tauberian side conditions which this module tests
numerically:

- :func:`abel_sweep` / :func:`laplace_sweep` evaluate the boundary means
  ``(1-x) * sum a_n x^n`` and ``x * integral psi(t) exp(-x t) dt`` along a
  schedule approaching the boundary, with certified truncation bounds
  from the declared sup bound, never from the data.
- :func:`residue_oac_estimate` cross-checks the extrapolated Abel limit
  against the one-sided window-mean limit (they agree for bounded data).
- :func:`fatou_check` verifies the convergent-series decomposition:
  partial sums stabilize at the declared boundary value, their one-sided
  window means agree, and increments vanish.
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
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    InsufficientCoefficients,
    KernelVanishes,
    RangeTooShort,
    TailNotControlled,
)
from .signals import (
    ContinuousSignal,
    DiscreteSignal,
    Sidedness,
    Signal,
    WindowSchedule,
    gaussian_kernel,
    gaussian_kernel_continuous,
)
from .cesaro import ac_verdict, cesaro_sweep
from .spectral import convolve, require_kernel_fits, require_unit_mass
from .verdict import ACVerdict, VerdictStatus

DEFAULT_TAIL_TOL = 1e-12
_NEGATIVE_FACTOR = 10.0
_PERSISTENCE = 0.9


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
        xs = self.abscissas
        if not xs:
            raise ValueError("empty abscissa schedule")
        if self.method is MeanMethod.ABEL:
            ok = all(0 < x < 1 for x in xs) and all(b > a for a, b in zip(xs, xs[1:]))
        else:
            ok = all(x > 0 for x in xs) and all(b < a for a, b in zip(xs, xs[1:]))
        if not ok:
            raise ValueError("abscissas must move strictly toward the boundary")
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


def abel_sweep(coeffs, bound: float, x_schedule,
               tail_tol: float = DEFAULT_TAIL_TOL) -> MeanSweep:
    """Values of ``(1-x) * sum_{n<=M(x)} a_n x^n`` along the schedule.

    ``M(x) = ceil(log(tail_tol/bound) / log(x))`` certifies the dropped
    tail at ``bound * x^M <= tail_tol`` using the declared bound only.
    Raises :class:`InsufficientCoefficients` when the stream is shorter
    than the certified index for some abscissa.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    if bound <= 0:
        raise ValueError("declared bound must be positive")
    if np.max(np.abs(a)) > bound * (1 + 1e-12):
        raise ValueError("coefficients exceed the declared bound")
    xs = [float(x) for x in x_schedule]
    if any(not 0 < x < 1 for x in xs) or any(b <= a_ for a_, b in zip(xs, xs[1:])):
        raise ValueError("Abel abscissas must increase strictly toward 1")
    values = []
    for x in xs:
        m = int(math.ceil(math.log(tail_tol / bound) / math.log(x)))
        m = max(m, 1)
        if m >= len(a):
            raise InsufficientCoefficients(
                f"need {m + 1} coefficients for x={x}, have {len(a)}")
        powers = np.power(x, np.arange(m + 1))
        values.append(complex((1.0 - x) * np.dot(a[:m + 1], powers)))
    extrap = _extrapolate([1.0 - x for x in xs], values) if len(xs) >= 3 else None
    return MeanSweep(MeanMethod.ABEL, tuple(xs), tuple(values), extrap,
                     tail_bound=tail_tol)


def laplace_sweep(signal: ContinuousSignal, x_schedule,
                  tail_tol: float = 1e-9) -> MeanSweep:
    """Values of ``x * integral_0^T psi(t) exp(-x t) dt`` along the schedule.

    Requires the rendering to reach far enough that
    ``bound * exp(-x T) <= tail_tol * x`` for every abscissa
    (:class:`TailNotControlled` otherwise), so the dropped tail of the
    transform is certified from the declared bound.
    """
    if not isinstance(signal, ContinuousSignal):
        raise TypeError("Laplace sweep needs a continuous signal")
    if signal.x0 < -1e-12:
        raise ValueError("signal must live on the nonnegative half-line")
    xs = [float(x) for x in x_schedule]
    T = signal.x_end
    t = signal.x_at(np.arange(len(signal)))
    values = []
    for x in xs:
        if x <= 0:
            raise ValueError(f"Laplace abscissa {x} must be positive")
        if signal.bound * math.exp(-x * T) > tail_tol * x:
            raise TailNotControlled(
                f"range [0, {T}] too short for abscissa {x}: "
                f"tail {signal.bound * math.exp(-x * T):.3g} > {tail_tol * x:.3g}")
        integrand = signal.samples * np.exp(-x * t)
        values.append(complex(x * np.trapezoid(integrand, dx=signal.h)))
    extrap = _extrapolate(xs, values) if len(xs) >= 3 else None
    return MeanSweep(MeanMethod.LAPLACE, tuple(xs), tuple(values), extrap,
                     tail_bound=tail_tol)


def bounded_below(values, C: float) -> bool:
    """Componentwise check Re >= -C and Im >= -C on the rendered stream."""
    v = np.asarray(values, dtype=np.complex128)
    return bool(np.all(v.real >= -C) and np.all(v.imag >= -C))


def _one_sided_windows(n: int) -> WindowSchedule:
    """Default one-sided schedule for an n-term stream: 2, 4, ... up to
    the largest power of two at most ``max(4, n // 8)``."""
    k_max = max(4, 1 << (max(2, n // 8).bit_length() - 1))
    return WindowSchedule.geometric(2, k_max, 2, Sidedness.ONE_SIDED)


@dataclass(frozen=True)
class ResidueReport:
    """Abel limit versus one-sided window-mean limit."""

    alpha_est: complex
    cesaro_verdict: ACVerdict
    agreement: Optional[float]


def residue_oac_estimate(coeffs, bound: float, x_schedule,
                         window_schedule: Optional[WindowSchedule] = None,
                         tol: float = 1e-6,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> ResidueReport:
    """Extrapolated Abel limit with a one-sided Cesaro cross-check.

    For a coefficient stream whose generating function has a simple pole
    at the boundary, the Abel mean limit equals the one-sided
    almost-convergence limit of the stream (sign convention under
    regression guard: the all-ones stream gives +1).  ``agreement`` is
    the distance between the two limits when the window verdict is
    positive, else None.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    sweep = abel_sweep(a, bound, x_schedule, tail_tol)
    if sweep.extrapolated_limit is None:
        raise ValueError("need at least 3 abscissas to extrapolate")
    if window_schedule is None:
        window_schedule = _one_sided_windows(len(a))
    stream = DiscreteSignal(0, a, bound)
    verdict = ac_verdict(cesaro_sweep(stream, window_schedule), tol)
    agreement = None
    if verdict.positive:
        agreement = abs(sweep.extrapolated_limit - verdict.limit)
    return ResidueReport(alpha_est=sweep.extrapolated_limit,
                         cesaro_verdict=verdict, agreement=agreement)


@dataclass(frozen=True)
class FatouReport:
    """Decomposition check for a convergent power series at the boundary."""

    partial_sum_error: float
    oac_verdict: ACVerdict
    oac_limit_error: Optional[float]
    increment_tail: float
    passed: bool
    check_index: int


def fatou_check(coeffs, f1: complex, tol: float,
                window_schedule: Optional[WindowSchedule] = None,
                check_index: Optional[int] = None,
                decay_tol: float = 1e-8,
                oac_tol: Optional[float] = None) -> FatouReport:
    """Verify the convergent-series route to a declared boundary value.

    The caller asserts the series is analytic at the boundary and supplies
    its value ``f1``; coefficient decay is verified on the tail of the
    stream (:class:`HypothesisViolated` otherwise).  Checks, at
    ``check_index`` (default: end of stream): |s_N - f1| <= tol; the
    one-sided window-mean verdict of the partial sums equals f1; and the
    increments s_{n+1} - s_n vanish on the tail.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    if len(a) < 8:
        raise ValueError("coefficient stream too short")
    tail = np.abs(a[-max(2, len(a) // 4):])
    if tail.max() > decay_tol:
        raise HypothesisViolated(
            f"coefficients do not decay: tail max {tail.max():.3g} > {decay_tol}")
    sums = np.cumsum(a)
    n_check = len(a) - 1 if check_index is None else int(check_index)
    if not 0 <= n_check < len(a):
        raise ValueError("check index outside the stream")
    s_err = abs(complex(sums[n_check]) - f1)
    if window_schedule is None:
        window_schedule = _one_sided_windows(len(a))
    stream = DiscreteSignal(0, sums, float(np.max(np.abs(sums))) + abs(f1))
    verdict = ac_verdict(cesaro_sweep(stream, window_schedule),
                         tol if oac_tol is None else oac_tol)
    limit_err = abs(verdict.limit - f1) if verdict.positive else None
    inc_tail = float(tail.max())
    passed = (s_err <= tol and verdict.positive and limit_err is not None
              and limit_err <= (tol if oac_tol is None else oac_tol)
              and inc_tail <= decay_tol)
    return FatouReport(partial_sum_error=s_err, oac_verdict=verdict,
                       oac_limit_error=limit_err, increment_tail=inc_tail,
                       passed=passed, check_index=n_check)


# ---------------------------------------------------------------------------
# weak* and ordinary convergence as tail stabilization
# ---------------------------------------------------------------------------

def _tail_verdict(positions: np.ndarray, values: np.ndarray,
                  tol: float) -> ACVerdict:
    """Stabilization of a sampled trajectory over its last quarter.

    Positive when the last quarter sits within ``tol`` of its mean;
    negative when oscillation at least ten times the tolerance persists
    from the previous quarter to the last without shrinking.
    """
    n = len(values)
    if n < 8:
        raise RangeTooShort("need at least 8 trajectory samples")
    q = max(2, n // 4)
    tail = values[-q:]
    prev = values[-2 * q:-q] if n >= 2 * q else tail
    center = complex(np.mean(tail))
    osc = float(np.max(np.abs(tail - center)))
    osc_prev = float(np.max(np.abs(prev - np.mean(prev))))
    if osc <= tol:
        return ACVerdict(VerdictStatus.ALMOST_CONVERGENT, center, osc)
    if osc >= _NEGATIVE_FACTOR * tol and osc_prev >= _NEGATIVE_FACTOR * tol \
            and osc >= _PERSISTENCE * osc_prev:
        i_hi = int(np.argmax(values[-q:].real))
        i_lo = int(np.argmin(values[-q:].real))
        witness = (float(positions[-q:][i_hi]) - float(positions[-q:][i_lo]),
                   float(positions[-q:][i_hi]), float(positions[-q:][i_lo]),
                   osc)
        return ACVerdict(VerdictStatus.NOT_ALMOST_CONVERGENT, None, osc, witness)
    return ACVerdict(VerdictStatus.INCONCLUSIVE, None, osc)


def _geometric_indices(lo: int, hi: int, count: int) -> np.ndarray:
    """Geometrically spaced integer offsets in [lo, hi], deduplicated."""
    if hi <= lo:
        return np.asarray([hi])
    raw = np.unique(np.geomspace(max(1, lo), hi, count).round().astype(int))
    return raw[(raw >= lo) & (raw <= hi)]


@dataclass(frozen=True)
class _View:
    """A signal, or its translation difference ``psi(x) - psi(x + lag*step)``.

    Only the grid (start, step, length) is known up front; samples are
    formed on request, one index slice at a time, so a route that reads
    a few windows never builds the whole difference.  The difference
    lives where both terms are sampled, as :func:`subtract` gives it.
    """

    signal: Signal
    lag: Optional[int] = None

    @classmethod
    def difference(cls, signal: Signal, s: float) -> "_View":
        d = signal.lag(s)
        if len(signal) - abs(d) <= 0:
            raise ValueError("signals have no overlapping range")
        return cls(signal, d)

    @property
    def first(self) -> int:
        """Signal index of the view's first sample."""
        return 0 if self.lag is None else max(0, -self.lag)

    def __len__(self) -> int:
        return len(self.signal) - (0 if self.lag is None else abs(self.lag))

    @property
    def start(self) -> float:
        return self.signal.x_at(self.first)

    def piece(self, a: int, e: int) -> Signal:
        """Samples ``a .. e-1`` of the view, as a signal on its grid."""
        sig = self.signal
        p, q = self.first + a, self.first + e
        if self.lag is None:
            return sig.derived(start=sig.x_at(p), values=sig.values[p:q])
        d = self.lag
        return sig.derived(start=sig.x_at(p),
                           values=sig.values[p:q] - sig.values[p + d:q + d],
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
    Indices whose windows overlap are merged into runs, and each run is
    convolved on just the samples it reads.
    """
    width = len(kernel)
    u, inverse = np.unique(idx, return_inverse=True)
    out = np.empty(len(u), dtype=np.complex128)
    if not len(u):
        return out
    cuts = (np.flatnonzero(np.diff(u) >= width) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(u)]):
        first, last = int(u[lo]), int(u[hi - 1])
        smoothed = convolve(view.piece(first, last + width), kernel)
        out[lo:hi] = smoothed.values[u[lo:hi] - first]
    return out[inverse]


def _weak_star(view: _View, kernel: Signal, shift_schedule, tol: float,
               kernel_floor: float = 1e-3,
               band: Optional[float] = None) -> ACVerdict:
    """:func:`weak_star_verdict` on a view of the signal."""
    signal = view.signal
    require_unit_mass(kernel)
    if band is None:
        band = 0.25 / signal.step  # half the Nyquist frequency
    _kernel_transform_floor(kernel, band, kernel_floor)
    n = len(view)
    require_kernel_fits(signal, kernel, n)
    positions = np.asarray(shift_schedule, dtype=np.float64)
    # the smoothed grid: the view's grid less the kernel support
    j = (positions - (view.start + kernel.x_end)) / signal.step
    idx = np.round(j)
    # written so that a NaN shift is off the grid too
    off = ~(np.abs(j - idx) <= 1e-6) | (idx < 0) | (idx >= n - len(kernel) + 1)
    if off.any():
        raise RangeTooShort(f"shift {positions[off][0]} outside the smoothed grid")
    return _tail_verdict(positions,
                         _smoothed_at(view, kernel, idx.astype(np.int64)), tol)


def weak_star_verdict(signal: Signal, kernel: Signal, shift_schedule,
                      tol: float, kernel_floor: float = 1e-3,
                      band: Optional[float] = None) -> ACVerdict:
    """Weak* convergence test: stabilization of the smoothed signal.

    Convergence of the signal against every integrable test function
    reduces, by Wiener's theorem, to convergence of its convolution with
    a single unit-mass kernel whose transform stays away from zero on
    the analysis band (checked; :class:`KernelVanishes` otherwise).
    The smoothed trajectory is sampled along ``shift_schedule`` and its
    last quarter must stabilize within ``tol`` for a positive verdict.

    The smoothed signal is computed only on the kernel windows that the
    schedule reads: each shift is placed on the smoothed grid (within
    1e-6 of a grid point, else :class:`RangeTooShort`), and each run of
    overlapping windows is convolved on its own slice of the signal.
    The values read are those of the whole-signal convolution.
    """
    return _weak_star(_View(signal), kernel, shift_schedule, tol,
                      kernel_floor, band)


def ordinary_verdict(signal: Signal, tol: float,
                     sample_count: int = 96) -> ACVerdict:
    """Ordinary convergence as stabilization at geometrically growing |x|.

    Values are read at positions whose distance from 0 doubles on
    average, so each quarter of the sample list spans fixed octaves of
    |x| no matter the rendered length.
    """
    positions = geometric_tail_positions(signal, sample_count)
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


@dataclass(frozen=True)
class PrimitiveReport:
    """One-sided window-mean limit of a running integral."""

    oac_verdict: ACVerdict
    limit_error: Optional[float]
    tail_converges: Optional[bool]
    final_value_error: float
    passed: bool


def primitive_oac_check(psi: ContinuousSignal, L0: complex, tol: float,
                        window_schedule: Optional[WindowSchedule] = None,
                        bounded_below_C: Optional[float] = None,
                        decay_tol: float = 1e-6) -> PrimitiveReport:
    """Check that the running integral of psi window-means to ``L0``.

    The caller asserts the transform of psi is analytic at 0 with value
    ``L0``.  The running integral (cumulative trapezoid) gets a one-sided
    window-mean verdict whose limit must match ``L0`` within ``tol``;
    when the tail of psi itself vanishes, plain convergence of the
    running integral is asserted as well.  An optional componentwise
    lower bound on psi is verified when supplied
    (:class:`HypothesisViolated` otherwise).
    """
    if not isinstance(psi, ContinuousSignal):
        raise TypeError("need a continuous stream on the half-line")
    if psi.x0 < -1e-12:
        raise ValueError("stream must start at x >= 0")
    if bounded_below_C is not None and not bounded_below(psi.samples, bounded_below_C):
        raise HypothesisViolated(
            f"stream not bounded below by -{bounded_below_C} componentwise")
    v = psi.samples
    prim = psi.running_sum()
    big = ContinuousSignal(psi.x0, psi.h, prim, float(np.max(np.abs(prim))) + 1.0,
                           psi.extension, "primitive")
    if window_schedule is None:
        span = psi.x_end - psi.x0
        top = span / 4
        window_schedule = WindowSchedule.geometric(
            max(psi.h * 4, top / 16), top, 2, Sidedness.ONE_SIDED)
    verdict = ac_verdict(cesaro_sweep(big, window_schedule), tol)
    limit_err = abs(verdict.limit - L0) if verdict.positive else None
    tail = np.abs(v[-max(2, len(v) // 10):])
    tail_conv = None
    final_err = abs(complex(prim[-1]) - L0)
    if tail.max() <= decay_tol:
        tail_conv = final_err <= tol
    passed = (verdict.positive and limit_err is not None and limit_err <= tol
              and (tail_conv is None or tail_conv))
    return PrimitiveReport(oac_verdict=verdict, limit_error=limit_err,
                           tail_converges=tail_conv,
                           final_value_error=final_err, passed=passed)


# ---------------------------------------------------------------------------
# chain report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainConfig:
    """Knobs for :func:`chain_report`; unset pieces get derived defaults."""

    tol: float = 1e-2
    window_schedule: Optional[WindowSchedule] = None
    kernel: Optional[Signal] = None
    shift_schedule: Optional[tuple] = None
    difference_shifts: Optional[tuple] = None
    tail_fraction: float = 0.25
    consistency_tol: Optional[float] = None
    osc_width: Optional[float] = None
    osc_tail_start: Optional[float] = None
    shift_stride: int = 1

    def resolved_consistency_tol(self) -> float:
        return self.consistency_tol if self.consistency_tol is not None else 10 * self.tol


@dataclass(frozen=True)
class DifferenceDecay:
    shift: float
    verdict: ACVerdict


@dataclass(frozen=True)
class ChainReport:
    """Joint verdicts with chain-monotonicity enforcement.

    ``consistency`` is true when no implication of the chain
    (ordinary => weak* => almost convergence, plus the conditional
    converse from translation-difference decay) is contradicted: a
    positive verdict earlier in the chain must reappear later with the
    same limit, and almost convergence plus difference decay must come
    with a positive weak* verdict.
    """

    c_verdict: ACVerdict
    wstar_verdict: ACVerdict
    ac_verdict: ACVerdict
    difference_decay: tuple
    oscillation_modulus: float
    consistency: bool
    violations: tuple


def _limits_match(a: ACVerdict, b: ACVerdict, tol: float) -> bool:
    return abs(a.limit - b.limit) <= tol


def _default_chain_pieces(signal: Signal, config: ChainConfig):
    step = signal.step
    span = step * (len(signal) - 1)
    schedule = config.window_schedule
    if schedule is None:
        top = span / 8
        bottom = max(4 * step, top / 64)
        schedule = WindowSchedule.geometric(bottom, top, 2, Sidedness.TWO_SIDED)
    kernel = config.kernel
    if kernel is None:
        if signal.trapezoid:
            kernel = gaussian_kernel_continuous(2 * step, step, radius=8 * step)
        else:
            kernel = gaussian_kernel(0.5, radius=2)
    shifts = config.shift_schedule
    if shifts is None:
        shifts = tuple(geometric_tail_positions(signal, 96, pad=len(kernel) + 2))
    diffs = config.difference_shifts
    if diffs is None:
        diffs = tuple(step * d for d in (1, 4, 16))
    return schedule, kernel, shifts, diffs


def chain_report(signal: Signal, config: ChainConfig = ChainConfig()) -> ChainReport:
    """Run ordinary, weak*, and window-mean verdicts and check the chain.

    Each translation difference ``psi(x) - psi(x + s)`` is read where its
    weak* verdict reads it and nowhere else: its tail positions come
    from its grid alone, and its samples are formed only on the kernel
    windows of those positions.
    """
    schedule, kernel, shifts, diff_shifts = _default_chain_pieces(signal, config)
    tol = config.tol
    ctol = config.resolved_consistency_tol()

    c_v = ordinary_verdict(signal, tol)
    w_v = weak_star_verdict(signal, kernel, shifts, tol)
    sweep = cesaro_sweep(signal, schedule, config.shift_stride)
    ac_v = ac_verdict(sweep, tol)

    decay = []
    for s in diff_shifts:
        diff = _View.difference(signal, s)
        dshifts = diff.tail_positions(64, pad=len(kernel) + 2)
        decay.append(DifferenceDecay(float(s), _weak_star(diff, kernel, dshifts, tol)))
    decay = tuple(decay)

    step = signal.step
    span = step * (len(signal) - 1)
    u = config.osc_width if config.osc_width is not None else 4 * step
    T = config.osc_tail_start if config.osc_tail_start is not None \
        else abs(signal.start + span / 2)
    osc = oscillation_modulus(signal, u, T)

    violations = []
    if c_v.positive:
        if not w_v.positive:
            violations.append("ordinary limit present but weak* verdict not positive")
        elif not _limits_match(c_v, w_v, ctol):
            violations.append("ordinary and weak* limits disagree")
        if not ac_v.positive:
            violations.append("ordinary limit present but window-mean verdict not positive")
        elif not _limits_match(c_v, ac_v, ctol):
            violations.append("ordinary and window-mean limits disagree")
    if w_v.positive:
        if not ac_v.positive:
            violations.append("weak* limit present but window-mean verdict not positive")
        elif not _limits_match(w_v, ac_v, ctol):
            violations.append("weak* and window-mean limits disagree")
    all_diffs_decay = bool(decay) and all(
        d.verdict.positive and abs(d.verdict.limit) <= ctol for d in decay)
    if ac_v.positive and all_diffs_decay:
        if not w_v.positive:
            violations.append(
                "window-mean limit with decaying differences but weak* not positive")
        elif not _limits_match(ac_v, w_v, ctol):
            violations.append("conditional-converse limits disagree")

    return ChainReport(
        c_verdict=c_v,
        wstar_verdict=w_v,
        ac_verdict=ac_v,
        difference_decay=decay,
        oscillation_modulus=osc,
        consistency=not violations,
        violations=tuple(violations),
    )
