"""Uniform sliding Cesaro analysis.

A bounded function almost converges to a value exactly when its window
means converge to that value uniformly in the window position.  This
module computes, for each window length in a schedule, the extremes of
the window mean over a shift grid, producing finite estimates of the
upper/lower uniform-mean functionals (``p_bar_est`` / ``p_lower_est``)
and a deterministic tri-state verdict.

Window conventions
------------------
- discrete two-sided, length k:  mean of 2k+1 values centered at the shift
- discrete one-sided, length k:  mean of k values starting at the shift
  (shift restricted to n >= 0)
- continuous: trapezoid-rule means over [x-k, x+k] resp. [x, x+k], with
  window lengths snapped to grid multiples.

How extremes are computed
-------------------------
The sweep builds one running sum per signal (``Signal.running_sum``: a plain
sum for discrete data, a cumulative trapezoid for continuous data) and
splits it into real and imaginary float arrays, extended with their end
values so that windows reaching outside the data read zero there.  Each
window length then takes all its window sums as one slice difference per
part and scales them by the reciprocal of the window width, which is how
NumPy divides a complex array by a real number, so the means are the same
bits as dividing complex window sums (a running sum holding -0.0, which
only leading -0.0 data gives, takes that complex division itself, so even
the signs of zero means agree).  Sup, inf, argmax and argmin come
straight from the two parts; only the winning shifts are converted to
positions.  :func:`window_average` and :func:`shift_extremes` evaluate
just the windows they are asked for from the same running sum.

The verdict logic is a finite-data surrogate, not a theorem: a limit is
reported when the sup-inf gap at the largest window is below tolerance
and has been non-increasing over the last three windows; divergence is
reported when a gap at least ten times the tolerance persists without
shrinking, together with witness shifts.  Everything else is
inconclusive.  Real and imaginary parts are tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyGrid, WindowOutOfRange
from .signals import Extension, Sidedness, Signal, WindowSchedule, subtract
from .spectral import convolve, require_unit_mass
from .verdict import ACVerdict, VerdictStatus

_MONOTONE_SLACK = 1e-12
_NEGATIVE_FACTOR = 10.0
_PERSISTENCE = 0.9


@dataclass(frozen=True)
class ShiftExtremes:
    """Componentwise extremes of window means over a shift grid."""

    sup: complex
    inf: complex
    argmax: float
    argmin: float


@dataclass(frozen=True)
class CesaroSweep:
    """Window-by-window extreme means plus final functional estimates.

    ``sup`` / ``inf`` hold componentwise extremes per window length
    (real and imaginary parts maximized independently); ``p_bar_est``
    and ``p_lower_est`` are the extremes at the largest window.
    """

    lengths: tuple
    sup: tuple
    inf: tuple
    argmax: tuple
    argmin: tuple
    sidedness: Sidedness
    shift_stride: int
    p_bar_est: complex
    p_lower_est: complex
    source: Optional[str] = None

    def __post_init__(self):
        for s, i in zip(self.sup, self.inf):
            if s.real < i.real - 1e-12 or s.imag < i.imag - 1e-12:
                raise ValueError("window sup fell below window inf")

    def gaps(self) -> np.ndarray:
        """|sup - inf| per window length (complex modulus of the gap)."""
        return np.asarray([abs(s - i) for s, i in zip(self.sup, self.inf)])


# ---------------------------------------------------------------------------
# window means
# ---------------------------------------------------------------------------

def _snap_length(signal: Signal, k) -> tuple:
    """(integer half/full width in samples, actual length in x units)."""
    m = int(round(k / signal.step))
    if m < 1:
        raise WindowOutOfRange(f"window length {k} below one grid step {signal.step}")
    return m, m * signal.step


@dataclass(frozen=True)
class _Layout:
    """Where one window length's means sit in the running sum ``P``.

    The mean at the i-th admissible shift is ``(P[lo + i + width] -
    P[lo + i]) / scale``, indices clipped into ``P`` (zero outside the
    data); that shift is the position of sample index ``idx0 + i``.
    """

    lo: int
    width: int
    count: int
    idx0: int
    scale: float


def _layout(signal: Signal, m: int, sidedness: Sidedness) -> _Layout:
    n = len(signal)
    zero_out = signal.extension is Extension.ZERO_OUTSIDE
    # a plain sum's running sum has one entry more than the data: its
    # closed windows count both end points
    extra = 0 if signal.trapezoid else 1
    if sidedness is Sidedness.TWO_SIDED:
        width = 2 * m + extra
        idx0, count = (-m - 1, n + 2 * m + 2) if zero_out else (m, n - 2 * m)
        lo = idx0 - m
    else:
        width = m
        first_x = max(0.0, signal.start)
        idx0 = int(np.ceil((first_x - signal.start) / signal.step - 1e-9))
        lo = idx0
        # zero outside, plain-sum shifts stop one past the data, trapezoid
        # ones a window length past it
        if zero_out:
            count = (n + 1 if extra else n + m + 1) - idx0
        else:
            count = n + extra - m - idx0
    if count < 1 and not zero_out:
        raise WindowOutOfRange(
            f"no {sidedness.value} window of {m} steps fits the {n} samples")
    return _Layout(lo, width, max(count, 0), idx0, width * signal.step)


def _positions(signal: Signal, lay: _Layout, shifts: np.ndarray) -> tuple:
    """(grid index, admissible) for each requested shift.

    The index is the one ``np.searchsorted`` finds on the layout's shift
    grid; a shift is admissible when it lies within ``1e-9 * max(1, step)``
    of the grid point at that index.
    """
    first = signal.x_at(lay.idx0)
    guess = np.ceil((shifts - first) / signal.step)
    pos = np.clip(np.nan_to_num(guess, nan=lay.count), 0, lay.count)
    pos = pos.astype(np.int64)
    while True:  # the guess is off by rounding only: step to the exact index
        down = (pos > 0) & (signal.x_at(lay.idx0 + pos - 1) >= shifts)
        up = (pos < lay.count) & (signal.x_at(lay.idx0 + pos) < shifts)
        if not (down.any() or up.any()):
            break
        pos += up.astype(np.int64) - down
    step = 1.0
    if lay.count > 1:
        step = float(signal.x_at(lay.idx0 + 1) - first)
    ok = pos < lay.count
    ok[ok] = (np.abs(signal.x_at(lay.idx0 + pos[ok]) - shifts[ok])
              <= 1e-9 * max(1.0, abs(step)))
    return pos, ok


def _means_at(p: np.ndarray, lay: _Layout, pos: np.ndarray) -> np.ndarray:
    """Complex window means at the given grid indices of running sum ``p``."""
    last = len(p) - 1
    lo = np.clip(lay.lo + pos, 0, last)
    hi = np.clip(lay.lo + lay.width + pos, 0, last)
    return (p[hi] - p[lo]) / lay.scale


def window_average(signal: Signal, k, shift,
                   sidedness: Sidedness = Sidedness.TWO_SIDED) -> complex:
    """Mean of the signal over one window anchored at ``shift``.

    Discrete signals use the arithmetic mean (2k+1 points two-sided,
    k points one-sided); continuous signals use the trapezoid-rule mean
    on their grid.  Raises :class:`WindowOutOfRange` when the window does
    not fit under the VALID_ONLY policy.
    """
    m, _ = _snap_length(signal, k)
    lay = _layout(signal, m, sidedness)
    pos, ok = _positions(signal, lay, np.asarray([shift], dtype=np.float64))
    if not ok[0]:
        raise WindowOutOfRange(
            f"shift {shift} not admissible for window length {k}")
    return complex(_means_at(signal.running_sum(), lay, pos)[0])


def shift_extremes(signal: Signal, k, shift_grid,
                   sidedness: Sidedness = Sidedness.TWO_SIDED) -> ShiftExtremes:
    """Componentwise extremes of window means over an explicit shift grid.

    Ties break deterministically toward the smallest shift.  The recorded
    argmax/argmin follow the component (real or imaginary) with the wider
    spread.
    """
    grid = np.asarray(list(shift_grid), dtype=np.float64)
    if grid.size == 0:
        raise EmptyGrid("shift grid is empty")
    grid = np.sort(grid)
    m, _ = _snap_length(signal, k)
    lay = _layout(signal, m, sidedness)
    pos, ok = _positions(signal, lay, grid)
    if not ok.all():
        raise WindowOutOfRange(
            f"shifts {grid[~ok][:4]} not admissible for length {k}")
    means = _means_at(signal.running_sum(), lay, pos)
    return _extremes_from(means.real, means.imag, lambda j: float(grid[j]))


def _extremes_from(re: np.ndarray, im: np.ndarray, shift_of) -> ShiftExtremes:
    re_max, re_min, im_max, im_min = re.max(), re.min(), im.max(), im.min()
    comp = re if re_max - re_min >= im_max - im_min else im
    return ShiftExtremes(sup=complex(re_max, im_max),
                         inf=complex(re_min, im_min),
                         argmax=shift_of(int(np.argmax(comp))),
                         argmin=shift_of(int(np.argmin(comp))))


def _sweep_means(p: np.ndarray, layouts, stride: int):
    """Yield (re, im) means of each layout at every ``stride``-th shift.

    They equal ``_means_at`` bit for bit, but come from slice differences
    of the real and imaginary parts of ``p``, extended with its end values
    so that slicing reproduces the clipping.  NumPy divides complex by real
    as a multiply by the reciprocal, so the scaling does the same.  A -0.0
    in ``p`` (only leading -0.0 data makes one) reaches the means, where
    complex division and strided max/min treat signed zeros their own way:
    such sums take the complex route itself.  The yielded arrays are
    reused by the next window.
    """
    head = p[1:2].view(np.float64)
    if np.any((head == 0) & np.signbit(head)):
        for lay in layouts:
            means = _means_at(p, lay, np.arange(0, lay.count, stride))
            yield means.real, means.imag
        return
    last = len(p) - 1
    pad = max([0] + [-lay.lo for lay in layouts])
    end = max([0] + [lay.lo + lay.width + lay.count - 1 - last
                     for lay in layouts])
    parts = np.empty((2, pad + len(p) + end))
    for row, part in zip(parts, (p.real, p.imag)):
        row[:pad] = part[0]
        row[pad:pad + len(p)] = part
        row[pad + len(p):] = part[-1]
    del p, head, part
    buf = np.empty((2, max(-(-lay.count // stride) for lay in layouts)))
    for lay in layouts:
        a = pad + lay.lo
        b = a + lay.width
        re, im = buf[:, :-(-lay.count // stride)]
        for part, out in zip(parts, (re, im)):
            np.subtract(part[b:b + lay.count:stride],
                        part[a:a + lay.count:stride], out=out)
        inv = 1.0 / lay.scale
        re *= inv
        im *= inv
        yield re, im


def cesaro_sweep(signal: Signal, schedule: WindowSchedule,
                 shift_stride: int = 1) -> CesaroSweep:
    """Sup/inf window means for every length in the schedule.

    The shift grid is every admissible grid position, subsampled by
    ``shift_stride``.  For continuous signals the grid stride equals the
    sample step, so the sup over the grid is within B*O(h*f_max) of the
    true sup for band-limited inputs; halving the stride can only refine
    the extremes within that bound.
    """
    if shift_stride < 1:
        raise ValueError("shift_stride must be >= 1")
    lengths, layouts = [], []
    for k in schedule.lengths:
        m, actual = _snap_length(signal, k)
        lay = _layout(signal, m, schedule.sidedness)
        if lay.count == 0:
            raise EmptyGrid(f"no shifts remain for window length {k}")
        lengths.append(actual)
        layouts.append(lay)
    means = _sweep_means(signal.running_sum(), layouts, shift_stride)
    sups, infs, argmaxes, argmins = [], [], [], []
    for lay, (re, im) in zip(layouts, means):
        ext = _extremes_from(re, im, lambda j: float(
            signal.x_at(lay.idx0 + j * shift_stride)))
        sups.append(ext.sup)
        infs.append(ext.inf)
        argmaxes.append(ext.argmax)
        argmins.append(ext.argmin)
    return CesaroSweep(
        lengths=tuple(lengths),
        sup=tuple(sups),
        inf=tuple(infs),
        argmax=tuple(argmaxes),
        argmin=tuple(argmins),
        sidedness=schedule.sidedness,
        shift_stride=shift_stride,
        p_bar_est=sups[-1],
        p_lower_est=infs[-1],
        source=signal.source,
    )


def ac_verdict(sweep: CesaroSweep, tol: float) -> ACVerdict:
    """Tri-state decision from a sweep with at least three window lengths.

    Positive: final gap <= tol and gaps non-increasing over the last
    three windows; the limit is the midpoint of the final box and the
    uncertainty is the final gap.  Negative: all of the last three gaps
    >= 10*tol without shrinking; witness shifts come from the largest
    window.  Otherwise inconclusive.
    """
    if len(sweep.lengths) < 3:
        raise ValueError("verdict requires a sweep over at least 3 window lengths")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    gaps = sweep.gaps()
    g1, g2, g3 = gaps[-3], gaps[-2], gaps[-1]
    slack = _MONOTONE_SLACK * max(1.0, float(gaps.max()))
    notes = ""
    if sweep.source in (None, "custom"):
        notes = "grid-relative: no smoothness info for this data, extremes are grid sups"
    if g3 <= tol and g3 <= g2 + slack and g2 <= g1 + slack:
        mid = (sweep.p_bar_est + sweep.p_lower_est) / 2.0
        return ACVerdict(VerdictStatus.ALMOST_CONVERGENT, mid, float(g3),
                         None, notes)
    if min(g1, g2, g3) >= _NEGATIVE_FACTOR * tol and g3 >= _PERSISTENCE * g1:
        witness = (sweep.lengths[-1], sweep.argmax[-1], sweep.argmin[-1], float(g3))
        return ACVerdict(VerdictStatus.NOT_ALMOST_CONVERGENT, None, float(g3),
                         witness, notes)
    return ACVerdict(VerdictStatus.INCONCLUSIVE, None, float(g3), None, notes)


def convolution_invariance_residual(signal: Signal, kernel: Signal,
                                    schedule: WindowSchedule,
                                    shift_stride: int = 1) -> float:
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
    smoothed = convolve(signal, kernel)
    diff = subtract(signal, smoothed)
    sweep = cesaro_sweep(diff, schedule, shift_stride)
    return float(max(abs(sweep.p_bar_est), abs(sweep.p_lower_est)))
