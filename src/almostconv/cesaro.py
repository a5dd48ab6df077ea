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
Every window mean reads one running sum per signal (a plain sum for
discrete data, a cumulative trapezoid for continuous data), built by
``Signal.running_rows`` as two float rows, its real and imaginary parts,
extended with their end values so that windows reaching outside the data
read zero there.  A mean is each part's window sum, a slice difference,
times the reciprocal of the window width.  The sweep's memory is the
samples, the rows and a few blocks.  It walks the shifts
``signals.BLOCK`` at a time.  On each block, every window length takes
its window sums as one slice difference per part, in a buffer of one
block, and keeps only their largest and smallest values.  So each
stretch of the running sum is read from memory once for all the lengths
whose windows start or end in it, and each block's sums stay in cache.
Scaling by a positive number is correctly rounded and monotone, so the
largest mean is the largest sum scaled, bit for bit: only the block
extremes are scaled.  The extremes are the extremes of the scaled block
extremes, taken from the first block that reaches them.  Two sums 1 ulp
apart can scale to one mean, so the witness shift is found by scaling
the winning block's sums of that part again and taking their first
argmax or argmin: ties still go to the smallest shift.  Only the winning
shifts are converted to positions.  :func:`shift_extremes` and
:func:`window_average` evaluate just the windows they are asked for,
with the same arithmetic.

The verdict logic is a finite-data surrogate, not a theorem, and one
rule (:func:`almostconv.verdict.judge`) applies it: a limit is reported
when the sup-inf gap at the largest window is below tolerance and has
been non-increasing over the last three windows; divergence is reported
when a gap at least ten times the tolerance persists without shrinking,
together with witness shifts.  Everything else is inconclusive.  Real
and imaginary parts are tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyGrid, WindowOutOfRange
from .signals import BLOCK, Extension, Sidedness, Signal, WindowSchedule
from .verdict import ACVerdict, Witness, judge

_MONOTONE_SLACK = 1e-12


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
    p_bar_est: complex
    p_lower_est: complex
    source: Optional[str] = None

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
    P[lo + i]) * (1.0 / scale)`` per part, indices clipped into ``P``
    (zero outside the data); that shift is the position of sample index
    ``idx0 + i``.
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
    grid = signal.x_at(lay.idx0 + np.arange(lay.count))
    pos = np.searchsorted(grid, shifts)
    step = float(grid[1] - grid[0]) if lay.count > 1 else 1.0
    ok = pos < lay.count
    ok[ok] = np.abs(grid[pos[ok]] - shifts[ok]) <= 1e-9 * max(1.0, abs(step))
    return pos, ok


def window_average(signal: Signal, k, shift,
                   sidedness: Sidedness = Sidedness.TWO_SIDED) -> complex:
    """Mean of the signal over one window anchored at ``shift``.

    Discrete signals use the arithmetic mean (2k+1 points two-sided,
    k points one-sided); continuous signals use the trapezoid-rule mean
    on their grid.  Raises :class:`WindowOutOfRange` when the window does
    not fit under the VALID_ONLY policy.
    """
    return shift_extremes(signal, k, [shift], sidedness).sup


def shift_extremes(signal: Signal, k, shift_grid,
                   sidedness: Sidedness = Sidedness.TWO_SIDED) -> ShiftExtremes:
    """Componentwise extremes of window means over an explicit shift grid.

    Ties break deterministically toward the smallest shift.  The recorded
    argmax/argmin follow the component (real or imaginary) with the wider
    spread.  A window mean that overflows is a ``ValueError``.
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
    rows, pad = _running_rows(signal, [lay])
    a = pad + lay.lo + pos
    with np.errstate(over="ignore", invalid="ignore"):
        means = rows[:, a + lay.width] - rows[:, a]
        means *= 1.0 / lay.scale
    if not np.isfinite(means).all():
        raise ValueError("window means must be finite")
    return _extremes_from(*means, lambda j: float(grid[j]))


def _extremes_from(re: np.ndarray, im: np.ndarray, shift_of) -> ShiftExtremes:
    parts = (re, im)
    return _witnessed((re.max(), im.max()), (re.min(), im.min()),
                      lambda c: int(np.argmax(parts[c])),
                      lambda c: int(np.argmin(parts[c])), shift_of)


def _witnessed(top, bottom, top_at, bottom_at, shift_of) -> ShiftExtremes:
    """Extremes from the (re, im) maxima ``top`` and minima ``bottom``.  The
    witnesses are where the wider part reaches them: shifts ``top_at(c)``
    and ``bottom_at(c)`` of part ``c``, named by ``shift_of``."""
    c = 0 if top[0] - bottom[0] >= top[1] - bottom[1] else 1
    return ShiftExtremes(sup=complex(*top), inf=complex(*bottom),
                         argmax=shift_of(top_at(c)),
                         argmin=shift_of(bottom_at(c)))


def _running_rows(signal: Signal, layouts) -> tuple:
    """``(rows, pad)``: ``Signal.running_rows`` with ``pad`` copies of entry
    0 before and copies of the last entry after, as far as any layout's
    windows read."""
    size = len(signal) + (0 if signal.trapezoid else 1)
    pad = max([0] + [-lay.lo for lay in layouts])
    end = max([0] + [lay.lo + lay.width + lay.count - size for lay in layouts])
    return signal.running_rows(pad, end), pad


def _sweep_extremes(signal: Signal, layouts, shift_of):
    """Extremes of each layout's means over all the signal's admissible
    shifts, ``shift_of(lay, j)`` naming shift ``j``; see the module
    docstring."""
    parts, pad = _running_rows(signal, layouts)
    count = max(lay.count for lay in layouts)
    buf = np.empty((2, min(BLOCK, count)))
    rows = np.arange(2)

    def ends(lay, first, part):
        """The two slices of ``part`` whose difference is the window sums
        of the block at shift ``first``."""
        a = pad + lay.lo + first
        size = min(BLOCK, lay.count - first)
        return part[..., a + lay.width:a + lay.width + size], part[..., a:a + size]

    # per layout: the largest and smallest window sums of both parts, by block
    found = [np.empty((2, -(-lay.count // BLOCK), 2)) for lay in layouts]
    # sums past DBL_MAX are inf or NaN: the check below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, count, BLOCK):
            for lay, (tops, bottoms) in zip(layouts, found):
                if first >= lay.count:
                    continue
                b, a = ends(lay, first, parts)
                sums = np.subtract(b, a, out=buf[:, :a.shape[1]])
                sums.max(axis=1, out=tops[first // BLOCK])
                sums.min(axis=1, out=bottoms[first // BLOCK])
        for lay, extremes in zip(layouts, found):
            extremes *= 1.0 / lay.scale
    if not all(np.isfinite(extremes).all() for extremes in found):
        raise ValueError("window means must be finite")

    def witness(lay, block, c, pick):
        # the block's means of part c, scaled as its extremes are
        b, a = ends(lay, block * BLOCK, parts[c])
        means = b - a
        means *= 1.0 / lay.scale
        return block * BLOCK + int(pick(means))

    for lay, (tops, bottoms) in zip(layouts, found):
        # the first block that reaches an extreme holds its first shift
        up, down = tops.argmax(axis=0), bottoms.argmin(axis=0)
        yield _witnessed(
            tops[up, rows], bottoms[down, rows],
            lambda c: witness(lay, int(up[c]), c, np.argmax),
            lambda c: witness(lay, int(down[c]), c, np.argmin),
            lambda j: shift_of(lay, j))


def cesaro_sweep(signal: Signal, schedule: WindowSchedule) -> CesaroSweep:
    """Sup/inf window means for every length in the schedule.

    The shift grid is every admissible grid position.  For continuous
    signals the grid stride equals the sample step, so the sup over the
    grid is within B*O(h*f_max) of the true sup for band-limited inputs.
    A window mean that overflows is a ``ValueError``.
    """
    lengths, layouts = [], []
    for k in schedule.lengths:
        m, actual = _snap_length(signal, k)
        lay = _layout(signal, m, schedule.sidedness)
        if lay.count == 0:
            raise EmptyGrid(f"no shifts remain for window length {k}")
        lengths.append(actual)
        layouts.append(lay)
    exts = list(_sweep_extremes(
        signal, layouts,
        lambda lay, j: float(signal.x_at(lay.idx0 + j))))
    return CesaroSweep(
        lengths=tuple(lengths),
        sup=tuple(e.sup for e in exts),
        inf=tuple(e.inf for e in exts),
        argmax=tuple(e.argmax for e in exts),
        argmin=tuple(e.argmin for e in exts),
        sidedness=schedule.sidedness,
        p_bar_est=exts[-1].sup,
        p_lower_est=exts[-1].inf,
        source=signal.source,
    )


def ac_verdict(sweep: CesaroSweep, tol: float) -> ACVerdict:
    """Tri-state decision from a sweep with at least three window lengths.

    :func:`~almostconv.verdict.judge` rules on the last three gaps.  They
    count as steady when none exceeds the one before by more than 1e-12
    times the largest gap of the given sweep, or 1e-12 when that gap is
    below 1.  A positive verdict's limit is the midpoint of the
    final box; a negative one's witness is the largest window with its
    sup and inf shifts.  Custom data gets a note that its extremes are
    grid sups.
    """
    if len(sweep.lengths) < 3:
        raise ValueError("verdict requires a sweep over at least 3 window lengths")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    gaps = sweep.gaps()
    g1, g2, g3 = gaps[-3:]
    slack = _MONOTONE_SLACK * max(1.0, float(gaps.max()))
    notes = ""
    if sweep.source in (None, "custom"):
        notes = "grid-relative: no smoothness info for this data, extremes are grid sups"
    return judge((g1, g2, g3), tol, (sweep.p_bar_est + sweep.p_lower_est) / 2.0,
                 Witness(sweep.lengths[-1], sweep.argmax[-1], sweep.argmin[-1], float(g3)),
                 steady=g3 <= g2 + slack and g2 <= g1 + slack, notes=notes)
