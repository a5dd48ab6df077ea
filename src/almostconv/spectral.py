"""DFT spectrum estimation and the spectral-gap route to almost convergence.

A bounded function almost converges to 0 exactly when it can be
approximated in sup norm by functions whose frequency content avoids a
neighborhood of 0.  Numerically this module:

- estimates frequency content with a tapered DFT and a magnitude mask
  (:func:`dft_spectrum`),
- splits a signal into a low-frequency part near 0 and the rest
  (:func:`highpass_project`), reporting the sup-norm size of the removed
  part as the residual, and
- turns a shrinking gap schedule into a sufficiency-only verdict
  (:func:`spectral_ac_verdict`): a small residual after removing the
  mean certifies almost convergence to that mean; this route never
  certifies divergence.

The high-pass split works on exact DFT bins of the analysis window with
a raised-cosine transition (flat removal on ``|f| <= delta/2``, smooth
rolloff to ``delta``), so bin-aligned content is removed or kept exactly
and the filtered window's rectangular DFT vanishes identically on
``(-delta/2, delta/2)``.  Because the window is finite, content that is
not bin-aligned rings near the window edges; the residual is therefore
measured on an interior region a few multiples of ``1/delta`` away from
the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import GapTooWide, KernelTooWide, TooShort
from .signals import Extension, GeneratorSpec, Signal, declared_frequencies, offset
from .verdict import ACVerdict, VerdictStatus

#: Interior margin for high-pass residuals, in units of 1/delta.
MARGIN_FACTOR = 16.0


class Taper(str, Enum):
    RECTANGULAR = "rectangular"
    HANN = "hann"


def _taper_window(taper: Taper, n: int) -> np.ndarray:
    if taper is Taper.RECTANGULAR:
        return np.ones(n)
    # periodic Hann: bin-aligned characters hit exactly three bins
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Tapered-DFT magnitudes with a support mask.

    ``freqs`` are centered (DC at 0) in cycles per sample for discrete
    signals or cycles per x-unit for continuous ones.  ``magnitudes``
    are raw DFT magnitudes of the tapered window; ``support_mask`` is
    true exactly where the magnitude exceeds ``mask_threshold``.
    ``parseval_rel_error`` records how far the magnitudes are from the
    exact DFT energy identity for the tapered window.
    """

    freqs: np.ndarray
    magnitudes: np.ndarray
    taper: Taper
    mask_threshold: float
    support_mask: np.ndarray
    parseval_rel_error: float
    window_length: int
    step: float

    @property
    def masked_freqs(self) -> np.ndarray:
        return self.freqs[self.support_mask]

    @property
    def bin_spacing(self) -> float:
        return 1.0 / (self.window_length * self.step)


def default_mask_threshold(signal: Signal) -> float:
    """Leakage floor: 1e-6 * bound * window length."""
    return 1e-6 * max(signal.bound, 1e-300) * len(signal)


def dft_spectrum(signal: Signal, taper: Taper = Taper.HANN,
                 mask_threshold: Optional[float] = None) -> SpectrumEstimate:
    """Centered tapered-DFT magnitude estimate of the signal's spectrum.

    Parameters
    ----------
    signal : Signal
        At least two samples.
    taper : Taper
        Hann by default, for quantifiable leakage (exactly three bins
        per bin-aligned component); rectangular for exact round trips.
    mask_threshold : float, optional
        Magnitude floor for the support mask; defaults to
        ``1e-6 * bound * window_length``.
    """
    n = len(signal)
    if n < 2:
        raise TooShort("spectrum estimation needs at least 2 samples")
    if mask_threshold is None:
        mask_threshold = default_mask_threshold(signal)
    step = signal.step
    w = _taper_window(taper, n)
    tapered = w * signal.values
    spec = np.fft.fft(tapered)
    mags = np.abs(np.fft.fftshift(spec))
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=step))
    energy = float(np.sum(np.abs(tapered) ** 2))
    par = abs(float(np.sum(mags ** 2)) - n * energy) / max(n * energy, 1e-300)
    mask = mags > mask_threshold
    return SpectrumEstimate(freqs=freqs, magnitudes=mags, taper=taper,
                            mask_threshold=float(mask_threshold),
                            support_mask=mask, parseval_rel_error=par,
                            window_length=n, step=step)


def require_unit_mass(kernel: Signal) -> None:
    """Raise ``ValueError`` unless the kernel's quadrature mass is 1."""
    mass = kernel.weights().sum()
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"kernel mass {mass} is not 1")


def require_kernel_fits(signal: Signal, kernel: Signal, length: int) -> None:
    """The checks :func:`convolve` makes, for a signal of ``length`` samples
    on the grid of ``signal``."""
    if signal.trapezoid != kernel.trapezoid:
        raise TypeError("signal and kernel must both be discrete or continuous")
    if len(kernel) > length:
        raise KernelTooWide(
            f"kernel support {len(kernel)} exceeds signal length {length}")
    if abs(signal.step - kernel.step) > 1e-12 * signal.step:
        raise ValueError("kernel grid step differs from the signal's")


def convolve(signal: Signal, kernel: Signal) -> Signal:
    """Convolution ``(kernel * signal)(x) = sum_t kernel(t) signal(x - t)``.

    The kernel must have finite support on the same grid; continuous
    kernels are integrated by the trapezoid rule.  The output keeps only
    positions whose full window lies in the signal's range, so its valid
    range shrinks by the kernel support.
    """
    require_kernel_fits(signal, kernel, len(signal))
    w = kernel.weights()
    out = np.convolve(signal.values, w, mode="valid")
    bound = signal.bound * float(np.sum(np.abs(w)))
    return signal.derived(start=signal.start + kernel.x_end, values=out,
                          bound=bound * (1 + 1e-12) + 1e-15,
                          extension=Extension.VALID_ONLY)


def _lowpass_bin_mask(freqs: np.ndarray, delta: float) -> np.ndarray:
    """Raised-cosine mask: 1 on |f|<=delta/2, smooth to 0 at |f|=delta."""
    a = np.abs(freqs)
    mask = np.zeros_like(a)
    mask[a <= delta / 2] = 1.0
    band = (a > delta / 2) & (a < delta)
    mask[band] = np.cos(np.pi * (a[band] - delta / 2) / delta) ** 2
    return mask


def _require_below_nyquist(delta: float, step: float) -> None:
    nyquist = 0.5 / step
    if delta >= nyquist:
        raise GapTooWide(f"delta={delta} at or beyond the Nyquist frequency {nyquist}")


def highpass_margin(signal: Signal, delta: float) -> int:
    """Interior margin (in samples) excluded from high-pass residuals."""
    n = len(signal)
    margin = int(math.ceil(MARGIN_FACTOR / (delta * signal.step)))
    return min(margin, n // 4)


def highpass_project(signal: Signal, delta: float) -> Tuple[Signal, float]:
    """Split off the frequency content within ``delta`` of 0.

    Returns ``(filtered, residual)`` where ``filtered = signal - low``
    on the full window, ``low`` is the inverse DFT of the raised-cosine
    masked bins in ``(-delta, delta)``, and ``residual`` is the sup of
    ``|low|`` over the interior of the window (a margin of
    ``MARGIN_FACTOR/delta`` x-units is excluded on each side, capped at a
    quarter of the window, because non-bin-aligned content rings near the
    edges).  The rectangular DFT of ``filtered`` is exactly zero on
    ``(-delta/2, delta/2)``.
    """
    n = len(signal)
    if n < 2:
        raise TooShort("high-pass projection needs at least 2 samples")
    step = signal.step
    if not delta > 0:
        raise ValueError("gap half-width must be positive")
    _require_below_nyquist(delta, step)
    freqs = np.fft.fftfreq(n, d=step)
    spec = np.fft.fft(signal.values)
    low = np.fft.ifft(spec * _lowpass_bin_mask(freqs, delta))
    margin = highpass_margin(signal, delta)
    interior = low[margin: n - margin] if margin > 0 else low
    residual = float(np.max(np.abs(interior)))
    filtered = signal.values - low
    return signal.derived(values=filtered,
                          bound=float(np.max(np.abs(filtered)))), residual


def spectral_ac_verdict(signal: Signal, delta_schedule,
                        tol: float) -> ACVerdict:
    """Sufficiency-only verdict from the spectral-gap criterion.

    Let ``alpha`` be the full-range mean of the signal (the 0-frequency
    Fourier coefficient of the analysis window).  If for some gap in the
    decreasing schedule the high-pass residual of ``signal - alpha``
    stays within ``tol``, the signal is within ``tol`` of a function with
    no frequency content near 0 plus the constant ``alpha``, which
    certifies almost convergence to ``alpha``.  Otherwise the verdict is
    inconclusive; this route never certifies divergence.
    """
    deltas = list(delta_schedule)
    if not deltas:
        raise ValueError("gap schedule must be nonempty")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("gap schedule must be strictly decreasing toward 0")
    if any(d <= 0 for d in deltas):
        raise ValueError("gap half-widths must be positive")
    _require_below_nyquist(deltas[0], signal.step)
    alpha = signal.mean()
    centered = offset(signal, -alpha)
    best = math.inf
    for delta in deltas:
        _, residual = highpass_project(centered, delta)
        best = min(best, residual)
        if residual <= tol:
            return ACVerdict(VerdictStatus.ALMOST_CONVERGENT, alpha,
                             float(residual), None,
                             f"gap {delta} left residual {residual:.3g}")
    return ACVerdict(VerdictStatus.INCONCLUSIVE, None, float(best), None,
                     "no gap in the schedule brought the residual under tol")


@dataclass(frozen=True)
class SupportCheckReport:
    """Outcome of checking masked frequencies against declared ones."""

    passed: bool
    max_offset: float
    leakage_distance: float
    violations: tuple
    declared: tuple
    masked_count: int


def spectrum_support_check(spec: GeneratorSpec, estimate: SpectrumEstimate,
                           tol: float = 0.0) -> SupportCheckReport:
    """Verify every masked frequency sits near a declared one.

    ``leakage distance`` is two bins (the Hann mainlobe half-width);
    ``tol`` adds extra slack in frequency units.  Requires a generator
    with a declared frequency set.
    """
    declared = declared_frequencies(spec)
    if declared is None:
        raise ValueError("generator has no declared frequency set")
    leak = 2.0 * estimate.bin_spacing
    masked = estimate.masked_freqs
    violations = []
    max_off = 0.0
    for f in masked:
        off = float(np.min(np.abs(declared - f)))
        # alias distance across the band edge
        band = 1.0 / estimate.step
        off = min(off, float(np.min(np.abs(declared - f + band))),
                  float(np.min(np.abs(declared - f - band))))
        max_off = max(max_off, off)
        if off > leak + tol:
            violations.append((float(f),
                               float(estimate.magnitudes[
                                   int(np.argmin(np.abs(estimate.freqs - f)))]),
                               off))
    return SupportCheckReport(
        passed=not violations,
        max_offset=max_off,
        leakage_distance=leak,
        violations=tuple(violations),
        declared=tuple(float(d) for d in declared),
        masked_count=int(len(masked)),
    )
