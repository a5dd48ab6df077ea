import numpy as np
import pytest

import almostconv as ac
from almostconv import cesaro, spectral
from almostconv.errors import GapTooWide, KernelTooWide, TooShort
from almostconv.signals import DiscreteSignal, Sidedness, WindowSchedule
from almostconv.spectral import Taper


def direct_dft(values):
    """Independent DFT oracle: explicit double sum."""
    n = len(values)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for j in range(n):
            out[m] += values[j] * np.exp(-2j * np.pi * m * j / n)
    return out


def test_dft_single_bin_for_aligned_character():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    est = spectral.dft_spectrum(sig, Taper.RECTANGULAR)
    assert list(est.freqs[est.support_mask]) == [pytest.approx(1 / 8)]
    assert est.parseval_rel_error <= 1e-9


def test_dft_constant_has_dc_bin_only():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), 0, 63)
    est = spectral.dft_spectrum(sig, Taper.RECTANGULAR)
    assert list(est.freqs[est.support_mask]) == [pytest.approx(0.0)]


def test_dft_two_bins_ratio_against_oracle():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 1 / 8), (0.5, -1 / 4))), 0, 63)
    est = spectral.dft_spectrum(sig, Taper.RECTANGULAR)
    oracle = np.abs(direct_dft(sig.values))
    assert np.allclose(np.sort(est.magnitudes), np.sort(oracle), atol=1e-8)
    mags = est.magnitudes[est.support_mask]
    assert mags.max() / mags.min() == pytest.approx(2.0)


def test_dft_hann_three_bins():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    est = spectral.dft_spectrum(sig, Taper.HANN)
    masked = np.sort(est.freqs[est.support_mask])
    assert np.allclose(masked, [1 / 8 - 1 / 64, 1 / 8, 1 / 8 + 1 / 64])


def test_dft_too_short():
    with pytest.raises(TooShort):
        spectral.dft_spectrum(DiscreteSignal(0, [1.0], 1.0))


def test_convolve_delta_is_identity():
    sig = ac.render_discrete(ac.Character(1 / 5), 0, 63)
    out = spectral.convolve(sig, ac.signals.delta_kernel())
    assert out.n_min == sig.n_min
    assert np.allclose(out.values, sig.values)


def test_convolve_adjacent_cancelation():
    sig = ac.render_discrete(ac.Character(0.5), 0, 63)
    kernel = DiscreteSignal(0, [0.5, 0.5], 0.5)
    out = spectral.convolve(sig, kernel)
    assert np.max(np.abs(out.values)) < 1e-15


def test_convolve_unit_mass_fixes_constants():
    sig = ac.render_discrete(ac.TrigPoly(((2.5, 0.0),)), 0, 255)
    out = spectral.convolve(sig, ac.signals.fejer_kernel(32))
    assert np.allclose(out.values, 2.5)


def test_convolve_range_shrinks_by_support():
    sig = ac.render_discrete(ac.Character(0.1), 0, 100)
    kernel = ac.signals.fejer_kernel(16)  # support [-8, 8]
    out = spectral.convolve(sig, kernel)
    assert out.n_min == 8 and out.n_max == 92


def test_convolve_kernel_too_wide():
    sig = ac.render_discrete(ac.Character(0.1), 0, 10)
    with pytest.raises(KernelTooWide):
        spectral.convolve(sig, ac.signals.fejer_kernel(64))


def test_highpass_keeps_offgap_character():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    filtered, residual = spectral.highpass_project(sig, 1 / 16)
    assert residual <= 1e-9
    assert np.max(np.abs(filtered.values - sig.values)) <= 1e-9


def test_highpass_removes_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.5, 0.0),)), 0, 63)
    filtered, residual = spectral.highpass_project(sig, 1 / 16)
    assert residual == pytest.approx(1.5)
    assert np.max(np.abs(filtered.values)) <= 1e-12


def test_highpass_measure_transform_residual():
    spec = ac.MeasureTransform(((0.0, 0.3), (0.2, 0.7)))
    sig = ac.render_discrete(spec, 0, 639)  # 0.2 aligned: 0.2*640 = 128
    _, residual = spectral.highpass_project(sig, 0.05)
    assert residual == pytest.approx(0.3, abs=1e-9)


def test_highpass_filtered_has_no_low_bins():
    spec = ac.MeasureTransform(((0.0, 0.3), (0.2, 0.7)))
    sig = ac.render_discrete(spec, 0, 639)
    delta = 0.05
    filtered, _ = spectral.highpass_project(sig, delta)
    est = spectral.dft_spectrum(filtered, Taper.RECTANGULAR)
    inner = np.abs(est.freqs) < delta / 2
    assert not est.support_mask[inner].any()


def test_highpass_idempotent():
    spec = ac.TrigPoly(((1.0, 0.0), (0.8, 1 / 8), (0.3, -1 / 4)))
    sig = ac.render_discrete(spec, 0, 255)
    once, _ = spectral.highpass_project(sig, 1 / 16)
    twice, _ = spectral.highpass_project(once, 1 / 16)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-9


def test_highpass_gap_too_wide():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    with pytest.raises(GapTooWide):
        spectral.highpass_project(sig, 0.5)


def test_spectral_verdict_constant():
    sig = ac.render_discrete(ac.TrigPoly(((2.0, 0.0),)), 0, 255)
    v = spectral.spectral_ac_verdict(sig, (0.25, 0.125), 1e-6)
    assert v.positive
    assert v.limit == pytest.approx(2.0)
    assert v.uncertainty <= 1e-9


def test_spectral_verdict_two_characters():
    spec = ac.TrigPoly(((1.0, 0.2), (1.0, -0.3)))
    sig = ac.render_discrete(spec, 0, 639)  # both frequencies bin-aligned
    v = spectral.spectral_ac_verdict(sig, (0.1, 0.05), 1e-6)
    assert v.positive
    assert abs(v.limit) <= 1e-6
    assert v.uncertainty <= 1e-6


def test_spectral_verdict_dirichlet_line():
    spec = ac.DirichletLine((1, 1), 2.0)
    sig = ac.render_continuous(spec, 0.0, 0.05, 81921)
    v = spectral.spectral_ac_verdict(sig, (0.08, 0.04, 0.02), 1e-2)
    assert v.positive
    assert v.limit == pytest.approx(1.0, abs=1e-2)


def test_spectral_verdict_never_negative():
    sig = ac.render_discrete(ac.BlockSequence(), 0, 4095)
    v = spectral.spectral_ac_verdict(sig, (0.25, 0.125, 0.0625), 1e-3)
    assert not v.negative


def test_spectral_schedule_validation():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    with pytest.raises(ValueError):
        spectral.spectral_ac_verdict(sig, (0.05, 0.1), 1e-3)
    with pytest.raises(GapTooWide):
        spectral.spectral_ac_verdict(sig, (0.7, 0.1), 1e-3)


def test_support_check_character():
    spec = ac.Character(1 / 8)
    sig = ac.render_discrete(spec, 0, 63)
    est = spectral.dft_spectrum(sig, Taper.RECTANGULAR)
    rep = spectral.spectrum_support_check(spec, est)
    assert rep.passed
    assert rep.max_offset == pytest.approx(0.0)


def test_support_check_trig_poly_hann_leakage():
    spec = ac.TrigPoly(((1.0, 64 / 4096), (0.5, 300 / 4096), (0.25, -512 / 4096)))
    sig = ac.render_discrete(spec, 0, 4095)
    est = spectral.dft_spectrum(sig, Taper.HANN)
    rep = spectral.spectrum_support_check(spec, est)
    assert rep.passed
    assert rep.max_offset <= 2 / 4096


def test_support_check_measure_atoms():
    spec = ac.MeasureTransform(((0.0, 0.5), (0.2, 0.5)))
    sig = ac.render_discrete(spec, 0, 639)
    est = spectral.dft_spectrum(sig, Taper.HANN)
    rep = spectral.spectrum_support_check(spec, est)
    assert rep.passed
    # masked bins sit near {0, 0.2} only
    for f in est.masked_freqs:
        assert min(abs(f - 0.0), abs(f - 0.2)) <= rep.leakage_distance


def test_support_check_flags_undeclared_content():
    spec = ac.Character(1 / 8)
    other = ac.render_discrete(ac.TrigPoly(((1.0, 1 / 8), (1.0, 1 / 4))), 0, 63)
    est = spectral.dft_spectrum(other, Taper.RECTANGULAR)
    rep = spectral.spectrum_support_check(spec, est)
    assert not rep.passed
    assert rep.violations


def test_convolution_support_law():
    # masked bins of kernel * signal sit inside (mask of signal) up to
    # leakage, and only where the kernel transform is alive
    spec = ac.TrigPoly(((1.0, 8 / 64), (0.7, -16 / 64)))
    sig = ac.render_discrete(spec, 0, 4095)
    kernel = ac.signals.gaussian_kernel(1.0, radius=32)  # support 65
    out = spectral.convolve(sig, kernel)
    est_out = spectral.dft_spectrum(out, Taper.HANN)
    est_in = spectral.dft_spectrum(sig, Taper.HANN)
    kernel_gain = np.abs(np.fft.fftshift(np.fft.fft(kernel.values, 4096)))
    kfreqs = np.fft.fftshift(np.fft.fftfreq(4096))
    in_masked = est_in.freqs[est_in.support_mask]
    leak = 2 * est_out.bin_spacing + 2 * est_in.bin_spacing
    for f in est_out.masked_freqs:
        assert np.min(np.abs(in_masked - f)) <= leak
        gain = kernel_gain[np.argmin(np.abs(kfreqs - f))]
        assert gain > 1e-6


def test_gap_preserved_under_averaging():
    # averaging signals that all have an empty masked gap keeps the gap
    delta = 0.1
    specs = [ac.Character(0.2), ac.Character(-0.25), ac.Character(0.4)]
    signals = [ac.render_discrete(s, 0, 639) for s in specs]
    avg = signals[0].values.copy()
    for s in signals[1:]:
        avg += s.values
    avg /= len(signals)
    sig = DiscreteSignal(0, avg, 1.0)
    est = spectral.dft_spectrum(sig, Taper.RECTANGULAR)
    inner = np.abs(est.freqs) < delta
    assert not est.support_mask[inner].any()


def test_cross_route_agreement(generator_corpus):
    tol = 1e-2
    deltas = (0.1, 0.05, 0.025)
    for name, spec, signal, limit in generator_corpus:
        if limit is None:
            continue
        sched = WindowSchedule.geometric(
            max(4 * ac.signals.step_of(signal), len(signal) * ac.signals.step_of(signal) / 512),
            len(signal) * ac.signals.step_of(signal) / 8, 2, Sidedness.TWO_SIDED)
        v_c = cesaro.ac_verdict(cesaro.cesaro_sweep(signal, sched), tol)
        v_s = spectral.spectral_ac_verdict(signal, deltas, tol)
        assert v_c.positive, name
        assert v_s.positive, name
        assert abs(v_c.limit - v_s.limit) <= 2 * tol, name
        assert abs(v_c.limit - limit) <= 2 * tol, name


def test_nyquist_check_is_shared_and_keeps_its_place():
    # the verdict checks its widest gap before anything else, so a signal
    # too short for a projection still reports the gap
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 63)
    cont = ac.render_continuous(ac.Character(0.5), 0.0, 0.1, 64)
    one = DiscreteSignal(0, [1.0], 1.0)
    for fn, args in ((spectral.highpass_project, (sig, 0.5)),
                     (spectral.highpass_project, (cont, 5.0)),
                     (spectral.spectral_ac_verdict, (sig, (0.5,), 1e-3)),
                     (spectral.spectral_ac_verdict, (cont, (6.0, 1.0), 1e-3)),
                     (spectral.spectral_ac_verdict, (one, (0.5,), 1e-3))):
        with pytest.raises(GapTooWide, match="at or beyond the Nyquist frequency"):
            fn(*args)
    with pytest.raises(TooShort):
        spectral.highpass_project(one, 0.5)
    _, residual = spectral.highpass_project(cont, 4.99)
    assert np.isfinite(residual)


def test_unit_mass_check_is_shared():
    sig = ac.render_discrete(ac.Character(1 / 8), 0, 255)
    heavy = DiscreteSignal(-1, [0.5, 0.5, 0.5], 0.5)
    with pytest.raises(ValueError, match=r"kernel mass \(1.5\+0j\) is not 1"):
        spectral.require_unit_mass(heavy)
    with pytest.raises(ValueError, match=r"kernel mass \(1.5\+0j\) is not 1"):
        cesaro.convolution_invariance_residual(
            sig, heavy, WindowSchedule.geometric(2, 8, 2, Sidedness.TWO_SIDED))
    with pytest.raises(ValueError, match=r"kernel mass \(1.5\+0j\) is not 1"):
        ac.weak_star_verdict(sig, heavy, [10.0] * 8, 1e-2)
    spectral.require_unit_mass(DiscreteSignal(-1, [0.25, 0.5, 0.25], 0.5))
