import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import almostconv as ac
from almostconv import cesaro
from almostconv.errors import EmptyGrid, WindowOutOfRange
from almostconv.signals import (
    ContinuousSignal,
    DiscreteSignal,
    Extension,
    Sidedness,
    WindowSchedule,
)

from conftest import brute_window_mean, convolution_invariance_residual, fejer_kernel

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


def test_window_average_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), 0, 100)
    for k, shift in [(3, 10), (7, 50)]:
        assert cesaro.window_average(sig, k, shift) == pytest.approx(1.0)
        assert cesaro.window_average(sig, k, shift, ONE) == pytest.approx(1.0)


def test_window_average_alternating_cancels():
    sig = ac.render_discrete(ac.Character(0.5), 0, 63)
    assert cesaro.window_average(sig, 2, 0, ONE) == pytest.approx(0.0)


def test_window_average_inside_ones_block():
    sig = ac.render_discrete(ac.BlockSequence(), 0, 2 ** 12)
    # ones-block m=11 spans [2^11 - 1, 2^12 - 2]; shift 4 inside it
    shift = 2 ** 11 - 1 + 4
    got = cesaro.window_average(sig, 4, shift, ONE)
    oracle = brute_window_mean(sig.values, 0, 4, shift, "one")
    assert got == pytest.approx(oracle) == pytest.approx(1.0)


def test_window_average_matches_brute_force():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    sig = DiscreteSignal(0, vals, float(np.max(np.abs(vals))))
    for k, shift, side in [(5, 30, "two"), (8, 100, "two"), (6, 3, "one")]:
        oracle = brute_window_mean(vals, 0, k, shift, side)
        got = cesaro.window_average(sig, k, shift, TWO if side == "two" else ONE)
        assert got == pytest.approx(oracle)


def test_window_average_out_of_range():
    sig = ac.render_discrete(ac.Character(0.5), 0, 20)
    with pytest.raises(WindowOutOfRange):
        cesaro.window_average(sig, 5, 2)  # two-sided window would hit n=-3


def test_continuous_window_average_is_trapezoid_mean():
    sig = ac.render_continuous(ac.Character(0.05), 0.0, 0.5, 201)
    # theta = 10 spans exactly one period, so its mean is ~0 and approx's
    # absolute floor cannot tell windows apart; theta = 7 has mean ~-0.367.
    for theta, shift in [(10.0, 50.0), (7.0, 50.0)]:
        j0 = round((shift - theta) / sig.h)
        j1 = round((shift + theta) / sig.h)
        oracle = np.trapezoid(sig.samples[j0:j1 + 1], dx=sig.h) / (2 * theta)
        assert cesaro.window_average(sig, theta, shift) == pytest.approx(oracle)


def test_shift_extremes_constant():
    sig = ac.render_discrete(ac.TrigPoly(((3.0, 0.0),)), 0, 64)
    ext = cesaro.shift_extremes(sig, 8, range(8, 57))
    assert ext.sup == pytest.approx(3.0)
    assert ext.inf == pytest.approx(3.0)


def test_shift_extremes_alternating_enumeration_oracle():
    sig = ac.render_discrete(ac.Character(0.5), 0, 63)
    grid = range(0, 61)
    means = [brute_window_mean(sig.values, 0, 3, s, "one") for s in grid]
    ext = cesaro.shift_extremes(sig, 3, grid, ONE)
    assert ext.sup.real == pytest.approx(max(m.real for m in means)) == pytest.approx(1 / 3)
    assert ext.inf.real == pytest.approx(min(m.real for m in means)) == pytest.approx(-1 / 3)
    assert ext.argmax % 2 == 0  # sup at an even shift
    assert ext.argmin % 2 == 1


def test_shift_extremes_blocks():
    sig = ac.render_discrete(ac.BlockSequence(), 0, 2 ** 12)
    ext = cesaro.shift_extremes(sig, 16, range(16, 2 ** 12 - 16, 7))
    assert ext.sup.real == pytest.approx(1.0)
    assert ext.inf.real == pytest.approx(0.0)


def test_shift_extremes_empty_grid():
    sig = ac.render_discrete(ac.Character(0.5), 0, 63)
    with pytest.raises(EmptyGrid):
        cesaro.shift_extremes(sig, 3, [])


def test_sweep_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), 0, 256)
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule((2, 4, 8)))
    assert sweep.p_bar_est == pytest.approx(1.0)
    assert sweep.p_lower_est == pytest.approx(1.0)


def test_sweep_alternating_even_windows_exact_zero():
    sig = ac.render_discrete(ac.Character(0.5), 0, 2 ** 12)
    sched = WindowSchedule.geometric(2, 2 ** 10, 2, ONE)
    sweep = cesaro.cesaro_sweep(sig, sched)
    assert abs(sweep.p_bar_est.real) == 0.0
    assert abs(sweep.p_lower_est.real) == 0.0
    assert sweep.gaps()[-1] < 1e-12


def test_sweep_character_geometric_sum_bound():
    lam = 1 / 7
    sig = ac.render_discrete(ac.Character(lam), -2 ** 14, 2 ** 14)
    sched = WindowSchedule.geometric(4, 2 ** 10, 2, TWO)
    sweep = cesaro.cesaro_sweep(sig, sched)
    for k, sup in zip(sweep.lengths, sweep.sup):
        # each component of the window mean is bounded by the geometric
        # sum estimate 2 / ((2k+1) |1 - e^{2 pi i lam}|)
        bound = 2.0 / ((2 * k + 1) * abs(1 - np.exp(2j * np.pi * lam)))
        assert abs(sup.real) <= bound * (1 + 1e-9) + 1e-12
        assert abs(sup.imag) <= bound * (1 + 1e-9) + 1e-12


def test_verdict_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), 0, 256)
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule((2, 4, 8)))
    v = cesaro.ac_verdict(sweep, 1e-6)
    assert v.positive
    assert v.limit == pytest.approx(1.0)
    assert v.uncertainty <= 1e-12


def test_verdict_blocks_negative_with_witness():
    sig = ac.render_discrete(ac.BlockSequence(), 0, 2 ** 16)
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule.geometric(2, 64, 2, TWO))
    v = cesaro.ac_verdict(sweep, 1e-2)
    assert v.negative
    assert v.witness is not None
    assert v.witness[3] >= 0.98
    # witness shifts really achieve the extremes
    k, s_hi, s_lo, gap = v.witness
    hi = cesaro.window_average(sig, k, int(s_hi))
    lo = cesaro.window_average(sig, k, int(s_lo))
    assert hi.real - lo.real == pytest.approx(gap)


def test_verdict_character_ac_zero():
    sig = ac.render_discrete(ac.Character(1 / 7), -2 ** 14, 2 ** 14)
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule.geometric(4, 2 ** 10, 2, TWO))
    v = cesaro.ac_verdict(sweep, 1e-2)
    assert v.positive
    assert abs(v.limit) <= 1e-2


def test_verdict_requires_three_windows():
    sig = ac.render_discrete(ac.Character(0.5), 0, 256)
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule((2, 4)))
    with pytest.raises(ValueError):
        cesaro.ac_verdict(sweep, 1e-6)


def test_verdict_slack_is_relative_to_the_largest_gap_given():
    # the last gap rises 3e-12 over the one before: within the slack of a
    # sweep whose largest gap is 5, beyond that of its last three alone
    def sweep(gaps):
        n = len(gaps)
        return cesaro.CesaroSweep(
            lengths=tuple(range(1, n + 1)), sup=tuple(map(complex, gaps)),
            inf=(0j,) * n, argmax=(0.0,) * n, argmin=(0.0,) * n, sidedness=TWO,
            p_bar_est=complex(gaps[-1]), p_lower_est=0j)

    gaps = (5.0, 1e-3, 1e-3, 1e-3 + 3e-12)
    assert cesaro.ac_verdict(sweep(gaps), 1e-2).positive
    v = cesaro.ac_verdict(sweep(gaps[1:]), 1e-2)
    assert v.status is ac.VerdictStatus.INCONCLUSIVE and v.uncertainty == gaps[-1]


def test_residual_constant_exact_zero():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), 0, 4096)
    res = convolution_invariance_residual(
        sig, fejer_kernel(16), WindowSchedule.geometric(8, 64, 2))
    assert res == pytest.approx(0.0, abs=1e-13)


def test_residual_alternating_two_point_kernel():
    sig = ac.render_discrete(ac.Character(0.5), 0, 4096)
    kernel = DiscreteSignal(0, [0.5, 0.5], 0.5)
    # the kernel zeroes the alternating signal, so the difference is the
    # signal itself; even windows cancel it exactly
    res = convolution_invariance_residual(
        sig, kernel, WindowSchedule.geometric(8, 64, 2, ONE))
    assert res == pytest.approx(0.0, abs=1e-12)


def test_residual_random_signal_brute_oracle():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-1, 1, size=3000)
    sig = DiscreteSignal(0, vals.astype(complex), 1.0)
    kernel = fejer_kernel(64)
    sched = WindowSchedule((128, 256, 512))
    res = convolution_invariance_residual(sig, kernel, sched)
    # brute-force oracle on the difference signal at the largest window
    smoothed = ac.convolve(sig, kernel)
    diff = ac.signals.subtract(sig, smoothed)
    k = 512
    means = [brute_window_mean(diff.values, diff.n_min, k, s)
             for s in range(diff.n_min + k, diff.n_max - k + 1, 13)]
    assert res >= max(abs(np.real(m)) for m in means) - 1e-9
    assert res <= 0.1


def test_sublinearity_per_window():
    rng = np.random.default_rng(3)
    a = DiscreteSignal(0, rng.standard_normal(400).astype(complex), 4.0)
    b = DiscreteSignal(0, rng.standard_normal(400).astype(complex), 4.0)
    both = DiscreteSignal(0, a.values + b.values, 8.0)
    grid = range(16, 380)
    for k in (4, 16):
        ea = cesaro.shift_extremes(a, k, grid)
        eb = cesaro.shift_extremes(b, k, grid)
        eab = cesaro.shift_extremes(both, k, grid)
        assert eab.sup.real <= ea.sup.real + eb.sup.real + 1e-12
        assert eab.inf.real >= ea.inf.real + eb.inf.real - 1e-12


def test_lower_functional_is_negated_upper():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    sig = DiscreteSignal(0, vals, float(np.max(np.abs(vals))))
    neg = ac.signals.scaled(sig, -1.0)
    sched = WindowSchedule((4, 8, 16))
    sw = cesaro.cesaro_sweep(sig, sched)
    sw_neg = cesaro.cesaro_sweep(neg, sched)
    # p_lower(psi) = -p_bar(-psi), exactly (float negation is exact)
    assert sw.p_lower_est == -sw_neg.p_bar_est
    assert sw.p_bar_est == -sw_neg.p_lower_est


def test_scaling_equivariance():
    sig = ac.render_discrete(ac.Character(1 / 5), 0, 500)
    sched = WindowSchedule((4, 8, 16), ONE)
    base = cesaro.cesaro_sweep(sig, sched)
    scaled = cesaro.cesaro_sweep(ac.signals.scaled(sig, 2.5), sched)
    for s0, s1 in zip(base.sup, scaled.sup):
        assert s1 == pytest.approx(2.5 * s0)
    # window averages scale for any complex factor
    c = 0.3 - 1.2j
    got = cesaro.window_average(ac.signals.scaled(sig, c), 8, 100, ONE)
    assert got == pytest.approx(c * cesaro.window_average(sig, 8, 100, ONE))


def test_one_sided_matches_two_sided_for_zero_padded():
    # signal supported on [0, N], zero outside: the one-sided and
    # two-sided verdicts agree on almost convergence to 0
    sig = ac.render_discrete(ac.Character(0.5), 0, 2 ** 12).derived(
        extension=Extension.ZERO_OUTSIDE)
    tol = 1e-2
    v_one = cesaro.ac_verdict(
        cesaro.cesaro_sweep(sig, WindowSchedule.geometric(16, 1024, 2, ONE)), tol)
    v_two = cesaro.ac_verdict(
        cesaro.cesaro_sweep(sig, WindowSchedule.geometric(16, 1024, 2, TWO)), tol)
    assert v_one.positive and v_two.positive
    assert abs(v_one.limit) <= tol and abs(v_two.limit) <= tol


def test_zero_outside_includes_far_windows():
    sig = DiscreteSignal(0, np.ones(16, dtype=complex), 1.0,
                         extension=Extension.ZERO_OUTSIDE)
    ext = cesaro.shift_extremes(sig, 2, range(-3, 18), TWO)
    assert ext.inf.real == pytest.approx(0.0)  # fully outside window
    assert ext.sup.real == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_shift_is_out_of_range(bad):
    for ext in Extension:
        for sig in (DiscreteSignal(-5, np.ones(64), 1.0, ext),
                    ContinuousSignal(-2.0, 0.25, np.ones(64), 1.0, ext)):
            for side in (ONE, TWO):
                with pytest.raises(WindowOutOfRange):
                    cesaro.window_average(sig, 2, bad, side)
                with pytest.raises(WindowOutOfRange):
                    cesaro.shift_extremes(sig, 2, [sig.x_at(10), bad], side)


@given(st.integers(2, 40), st.integers(0, 60))
@settings(max_examples=60)
def test_window_average_random_against_oracle(k, shift):
    rng = np.random.default_rng(k * 997 + shift)
    vals = rng.standard_normal(200).astype(complex)
    sig = DiscreteSignal(0, vals, float(np.max(np.abs(vals))))
    oracle = brute_window_mean(vals, 0, k, shift, "one")
    assert cesaro.window_average(sig, k, shift, ONE) == pytest.approx(oracle)


def _gather_means(sig, k, side):
    """Reference: every admissible shift and its window mean, gathered from
    a complex running sum through clipped index arrays, then each part
    times ``1.0 / width``."""
    zero = sig.extension is Extension.ZERO_OUTSIDE
    n = len(sig)
    v = sig.values
    if isinstance(sig, DiscreteSignal):
        m = int(round(k))
        cs = np.concatenate(([0j], np.cumsum(v)))
        if side is TWO:
            width = 2 * m + 1
            shifts = (np.arange(sig.n_min - m - 1, sig.n_max + m + 2) if zero
                      else np.arange(sig.n_min + m, sig.n_max - m + 1))
            lo, hi = shifts - sig.n_min - m, shifts - sig.n_min + m + 1
        else:
            width = m
            first = max(0, sig.n_min)
            shifts = np.arange(first, sig.n_max + 2 if zero
                               else sig.n_max - m + 2)
            lo = shifts - sig.n_min
            hi = lo + m
        lo, hi = np.clip(lo, 0, n), np.clip(hi, 0, n)
        return shifts.astype(np.float64), _per_part(cs[hi] - cs[lo], width)
    m = int(round(k / sig.h))
    theta = m * sig.h
    cs = np.concatenate(([0j], np.cumsum((v[1:] + v[:-1]) * (sig.h / 2.0))))
    if side is TWO:
        width = 2 * theta
        idx = np.arange(-m - 1, n + m + 1) if zero else np.arange(m, n - m)
        lo, hi = idx - m, idx + m
    else:
        width = theta
        first = int(np.ceil((max(0.0, sig.x0) - sig.x0) / sig.h - 1e-9))
        idx = np.arange(first, n + m + 1 if zero else n - m)
        lo, hi = idx, idx + m
    lo, hi = np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1)
    return sig.x0 + sig.h * idx, _per_part(cs[hi] - cs[lo], width)


def _per_part(sums, width):
    """Each part of the complex window sums times ``1.0 / width``: the
    means' arithmetic, which keeps the sign of a zero part."""
    out = np.empty_like(sums)
    out.real = sums.real * (1.0 / width)
    out.imag = sums.imag * (1.0 / width)
    return out


def _same(a, b):
    """Equal, and equal in the sign of every zero part."""
    a, b = complex(a), complex(b)
    return a == b and all(math.copysign(1.0, x) == math.copysign(1.0, y)
                          for x, y in ((a.real, b.real), (a.imag, b.imag)))


_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-4.0, 4.0))


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("side", [ONE, TWO])
@pytest.mark.parametrize("ext", list(Extension))
@pytest.mark.parametrize("stride", [1, 3])
@given(re=st.lists(_parts, min_size=1, max_size=40),
       im=st.lists(_parts, min_size=1, max_size=40),
       steps=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       at=st.integers(0, 200))
@example(re=[-0.0, -1.0, -2.0, 0.5], im=[0.0], steps=[1, 2], at=0)  # -0.0 first
@settings(max_examples=20, deadline=None)
def test_sweep_and_window_average_match_gather_reference(
        kind, side, ext, stride, re, im, steps, at):
    # the window means and their extremes are those of the gather
    # formulation exactly, over the whole shift grid for the sweep and over
    # every stride-th shift for an explicit grid; a lone window mean keeps
    # even the sign of a zero
    vals = np.asarray(re, dtype=complex)
    vals.imag = (im * len(vals))[:len(vals)]
    bound = float(np.max(np.abs(vals))) + 1.0
    for origin in (-13, 0, 9):  # below, at and above 0
        if kind == "discrete":
            sig = DiscreteSignal(origin, vals, bound, ext)
            lengths = tuple(sorted(set(steps)))
        else:
            sig = ContinuousSignal(origin * 0.37, 0.37, vals, bound, ext)
            lengths = tuple(sorted(set(0.37 * s for s in steps)))
        refs = [_gather_means(sig, k, side) for k in lengths]
        sched = WindowSchedule(lengths, side)
        if any(len(shifts) == 0 for shifts, _ in refs):
            with pytest.raises((WindowOutOfRange, EmptyGrid)):
                cesaro.cesaro_sweep(sig, sched)
            continue
        sweep = cesaro.cesaro_sweep(sig, sched)
        assert sweep.lengths == tuple(
            float(round(k)) if kind == "discrete"
            else round(k / sig.h) * sig.h for k in lengths)
        for i, (shifts, means) in enumerate(refs):
            r, j = means.real, means.imag
            comp = r if r.max() - r.min() >= j.max() - j.min() else j
            assert sweep.sup[i] == complex(r.max(), j.max())
            assert sweep.inf[i] == complex(r.min(), j.min())
            assert sweep.argmax[i] == shifts[np.argmax(comp)]
            assert sweep.argmin[i] == shifts[np.argmin(comp)]
            shifts, means = shifts[::stride], means[::stride]
            r, j = means.real, means.imag
            comp = r if r.max() - r.min() >= j.max() - j.min() else j
            ext = cesaro.shift_extremes(sig, lengths[i], shifts, side)
            assert ext.sup == complex(r.max(), j.max())
            assert ext.inf == complex(r.min(), j.min())
            assert ext.argmax == shifts[np.argmax(comp)]
            assert ext.argmin == shifts[np.argmin(comp)]
        shifts, means = refs[0]
        pos = at % len(shifts)
        got = cesaro.window_average(sig, lengths[0], shifts[pos], side)
        assert _same(got, means[pos])


def test_negated_signal_keeps_zero_signs():
    # negation turns the leading 0.0 into -0.0, and so the running sum's
    # entry 1: the first window's sum is -0.0 - 0.0, and its mean keeps
    # that sign
    sig = ac.signals.scaled(
        DiscreteSignal(0, [0.0, 1.0, 2.0, 1.0, 3.0], 3.0), -1.0)
    assert math.copysign(1.0, sig.values[0].real) < 0
    sweep = cesaro.cesaro_sweep(sig, WindowSchedule((1, 2, 3), ONE))
    for i, k in enumerate((1, 2, 3)):
        _, means = _gather_means(sig, k, ONE)
        assert _same(sweep.sup[i], complex(means.real.max(), means.imag.max()))
        assert _same(sweep.inf[i], complex(means.real.min(), means.imag.min()))
    assert _same(sweep.sup[0], complex(-0.0, 0.0))
    assert _same(cesaro.window_average(sig, 1, 0, ONE), complex(-0.0, 0.0))


BLOCK = ac.signals.BLOCK


def _whole_array_running_sum(sig):
    """The running sum as one whole-array ``np.cumsum`` of the increments."""
    v = sig.values
    if sig.trapezoid:
        v = (v[1:] + v[:-1]) * (sig.step / 2.0)
    return np.concatenate([np.zeros(1, dtype=complex), np.cumsum(v)])


def _whole_grid_extremes(sig, sched):
    """Each window's extremes from all its means at once: every shift's
    window sum gathered from the whole-array running sum through clipped
    indices, each part times ``1.0 / scale``."""
    p = _whole_array_running_sum(sig)
    last = len(p) - 1
    out = []
    for k in sched.lengths:
        lay = cesaro._layout(sig, cesaro._snap_length(sig, k)[0], sched.sidedness)
        lo = lay.lo + np.arange(lay.count)
        means = _per_part(p[np.clip(lo + lay.width, 0, last)] - p[np.clip(lo, 0, last)],
                          lay.scale)
        out.append(cesaro._extremes_from(
            means.real, means.imag, lambda j: float(sig.x_at(lay.idx0 + j))))
    return out


def _assert_same_sweep(sweep, exts):
    assert len(sweep.lengths) == len(exts)
    for i, ext in enumerate(exts):
        assert _same(sweep.sup[i], ext.sup) and _same(sweep.inf[i], ext.inf)
        assert (sweep.argmax[i], sweep.argmin[i]) == (ext.argmax, ext.argmin)


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("side", [ONE, TWO])
@pytest.mark.parametrize("ext", list(Extension))
@pytest.mark.parametrize("lead", ["plain", "negative_zero"])
def test_blocked_sweep_equals_whole_grid_means(count, kind, side, ext, lead):
    # the middle window has ``count`` shifts, the others a few more or
    # fewer, so the last block is short, full or one shift long; the
    # imaginary parts rise, so on valid-only data their means peak at the
    # last shift
    def make(vals):
        if kind == "discrete":
            return DiscreteSignal(-7, vals, 3.0, ext)
        return ContinuousSignal(-1.75, 0.25, vals, 3.0, ext)

    step = 1.0 if kind == "discrete" else 0.25
    lengths = (3 * step, 8 * step, 21 * step)
    probe = make(np.zeros(64))
    have = cesaro._layout(probe, 8, side).count
    rng = np.random.default_rng(count)
    n = 64 + count - have
    vals = np.clip(rng.standard_normal(n), -2, 2) + 1j * np.linspace(-2, 2, n)
    if lead == "negative_zero":
        vals[:2] = complex(-0.0, -0.0)
    sig = make(vals)
    assert cesaro._layout(sig, 8, side).count == count
    sched = WindowSchedule(lengths, side)
    _assert_same_sweep(cesaro.cesaro_sweep(sig, sched),
                       _whole_grid_extremes(sig, sched))


def test_blocked_sweep_ties_go_to_the_earliest_block():
    # +1 and -1 spikes repeat every BLOCK samples from the second block on,
    # so each window's max and min are reached once per block: the
    # earliest shift is in block 1, not in a later block
    n = 3 * BLOCK + 5
    vals = np.zeros(n)
    vals[BLOCK + 100::BLOCK] = 1.0
    vals[BLOCK + 3000::BLOCK] = -1.0
    sig = DiscreteSignal(0, vals, 1.0)
    sched = WindowSchedule((2, 4, 8), TWO)
    sweep = cesaro.cesaro_sweep(sig, sched)
    _assert_same_sweep(sweep, _whole_grid_extremes(sig, sched))
    for i, m in enumerate((2, 4, 8)):
        assert sweep.sup[i] == 1 / (2 * m + 1) and sweep.inf[i] == -1 / (2 * m + 1)
        assert sweep.argmax[i] == BLOCK + 100 - m
        assert sweep.argmin[i] == BLOCK + 3000 - m


@pytest.mark.parametrize("later", [40, BLOCK + 40])
def test_sweep_witness_is_the_first_shift_of_the_scaled_extreme(later):
    # two window sums 1 ulp apart, d1 < d2, scale to one mean: the witness
    # is the earlier shift, where the smaller sum d1 sits, in one block or
    # in two
    third = 1.0 / 3.0
    d1 = 1.75
    while d1 * third != np.nextafter(d1, 2.0) * third:
        d1 = np.nextafter(d1, 2.0)
    d2 = np.nextafter(d1, 2.0)
    vals = np.zeros(2 * BLOCK + 100)
    vals[10], vals[20], vals[later] = d1, -d1, d2
    sig = DiscreteSignal(0, vals, 2.0)
    sched = WindowSchedule((1, 2, 4), TWO)
    sweep = cesaro.cesaro_sweep(sig, sched)
    _assert_same_sweep(sweep, _whole_grid_extremes(sig, sched))
    assert sweep.sup[0] == d1 * third == d2 * third
    assert sweep.argmax[0] == 9


def _layouts(sig, sched):
    return [cesaro._layout(sig, cesaro._snap_length(sig, k)[0], sched.sidedness)
            for k in sched.lengths]


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("ext", list(Extension))
@pytest.mark.parametrize("lead", ["plain", "negative_zero"])
def test_running_rows_equal_a_whole_array_cumsum_bitwise(n, kind, ext, lead):
    rng = np.random.default_rng(n)
    vals = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    if lead == "negative_zero":
        vals[:2] = complex(-0.0, -0.0)
    sig = (DiscreteSignal(-7, vals, 3.0, ext) if kind == "discrete"
           else ContinuousSignal(-1.75, 0.1, vals, 3.0, ext))
    want = _whole_array_running_sum(sig)
    if lead == "negative_zero":
        # entry 1 keeps the data's -0.0: no block starts at 0 + it
        assert np.signbit(want[1].imag) and want[1].imag == 0
    # the sweep pads only zero-outside data, as far as its windows read
    swept, pad = cesaro._running_rows(
        sig, _layouts(sig, WindowSchedule((3 * sig.step, 40 * sig.step), TWO)))
    end = swept.shape[1] - pad - len(want)
    assert pad > 0 if ext is Extension.ZERO_OUTSIDE else pad == end == 0
    for rows, pad, end in ((sig.running_rows(), 0, 0),
                           (sig.running_rows(3, 5), 3, 5), (swept, pad, end)):
        assert rows.shape == (2, pad + len(want) + end)
        for row, part in zip(rows, (want.real, want.imag)):
            padded = np.concatenate([np.full(pad, part[0]), part, np.full(end, part[-1])])
            assert np.array_equal(row.view(np.uint64), padded.view(np.uint64))


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("ext", list(Extension))
def test_sweep_memory_is_the_rows_and_a_few_blocks(kind, ext):
    # no whole complex running sum beside the rows: at 2^18 samples one
    # would take 4 MiB, sixteen blocks
    n = 2 ** 18
    vals = np.exp(2j * np.pi * 0.1234 * np.arange(n))
    sig = (DiscreteSignal(0, vals, 1.0, ext) if kind == "discrete"
           else ContinuousSignal(0.0, 0.25, vals, 1.0, ext))
    sched = WindowSchedule.geometric(4 * sig.step, 2048 * sig.step, 2.0, TWO)
    rows = cesaro._running_rows(sig, _layouts(sig, sched))[0].nbytes
    tracemalloc.start()
    try:
        cesaro.cesaro_sweep(sig, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows + 4 * 16 * BLOCK
