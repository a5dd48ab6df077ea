import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import cesaro, tauberian as tb
from almostconv.errors import (
    HypothesisViolated,
    InsufficientCoefficients,
    KernelTooWide,
    KernelVanishes,
    RangeTooShort,
    TailNotControlled,
    TooShort,
)
from almostconv.signals import (
    ContinuousSignal,
    DiscreteSignal,
    Sidedness,
    WindowSchedule,
    gaussian_kernel,
    gaussian_kernel_continuous,
    subtract,
)
from almostconv.verdict import ACVerdict, VerdictStatus

from conftest import convolution_invariance_residual

BLOCK = ac.signals.BLOCK

ONE = Sidedness.ONE_SIDED


def geometric_abel_oracle(x):
    # (1-x) * sum (-1)^n x^n = (1-x)/(1+x)
    return (1 - x) / (1 + x)


def test_abel_all_ones_is_exact():
    sweep = tb.abel_sweep(np.ones(400), 1.0, (0.9,))
    # (1-x) * (1 - x^{M+1}) / (1-x) = 1 - x^{M+1}, and the tail is under 1e-12
    assert sweep.values[0] == pytest.approx(1.0, abs=1e-12)


def test_abel_alternating_closed_form():
    coeffs = np.array([(-1.0) ** n for n in range(400)])
    sweep = tb.abel_sweep(coeffs, 1.0, (0.9,))
    assert sweep.values[0] == pytest.approx(geometric_abel_oracle(0.9), abs=1e-10)
    assert sweep.values[0] == pytest.approx(0.1 / 1.9, abs=1e-10)


def test_abel_shifted_alternating():
    coeffs = np.array([1 + (-1.0) ** n for n in range(4000)])
    sweep = tb.abel_sweep(coeffs, 2.0, (0.99,))
    oracle = 1.0 + geometric_abel_oracle(0.99)
    assert sweep.values[0] == pytest.approx(oracle, abs=1e-9)
    assert sweep.values[0] == pytest.approx(1 + 0.01 / 1.99, abs=1e-9)


def test_abel_insufficient_coefficients():
    with pytest.raises(InsufficientCoefficients):
        tb.abel_sweep(np.ones(10), 1.0, (0.99,))


def test_abel_extrapolation_of_convergent_series():
    # partial sums of a geometric series: boundary value is the series sum;
    # quadratic extrapolation through the last three points leaves
    # |v'''|/6 * eps1*eps2*eps3 ~ 2 * 2^-30, under the 1e-8 target
    r = 0.5
    n = np.arange(60000)
    sums = np.cumsum(r ** n)
    xs = tuple(1 - 2.0 ** (-j) for j in (9, 10, 11))
    sweep = tb.abel_sweep(sums, 2.0, xs)
    assert sweep.extrapolated_limit == pytest.approx(1 / (1 - r), abs=1e-8)


def test_abel_schedule_validation():
    with pytest.raises(ValueError):
        tb.abel_sweep(np.ones(100), 1.0, (0.9, 0.8))  # moving away from 1


def test_laplace_constant():
    sig = ac.render_continuous(ac.TrigPoly(((1.0, 0.0),)), 0.0, 0.05, 16001)
    sweep = tb.laplace_sweep(sig, (0.1, 0.05))
    T = sig.x_end
    for x, v in zip(sweep.abscissas, sweep.values):
        assert v == pytest.approx(1 - np.exp(-x * T), abs=1e-5)


def test_laplace_unit_character_closed_form():
    sig = ac.render_continuous(ac.Character(1.0), 0.0, 0.02, 200001)
    sweep = tb.laplace_sweep(sig, (0.1,))
    oracle = abs(0.1 / (0.1 - 2j * np.pi))
    assert abs(sweep.values[0]) == pytest.approx(oracle, abs=1e-4)


def test_laplace_scaling():
    sig = ac.render_continuous(ac.TrigPoly(((2.5, 0.0),)), 0.0, 0.05, 8001)
    sweep = tb.laplace_sweep(sig, (0.1,))
    assert sweep.values[0] == pytest.approx(2.5, abs=1e-4)


def test_laplace_tail_not_controlled():
    sig = ac.render_continuous(ac.TrigPoly(((1.0, 0.0),)), 0.0, 0.05, 101)
    with pytest.raises(TailNotControlled):
        tb.laplace_sweep(sig, (0.01,))


@pytest.mark.parametrize("start, rendered", [(0.3, "[0.3, 25.3]"), (0.0, "[0, 25.0]"),
                                             (-0.0, "[0, 25.0]")])
def test_laplace_tail_message_names_the_rendered_range(start, rendered):
    sig = ContinuousSignal(start, 0.25, [1.0] * 101, 1.0)
    with pytest.raises(TailNotControlled, match=re.escape(f"range {rendered} too short")):
        tb.laplace_sweep(sig, (0.01,))


def _certified_samples(sig, x):
    """How many samples the Laplace mean at ``x`` reads: up to the first at
    or past ``T_x = log(bound / (1e-9 x)) / x``, and at most all of them."""
    j = (np.log(sig.bound / (1e-9 * x)) / x - sig.start) / sig.step
    return len(sig) if not j < len(sig) - 1 else int(np.ceil(max(j, 0.0))) + 1


@pytest.mark.parametrize("start", [0.0, 0.3])
@pytest.mark.parametrize("n, cut", [
    *(pytest.param(n, None, id=str(n))
      for n in (1, 2, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 5)),
    *(pytest.param(3 * BLOCK + 5, c, id=f"{3 * BLOCK + 5}-cut{c}")
      for c in (BLOCK - 1, BLOCK, BLOCK + 1))])
def test_laplace_sweep_is_numpy_trapezoid_bit_for_bit(n, start, cut):
    # the terms are filled BLOCK at a time; np.trapezoid over each
    # abscissa's certified samples is the oracle.  With ``cut`` the bound
    # puts the last abscissa's end that many terms in, at a block edge (a
    # single sample has no term)
    rng = np.random.default_rng(n)
    vals = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (1e-12 if n == 1 else 1.0)
    step = 80.0 / max(n - 1, 1)
    xs = (2.0, 1.0, 0.5)
    bound = float(np.max(np.abs(vals)))
    if cut is not None:
        # bound * exp(-x t) = 1e-9 x half a step before sample ``cut``
        want_bound = 1e-9 * xs[-1] * np.exp(xs[-1] * (start + (cut - 0.5) * step))
        vals, bound = vals * (want_bound / bound), want_bound
    sig = ContinuousSignal(start, step, vals, bound)
    counts = [_certified_samples(sig, x) for x in xs]
    if cut is not None:
        assert counts[-1] == cut + 1
    t = sig.x_at(np.arange(n))
    want = [complex(x * np.trapezoid(vals[:m] * np.exp(-x * t[:m]), dx=step))
            for x, m in zip(xs, counts)]
    sweep = tb.laplace_sweep(sig, xs)
    assert np.array(sweep.values).tobytes() == np.array(want).tobytes()
    assert sweep.certified_ends == tuple(counts)


def test_laplace_sweep_reads_samples_only_up_to_each_certified_end(monkeypatch):
    # the whole range is four times what the last abscissa needs: each
    # abscissa's blocks read positions from sample 0 up to its own end
    sig = ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 4 * BLOCK)
    xs = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    reads = []
    x_at = ContinuousSignal.x_at

    def spy(self, j):
        if np.ndim(j):
            reads.append((int(j[0]), int(j[-1])))
        return x_at(self, j)

    monkeypatch.setattr(ContinuousSignal, "x_at", spy)
    sweep = tb.laplace_sweep(sig, xs)
    runs = []
    for first, last in reads:
        if first == 0:
            runs.append(0)
        runs[-1] = last + 1
    counts = [_certified_samples(sig, x) for x in xs]
    assert runs == counts == list(sweep.certified_ends)
    assert counts[-1] < len(sig) // 3


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(k=st.integers(10, 14), x_top=st.floats(2.0 ** -6, 0.5),
       kind=st.sampled_from(["exp", "power", "trig"]),
       coeffs=st.tuples(_COEFF, _COEFF, _COEFF),
       rate=st.floats(0.05, 4.0), turns=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=60, deadline=None)
def test_laplace_cut_is_within_the_tail_bound_of_the_whole_range(k, x_top, kind,
                                                                 coeffs, rate, turns):
    # the grid reaches 1.25 times the last abscissa's end for a bound of
    # sum |coeffs|, which no rendered bound exceeds; trig frequencies stay
    # inside the aliasing guard.  The dropped trapezoid terms sum to at most
    # 1e-9 * x * (x h / 2) * coth(x h / 2), under 1e-9 for abscissas up to 1/2
    n = 2 ** k
    xs = (x_top, x_top / 2, x_top / 4)
    upper = max(sum(abs(c) for c in coeffs), 1.0)
    h = 1.25 * np.log(upper / (1e-9 * xs[-1])) / xs[-1] / (n - 1)
    if kind == "trig":
        spec = ac.TrigPoly(((coeffs[0], 0.0), (coeffs[1], 0.1 * turns[0] / h),
                            (coeffs[2], 0.1 * turns[1] / h)))
    else:
        spec = ac.Convergent(coeffs[0], kind, rate, coeffs[1])
    sig = ac.render_continuous(spec, 0.0, h, n)
    sweep = tb.laplace_sweep(sig, xs)
    t = sig.x_at(np.arange(n))
    for x, got in zip(xs, sweep.values):
        whole = x * np.trapezoid(sig.values * np.exp(-x * t), dx=sig.step)
        assert abs(got - whole) <= sweep.tail_bound + 2.0 ** -40 * sig.bound


def test_residue_all_ones_sign_lock():
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    rep = tb.residue_oac_estimate(DiscreteSignal(0, np.ones(2048), 1.0), xs)
    assert rep.alpha_est == pytest.approx(1.0, abs=1e-9)  # +1, not -1
    assert rep.cesaro_verdict.positive
    assert rep.agreement <= 1e-9


def test_residue_alternating_partial_sums():
    coeffs = np.tile([1.0, 0.0], 1024)
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    rep = tb.residue_oac_estimate(DiscreteSignal(0, coeffs, 1.0), xs)
    assert rep.alpha_est == pytest.approx(0.5, abs=1e-3)
    assert rep.cesaro_verdict.limit == pytest.approx(0.5, abs=1e-12)
    assert rep.agreement <= 1e-3


def test_residue_shifted_alternating():
    coeffs = np.array([1 + (-1.0) ** n for n in range(2048)])
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    rep = tb.residue_oac_estimate(DiscreteSignal(0, coeffs, 2.0), xs)
    assert rep.alpha_est == pytest.approx(1.0, abs=1e-3)
    assert rep.agreement <= 1e-3


def test_residue_agreement_on_rational_streams():
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    streams = [
        np.ones(2048),
        np.tile([1.0, 0.0], 1024),
        np.array([1 + (-1.0) ** n for n in range(2048)]),
        np.tile([2.0, 1.0], 1024),
    ]
    for coeffs in streams:
        signal = DiscreteSignal(0, coeffs, float(np.max(np.abs(coeffs))))
        rep = tb.residue_oac_estimate(signal, xs)
        assert rep.agreement is not None and rep.agreement <= 1e-3


def test_residue_continuous_trig_poly():
    # the R case of the cross-check: Laplace limit against window means
    spec = ac.TrigPoly(((0.7, 0.0), (0.25 + 0.1j, 1 / 16), (0.2 - 0.05j, 1 / 8)))
    sig = ac.render_continuous(spec, 0.0, 0.4, 10241)
    rep = tb.residue_oac_estimate(
        sig, window_schedule=WindowSchedule.geometric(128.0, 1024.0, 2, ONE))
    assert rep.cesaro_verdict.positive
    assert rep.alpha_est == pytest.approx(0.7, abs=1e-2)
    assert rep.agreement <= 1e-2
    # the default one-sided schedule reaches the same verdict
    assert tb.residue_oac_estimate(sig).agreement <= 1e-2


def test_boundary_sweep_is_the_group_sweep():
    n = np.arange(4096)
    disc = DiscreteSignal(0, 0.6 + 0.4 * np.cos(np.pi * n / 4), 1.0)
    cont = ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 16385)
    abel_xs = (1 - 2.0 ** -3, 1 - 2.0 ** -4, 1 - 2.0 ** -5)
    laplace_xs = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    pairs = [
        (tb.boundary_sweep(disc), tb.abel_sweep(disc.values, 1.0, abel_xs)),
        (tb.boundary_sweep(disc, (0.5, 0.75, 0.9)),
         tb.abel_sweep(disc.values, 1.0, (0.5, 0.75, 0.9))),
        (tb.boundary_sweep(cont), tb.laplace_sweep(cont, laplace_xs)),
        (tb.boundary_sweep(cont, (0.25, 0.125, 0.0625)),
         tb.laplace_sweep(cont, (0.25, 0.125, 0.0625))),
    ]

    def bits(sweep):
        return np.asarray(sweep.values + (sweep.extrapolated_limit,)).view(np.uint64)

    for got, want in pairs:
        assert got.method is want.method and got.abscissas == want.abscissas
        assert np.array_equal(bits(got), bits(want))
    with pytest.raises(TypeError):
        tb.laplace_sweep(disc, laplace_xs)


def test_default_one_sided_schedule_comes_from_the_grid():
    # doubling from max(step, top / 16) up to top, a quarter of the span
    disc = DiscreteSignal(0, np.zeros(2049), 0.0)
    assert tb._one_sided_windows(disc).lengths == (32.0, 64.0, 128.0, 256.0, 512.0)
    assert tb._one_sided_windows(disc.derived(values=np.zeros(65))).lengths \
        == (1.0, 2.0, 4.0, 8.0, 16.0)
    cont = ContinuousSignal(0.0, 0.05, np.zeros(10241), 0.0)
    assert tb._one_sided_windows(cont).lengths == (8.0, 16.0, 32.0, 64.0, 128.0)
    assert tb._one_sided_windows(cont).sidedness is ONE


def test_fatou_geometric():
    n = np.arange(2 ** 14)
    rep = tb.primitive_check(DiscreteSignal(0, 0.5 ** n, 1.0), 2.0, tol=2e-3,
                             window_schedule=WindowSchedule.geometric(512, 4096, 2, ONE))
    assert rep.passed
    assert rep.final_value_error <= 1e-6


def test_fatou_derivative_series():
    n = np.arange(2 ** 15)
    a = (n + 1) * 0.5 ** n
    rep = tb.primitive_check(DiscreteSignal(0, a, 1.0), 4.0, tol=2e-3, check_index=64,
                             window_schedule=WindowSchedule.geometric(1024, 8192, 2, ONE))
    assert rep.passed
    assert rep.final_value_error <= 1e-6
    assert rep.limit_error <= 1e-3
    assert rep.tail <= 1e-8


def test_fatou_single_term_exact():
    coeffs = np.zeros(64)
    coeffs[0] = 3.5
    rep = tb.primitive_check(DiscreteSignal(0, coeffs, 3.5), 3.5, tol=1e-12)
    assert rep.passed
    assert rep.final_value_error == 0.0


def test_fatou_rejects_nondecaying():
    # the partial sums 1, 0, 1, 0, ... of (-1)^n almost converge to
    # F(1) = 1/(1 + 1) = 1/2, which needs no decay; they do not converge,
    # so no plain-convergence claim is made
    sig = DiscreteSignal(0, [(-1.0) ** n for n in range(64)], 1.0)
    rep = tb.primitive_check(sig, 0.5, tol=1e-3)
    assert rep.passed
    assert rep.tail_converges is None
    assert rep.limit_error == 0.0
    assert not tb.primitive_check(sig, 0.7, tol=1e-3).passed


def test_primitive_check_on_both_groups():
    # sum_n 2^-n = 2 on Z; integral_0^inf e^{-t} dt = 1 on R
    n = np.arange(2048)
    disc = DiscreteSignal(0, 0.5 ** n, 1.0)
    cont = ac.render_continuous(ac.Convergent(0.0, "exp", 1.0, 1.0), 0.0, 0.05, 10241)
    for sig, value in ((disc, 2.0), (cont, 1.0)):
        rep = tb.primitive_check(sig, value, 1e-2)
        assert rep.passed and rep.tail_converges
        assert rep.oac_verdict.limit == pytest.approx(value, abs=1e-2)
        assert not tb.primitive_check(sig, value + 0.1, 1e-2).passed
    # on Z the primitive is the partial sums, bit for bit
    sums = np.cumsum(disc.values)
    rows = disc.running_rows()[:, -len(disc):]
    assert np.array_equal(rows.view(np.uint64),
                          np.stack([sums.real, sums.imag]).view(np.uint64))
    # a decaying signal's primitive must also converge where it is checked
    early = tb.primitive_check(disc, 2.0, 1e-2, check_index=3)
    assert early.tail_converges is False and not early.passed
    with pytest.raises(ValueError):
        tb.primitive_check(disc, 2.0, 1e-2, check_index=2048)


def test_weak_star_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.5, 0.0),)), 0, 1023)
    kern = gaussian_kernel(0.5)
    shifts = tb.geometric_tail_positions(sig, 64, pad=len(kern) + 2)
    v = tb.weak_star_verdict(sig, kern, shifts, 1e-6)
    assert v.positive
    assert v.limit == pytest.approx(1.5)


def test_weak_star_character_never_stabilizes():
    sig = ac.render_continuous(ac.Character(0.2), 0.0, 0.5, 8193)
    kern = gaussian_kernel_continuous(1.0, 0.5)
    shifts = tb.geometric_tail_positions(sig, 96, pad=len(kern) + 2)
    v = tb.weak_star_verdict(sig, kern, shifts, 1e-3)
    assert not v.positive
    # the smoothed trajectory oscillates with the undamped closed-form
    # amplitude |kernel_transform(0.2)|
    gain = np.exp(-2 * np.pi ** 2 * 1.0 ** 2 * 0.2 ** 2)
    assert v.uncertainty >= 0.5 * gain


def test_weak_star_decaying_perturbation():
    sig = ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 4097)
    kern = gaussian_kernel_continuous(0.5, 0.25)
    shifts = tb.geometric_tail_positions(sig, 64, pad=len(kern) + 2)
    v = tb.weak_star_verdict(sig, kern, shifts, 1e-2)
    assert v.positive
    assert v.limit == pytest.approx(2.0, abs=1e-2)


def test_weak_star_kernel_floor():
    sig = ac.render_discrete(ac.Character(0.2), 0, 1023)
    wide = gaussian_kernel(8.0)  # transform collapses well inside the band
    shifts = tb.geometric_tail_positions(sig, 64, pad=len(wide) + 2)
    with pytest.raises(KernelVanishes):
        tb.weak_star_verdict(sig, wide, shifts, 1e-3)


def test_kernel_transform_floor_keeps_wide_kernels():
    wide = gaussian_kernel(2000.0)  # unit mass, longer than a 4096-point pad
    assert len(wide) == 16001
    assert tb._kernel_transform_floor(wide, 1e-5, 0.5) >= 0.99


def test_oscillation_modulus_constant():
    sig = ac.render_discrete(ac.TrigPoly(((1.0, 0.0),)), -100, 100)
    assert tb.oscillation_modulus(sig, 3.0, 10.0) == pytest.approx(0.0)


def test_oscillation_modulus_character_translation_identity():
    lam = 0.2
    sig = ac.render_discrete(ac.Character(lam), -500, 500)
    got = tb.oscillation_modulus(sig, 2.0, 50.0)
    oracle = max(abs(1 - np.exp(2j * np.pi * lam * d)) for d in (1, 2))
    assert got == pytest.approx(oracle, abs=1e-12)


def test_oscillation_modulus_decay_bound():
    sig = ac.render_continuous(ac.Convergent(0.0, "exp", 1.0, 1.0), 0.0, 0.1, 201)
    got = tb.oscillation_modulus(sig, 1.0, 10.0)
    assert got <= np.exp(-10.0)


def test_oscillation_modulus_range_too_short():
    sig = ac.render_discrete(ac.Character(0.2), 0, 20)
    with pytest.raises(RangeTooShort):
        tb.oscillation_modulus(sig, 1.0, 100.0)


def test_primitive_exponential():
    count = int(512 / 0.05) + 1
    sig = ac.render_continuous(ac.Convergent(0.0, "exp", 1.0, 1.0), 0.0, 0.05, count)
    rep = tb.primitive_check(sig, 1.0, 1e-2)
    assert rep.passed
    assert rep.tail_converges


def test_primitive_zero_stream():
    sig = ContinuousSignal(0.0, 0.1, np.zeros(4096), 0.0)
    rep = tb.primitive_check(sig, 0.0, 1e-9)
    assert rep.passed
    assert rep.final_value_error == 0.0


def test_primitive_scaled_exponential():
    # psi = 2 e^{-2t}: transform 2/(2+s), value 1 at 0
    count = int(512 / 0.05) + 1
    sig = ac.render_continuous(ac.Convergent(0.0, "exp", 2.0, 2.0), 0.0, 0.05, count)
    rep = tb.primitive_check(sig, 1.0, 1e-2)
    assert rep.passed


def test_primitive_bounded_below_gate():
    sig = ContinuousSignal(0.0, 0.1, np.full(512, -3.0), 3.0)
    with pytest.raises(HypothesisViolated):
        tb.primitive_check(sig, 0.0, 1e-2, bounded_below_C=1.0)


def test_mean_sweep_validation():
    # both sweeps check the schedule before computing a mean: the Laplace
    # grid is too short for 0.1, so a late check would report its tail
    with pytest.raises(ValueError, match="Abel abscissas must increase"):
        tb.abel_sweep(np.ones(100), 1.0, (0.9, 0.8))
    short = ac.render_continuous(ac.TrigPoly(((1.0, 0.0),)), 0.0, 0.05, 101)
    for xs in ((0.1, 0.2), (0.2, 0.1, -0.05), (0.1, 0.0)):
        with pytest.raises(ValueError, match="Laplace abscissas must decrease"):
            tb.laplace_sweep(short, xs)
    for sweep in (lambda xs: tb.abel_sweep(np.ones(100), 1.0, xs),
                  lambda xs: tb.laplace_sweep(short, xs)):
        with pytest.raises(ValueError, match="empty abscissa schedule"):
            sweep(())
    # the dot product of near-DBL_MAX coefficients overflows, with no warning
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match="sweep values must be finite"):
        warnings.simplefilter("error")
        tb.abel_sweep(np.full(8000, 1e308), 1e308, (0.9,))


def test_chain_convergent_signal():
    sig = ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 2049)
    rep = tb.chain_report(sig)
    assert rep.c_verdict.positive and rep.c_verdict.limit == pytest.approx(2.0, abs=1e-2)
    assert rep.wstar_verdict.positive
    assert rep.ac_verdict.positive
    assert rep.consistency


def test_chain_character():
    sig = ac.render_continuous(ac.Character(0.2), 0.0, 0.5, 8193)
    rep = tb.chain_report(sig)
    assert not rep.c_verdict.positive
    assert not rep.wstar_verdict.positive
    assert rep.ac_verdict.positive
    assert abs(rep.ac_verdict.limit) <= 1e-2
    assert rep.consistency
    # translation differences oscillate, so the conditional converse is idle
    assert not all(d.verdict.positive for d in rep.difference_decay)


def test_chain_blocks():
    sig = ac.render_discrete(ac.BlockSequence(), 0, 2 ** 16)
    rep = tb.chain_report(sig)
    assert rep.c_verdict.negative
    assert rep.wstar_verdict.negative
    assert rep.ac_verdict.negative
    assert rep.consistency


@pytest.mark.parametrize("spec, h, count", [
    (ac.Convergent(2.0), 0.05, 4096),  # the chain command's defaults
    (ac.Convergent(2.0), 0.125, 3001),
    (ac.Convergent(1.0, "power", 2.0), 0.05, 4096),
    (ac.Convergent(-1.5, "exp", 0.5), 0.25, 2049),
    (ac.Convergent(1.0, "power", 1.5), 0.5, 1025),
])
def test_chain_inconclusive_window_means_are_unconfirmed_not_violations(spec, h, count):
    # the largest window still sees the decaying part, so the window-mean
    # verdict is inconclusive: neither a confirmation nor a contradiction
    sig = ac.render_continuous(spec, 0.0, h, count)
    rep = tb.chain_report(sig)
    assert rep.c_verdict.positive and rep.wstar_verdict.positive
    assert rep.ac_verdict.status is VerdictStatus.INCONCLUSIVE
    assert rep.consistency and rep.violations == ()
    gap = rep.ac_verdict.uncertainty
    assert rep.unconfirmed == (("ordinary => window-mean", gap),
                               ("weak* => window-mean", gap))


@pytest.mark.parametrize("verdict, violations", [
    (ACVerdict(VerdictStatus.NOT_ALMOST_CONVERGENT, None, 1.0),
     ("ordinary limit present but window-mean verdict negative",
      "weak* limit present but window-mean verdict negative")),
    (ACVerdict(VerdictStatus.ALMOST_CONVERGENT, 5.0, 0.0),
     ("ordinary and window-mean limits disagree",
      "weak* and window-mean limits disagree",
      "window-mean with decaying differences and weak* limits disagree")),
])
def test_chain_contradictions_are_violations(monkeypatch, verdict, violations):
    monkeypatch.setattr(tb, "ac_verdict", lambda sweep, tol: verdict)
    sig = ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, 2049)
    rep = tb.chain_report(sig)
    assert not rep.consistency
    assert rep.violations == violations and rep.unconfirmed == ()


def test_chain_consistency_across_corpus(generator_corpus):
    for name, spec, signal, _ in generator_corpus:
        rep = tb.chain_report(signal)
        assert rep.consistency, (name, rep.violations)


def test_hardy_littlewood_discrete():
    rng = np.random.default_rng(31415)
    freqs = np.array([0.5, 0.25, 0.125, 0.0625])
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    for _ in range(5):
        alpha = rng.uniform(0, 2)
        n = np.arange(2048)
        vals = np.full(2048, alpha, dtype=complex)
        for f in rng.choice(freqs, size=2, replace=False):
            vals += (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)) \
                * np.exp(2j * np.pi * np.mod(f * n, 1.0))
        bound = float(np.max(np.abs(vals)))
        assert tb.bounded_below(vals, 5.0)
        sig = DiscreteSignal(0, vals, bound)
        v = cesaro.ac_verdict(
            cesaro.cesaro_sweep(sig, WindowSchedule.geometric(64, 512, 2, ONE)), 1e-6)
        assert v.positive
        sweep = tb.abel_sweep(vals, bound, xs)
        assert abs(sweep.extrapolated_limit - v.limit) <= 1e-2


def test_hardy_littlewood_continuous():
    xs = (2.0 ** (-5), 2.0 ** (-6), 2.0 ** (-7))
    for i in range(3):
        alpha = 0.3 + 0.5 * i
        spec = ac.TrigPoly(((alpha, 0.0), (0.25 + 0.1j, 1 / 16), (0.2 - 0.05j, 1 / 8)))
        sig = ac.render_continuous(spec, 0.0, 0.4, 10241)
        v = cesaro.ac_verdict(
            cesaro.cesaro_sweep(sig, WindowSchedule.geometric(128.0, 1024.0, 2, ONE)),
            1e-6)
        assert v.positive
        sweep = tb.laplace_sweep(sig, xs)
        assert abs(sweep.extrapolated_limit - v.limit) <= 1e-2


# ---------------------------------------------------------------------------
# windowed weak* route and oscillation modulus against whole-array code
# ---------------------------------------------------------------------------

def _whole_weak_star(signal, kernel, shift_schedule, tol):
    """The weak* verdict from a convolution of the whole signal."""
    mass = kernel.weights().sum()
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"kernel mass {mass} is not 1")
    tb._kernel_transform_floor(kernel, 0.25 / signal.step, 1e-3)
    smoothed = ac.convolve(signal, kernel)
    positions = np.asarray(shift_schedule, dtype=np.float64)
    j = (positions - smoothed.start) / smoothed.step
    idx = np.round(j)
    off = (np.abs(j - idx) > 1e-6) | (idx < 0) | (idx >= len(smoothed))
    if off.any():
        raise RangeTooShort(f"shift {positions[off][0]} outside the smoothed grid")
    return tb._tail_verdict(positions, smoothed.values[idx.astype(np.int64)], tol)


def _whole_decay(signal, kernel, s, tol):
    """A difference-decay verdict from the whole shifted difference."""
    diff = subtract(signal, signal.shifted(s))
    dshifts = tuple(tb.geometric_tail_positions(diff, 64, pad=len(kernel) + 2))
    return _whole_weak_star(diff, kernel, dshifts, tol)


def _whole_oscillation_modulus(signal, u, T):
    """The modulus from masked lag differences over the whole array."""
    step = signal.step
    if u <= 0:
        raise ValueError("neighborhood width must be positive")
    m = int(np.floor(u / step + 1e-9))
    if m < 1:
        raise ValueError(f"width {u} below one grid step {step}")
    xs = signal.x_at(np.arange(len(signal)))
    anchored = np.abs(xs) >= T - 1e-12
    if not np.any(anchored):
        raise RangeTooShort(f"no grid point with |x| >= {T}")
    vals = signal.values
    worst = 0.0
    for d in range(1, m + 1):
        diff = np.abs(vals[d:] - vals[:-d])
        keep = anchored[d:] & anchored[:-d]
        if np.any(keep):
            worst = max(worst, float(diff[keep].max()))
    return worst


def _outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


# origins below 0, straddling 0, at 0 and above 0, in grid steps
_ORIGINS = st.sampled_from(["below", "straddle", "zero", "above"])


def _random_signal(continuous, n, origin, seed, h=0.25):
    """Noise around a constant, decaying or not, on a grid placed by origin."""
    rng = np.random.default_rng(seed)
    first = {"below": -n - 3, "straddle": -(n // 2) - 1, "zero": 0,
             "above": 5}[origin]
    decay = np.exp(-np.arange(n) / rng.uniform(5, 5 + 4 * n)) if rng.random() < 0.5 \
        else np.ones(n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals = rng.uniform(-1, 1) + rng.uniform(0, 0.3) * noise * decay
    bound = float(np.max(np.abs(vals)))
    if continuous:
        return ContinuousSignal(first * h, h, vals, bound), \
            gaussian_kernel_continuous(2 * h, h)
    return DiscreteSignal(first, vals, bound), gaussian_kernel(0.5)


@given(continuous=st.booleans(), n=st.integers(60, 400), origin=_ORIGINS,
       seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from([1e-6, 1e-2, 0.3]),
       gaps=st.lists(st.integers(1, 60), min_size=0, max_size=40),
       offset=st.integers(0, 200), data=st.data())
@settings(max_examples=150, deadline=None)
def test_weak_star_matches_whole_array_convolution(continuous, n, origin, seed,
                                                   tol, gaps, offset, data):
    # explicit schedules: gaps of 1 give adjacent windows, gaps below the
    # kernel width overlapping ones, larger gaps far-apart ones
    sig, kern = _random_signal(continuous, n, origin, seed)
    assert len(kern) == (17 if continuous else 5)
    count = n - len(kern) + 1
    idx = offset + np.cumsum([0] + gaps)
    idx = idx[idx < count]
    order = data.draw(st.permutations(range(len(idx))))
    positions = sig.start + kern.x_end + idx[list(order)] * sig.step
    for schedule in (positions,
                     tb.geometric_tail_positions(sig, 96, pad=len(kern) + 2)):
        got = _outcome(tb.weak_star_verdict, sig, kern, schedule, tol)
        assert got == _outcome(_whole_weak_star, sig, kern, schedule, tol)


def _doubling(sig):
    """The doubling window lengths whose three largest the chain sweeps."""
    span = sig.step * (len(sig) - 1)
    return WindowSchedule.geometric(max(4 * sig.step, span / 512), span / 8, 2,
                                    Sidedness.TWO_SIDED).lengths


@pytest.mark.parametrize("continuous", [False, True])
def test_chain_sweeps_the_three_judged_windows(monkeypatch, continuous):
    sig, _ = _random_signal(continuous, 4100, "straddle", 3)
    assert len(_doubling(sig)) == 7
    seen = []

    def spy(signal, schedule):
        seen.append(schedule)
        return cesaro.cesaro_sweep(signal, schedule)

    monkeypatch.setattr(tb, "cesaro_sweep", spy)
    tb.chain_report(sig)
    assert seen == [WindowSchedule(_doubling(sig)[-3:], Sidedness.TWO_SIDED)]


@pytest.mark.parametrize("continuous", [False, True])
def test_chain_below_three_windows_is_refused(continuous):
    sig, _ = _random_signal(continuous, 100, "zero", 5)
    assert len(_doubling(sig)) == 2
    with pytest.raises(TooShort, match="needs at least 129 samples .*, got 100$"):
        tb.chain_report(sig)


@pytest.mark.parametrize("n", [1, 33, 128, 129])
@pytest.mark.parametrize("continuous", [False, True])
def test_chain_needs_129_samples(continuous, n):
    # three doubling windows up to span / 8 take 129 samples on either
    # group; below 33 there is not even one
    sig, _ = _random_signal(continuous, n, "zero", 5)
    if n == 129:
        assert len(_doubling(sig)) == 3
        tb.chain_report(sig)
    else:
        with pytest.raises(TooShort, match=f", got {n}$"):
            tb.chain_report(sig)


def _judged_verdict_matches(got, sweep, tol):
    """``got``, the chain's verdict on the three largest windows of
    ``sweep``, against ``ac_verdict`` on all of ``sweep``.  They differ only
    where a judged gap rises by more than the slack of the judged gaps but
    not by more than the slack of all the gaps: steady on the whole sweep,
    so positive there, and inconclusive on the three."""
    want = cesaro.ac_verdict(sweep, tol)
    gaps = sweep.gaps()
    g1, g2, g3 = gaps[-3:]
    judged = 1e-12 * max(1.0, float(gaps[-3:].max()))
    whole = 1e-12 * max(1.0, float(gaps.max()))
    if want.positive and any(a + judged < b <= a + whole for a, b in ((g1, g2), (g2, g3))):
        assert got == ACVerdict(VerdictStatus.INCONCLUSIVE, None, want.uncertainty,
                                None, want.notes)
    else:
        assert got == want


@given(continuous=st.booleans(), n=st.integers(140, 500), origin=_ORIGINS,
       seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from([1e-6, 1e-2, 0.3]))
@settings(max_examples=60, deadline=None)
def test_chain_matches_whole_array_pieces(continuous, n, origin, seed, tol):
    sig, kern = _random_signal(continuous, n, origin, seed)
    shifts = [d * sig.step for d in (1, 4, 16)]
    rep = tb.chain_report(sig, tol)
    _judged_verdict_matches(rep.ac_verdict, cesaro.cesaro_sweep(
        sig, WindowSchedule(_doubling(sig), Sidedness.TWO_SIDED)), tol)
    wshifts = tb.geometric_tail_positions(sig, 96, pad=len(kern) + 2)
    assert rep.wstar_verdict == _whole_weak_star(sig, kern, wshifts, tol)
    assert [d.shift for d in rep.difference_decay] == shifts
    for d in rep.difference_decay:
        assert d.verdict == _whole_decay(sig, kern, d.shift, tol)
    span = sig.step * (len(sig) - 1)
    T = abs(sig.start + span / 2)
    assert rep.oscillation_modulus == _whole_oscillation_modulus(sig, 4 * sig.step, T)


@given(continuous=st.booleans(), n=st.integers(1, 300), origin=_ORIGINS,
       seed=st.integers(0, 2 ** 32 - 1), lags=st.integers(1, 8),
       T=st.one_of(st.floats(-5.0, 400.0), st.sampled_from(
           [0.0, 0.5, 1.0, 1.5, 2.5, float("inf"), -float("inf"), float("nan")])))
@settings(max_examples=300, deadline=None)
def test_oscillation_modulus_matches_masked_loop(continuous, n, origin, seed,
                                                 lags, T):
    # small T on a range straddling 0 leaves a gap narrower than the
    # widest lag, so pairs across the gap count
    sig, _ = _random_signal(continuous, n, origin, seed)
    u = lags * sig.step
    T = T * sig.step
    got = _outcome(tb.oscillation_modulus, sig, u, T)
    assert got == _outcome(_whole_oscillation_modulus, sig, u, T)


def _parity(new, old, expected):
    got = _outcome(*new)
    assert got == _outcome(*old)
    assert isinstance(got, tuple) and got[0] is expected, got


def _view_decay(sig, kern, d):
    """The difference-decay verdict of :func:`chain_report` at lag ``d``."""
    diff = tb._View(sig, d)
    dshifts = diff.tail_positions(64, pad=len(kern) + 2)
    return tb._weak_star(diff, kern, dshifts, 1e-2)


@pytest.mark.parametrize("continuous", [False, True])
@pytest.mark.parametrize("lag", [0, 3])
def test_smoothed_reads_take_one_convolve_of_the_whole_signal_bits(
        monkeypatch, continuous, lag):
    # runs that abut (next index one kernel width on), overlap, repeat and
    # stand alone, read out of order: one convolve per read, and the
    # values of the whole-signal convolution bit for bit
    sig, kern = _random_signal(continuous, 400, "straddle", 11)
    w = len(kern)
    idx = np.array([300, 5, 5 + w, 5 + 2 * w, 5 + 2 * w + 1, 90, 90 + w - 1,
                    5, 90 + 2 * w - 2, 200, 200 + w, 0, len(sig) - lag - w])
    whole = sig if not lag else subtract(sig, sig.shifted(lag * sig.step))
    want = ac.convolve(whole, kern).values[idx]
    calls = []

    def counted(signal, kernel):
        calls.append(len(signal))
        return ac.convolve(signal, kernel)

    monkeypatch.setattr(tb, "convolve", counted)
    got = tb._smoothed_at(tb._View(sig, lag), kern, idx)
    assert len(calls) == 1
    assert got.tobytes() == want.tobytes()


def test_difference_too_short_for_padding_raises_as_before():
    sig, kern = _random_signal(False, 200, "above", 3)
    _parity((_view_decay, sig, kern, 190),
            (_whole_decay, sig, kern, 190.0, 1e-2), RangeTooShort)


def test_kernel_mass_raises_as_before_on_every_route():
    sig, kern = _random_signal(False, 200, "straddle", 4)
    heavy = DiscreteSignal(-2, 2 * kern.values, 2 * kern.bound)
    shifts = tb.geometric_tail_positions(sig, 64, pad=len(heavy) + 2)
    _parity((tb.weak_star_verdict, sig, heavy, shifts, 1e-2),
            (_whole_weak_star, sig, heavy, shifts, 1e-2), ValueError)
    _parity((tb._weak_star, tb._View(sig, 4), heavy, shifts, 1e-2),
            (_whole_decay, sig, heavy, 4.0, 1e-2), ValueError)
    schedule = WindowSchedule.geometric(2, 8, 2, ONE)
    with pytest.raises(ValueError, match="kernel mass"):
        convolution_invariance_residual(sig, heavy, schedule)


def test_vanishing_kernel_transform_raises_as_before():
    sig, _ = _random_signal(False, 200, "zero", 5)
    wide = gaussian_kernel(8.0)
    shifts = tb.geometric_tail_positions(sig, 64, pad=len(wide) + 2)
    _parity((tb.weak_star_verdict, sig, wide, shifts, 1e-2),
            (_whole_weak_star, sig, wide, shifts, 1e-2), KernelVanishes)
    _parity((tb._weak_star, tb._View(sig, 4), wide, shifts, 1e-2),
            (_whole_decay, sig, wide, 4.0, 1e-2), KernelVanishes)


def test_kernel_wider_than_the_difference_raises_as_before():
    # the check measures the whole difference, not the slices convolved
    sig, kern = _random_signal(True, 30, "straddle", 6)
    for d in (14, 20):
        diff = subtract(sig, sig.shifted(d * sig.step))
        shifts = diff.x_at(np.arange(len(diff)))
        _parity((tb._weak_star, tb._View(sig, d), kern, shifts, 1e-2),
                (_whole_weak_star, diff, kern, shifts, 1e-2), KernelTooWide)
    short = ContinuousSignal(0.0, sig.step, sig.values[:16], sig.bound)
    _parity((tb.weak_star_verdict, short, kern, [0.0], 1e-2),
            (_whole_weak_star, short, kern, [0.0], 1e-2), KernelTooWide)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_off_grid_shift_raises_as_before():
    sig, kern = _random_signal(True, 200, "straddle", 7)
    good = tb.geometric_tail_positions(sig, 64, pad=len(kern) + 2)
    for bad in (good[3] + 0.5 * sig.step, sig.x_end, sig.start, np.inf, -np.inf):
        schedule = np.append(good, bad)
        _parity((tb.weak_star_verdict, sig, kern, schedule, 1e-2),
                (_whole_weak_star, sig, kern, schedule, 1e-2), RangeTooShort)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_shift_is_off_the_grid_without_a_warning(bad):
    # the grid distance of an infinite shift used to be formed as inf - inf
    sig, kern = _random_signal(True, 200, "straddle", 7)
    good = tb.geometric_tail_positions(sig, 64, pad=len(kern) + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeTooShort, match="outside the smoothed grid"):
            tb.weak_star_verdict(sig, kern, np.append(good, bad), 1e-2)


def test_nan_shift_is_off_the_grid():
    # the whole-array code indexed with a NaN cast to an integer
    sig, kern = _random_signal(False, 200, "zero", 8)
    with pytest.raises(RangeTooShort):
        tb.weak_star_verdict(sig, kern, [40.0, np.nan], 1e-2)


def test_errors_keep_their_order():
    # a heavy kernel that is also too wide reports its mass first
    sig, _ = _random_signal(False, 12, "zero", 9)
    heavy = DiscreteSignal(-8, np.full(17, 0.1), 0.1)
    _parity((tb.weak_star_verdict, sig, heavy, [np.nan], 1e-2),
            (_whole_weak_star, sig, heavy, [np.nan], 1e-2), ValueError)
    # a continuous kernel on discrete data fails before any shift is placed
    cont = gaussian_kernel_continuous(0.5, 1.0)
    _parity((tb.weak_star_verdict, sig, cont, [-50.0], 1e-2),
            (_whole_weak_star, sig, cont, [-50.0], 1e-2), TypeError)


def test_oscillation_modulus_counts_exactly_the_anchored_pairs():
    # two opposite spikes differ by 2 and by 1 from everything else, so
    # the modulus reads 2 exactly when the pair (a, b) is counted
    n = 16
    for continuous, first in ((False, -7), (False, -20), (False, 0), (True, -8),
                              (True, 3)):
        h = 0.25 if continuous else 1.0
        for a in range(n):
            for b in range(a + 1, min(n, a + 7)):
                vals = np.zeros(n)
                vals[a], vals[b] = 1.0, -1.0
                sig = ContinuousSignal(first * h, h, vals, 1.0) if continuous \
                    else DiscreteSignal(first, vals, 1.0)
                for lags in range(1, 7):
                    for T in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 8.0, 13.0, 30.0):
                        args = (sig, lags * h, T * h)
                        assert _outcome(tb.oscillation_modulus, *args) \
                            == _outcome(_whole_oscillation_modulus, *args), (a, b, args)


@pytest.mark.parametrize("unit", [1.0, 1j, 1 + 2j])
def test_tail_witness_follows_the_wider_part(unit):
    # an alternating tail along ``unit``: the witness names the positions of
    # the largest and smallest values of the part that spreads the most
    sig = ac.render_discrete(
        ac.Custom(tuple(unit * (-1) ** (n + 1) for n in range(4096))), 0, 4095)
    v = tb.ordinary_verdict(sig, 1e-2)
    assert v.status is VerdictStatus.NOT_ALMOST_CONVERGENT
    hi, lo = v.witness.shift_sup, v.witness.shift_inf
    assert hi != lo
    part = np.imag if abs(unit.imag) > abs(unit.real) else np.real
    assert part(sig.values[int(hi)]) == part(unit)
    assert part(sig.values[int(lo)]) == -part(unit)
