import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import almostconv as ac
from almostconv import signals
from almostconv.errors import AliasingError, DivergentSeries, UnsupportedPoint
from almostconv.signals import (
    BLOCK,
    _block_boundaries,
    _reduce_phase,
    _repeats_every_block,
    evaluate,
    evaluate_many,
    kind_of,
)


def test_character_zero_is_one_everywhere():
    assert evaluate(ac.Character(0.0), 3.7) == pytest.approx(1.0)


def test_character_quarter_at_one_is_i():
    assert evaluate(ac.Character(0.25), 1.0) == pytest.approx(1j)


def test_dirichlet_two_term_at_zero():
    # direct two-term oracle: 1*1^-2 + 1*2^-2
    oracle = sum(1.0 * n ** (-2.0) for n in (1, 2))
    assert oracle == 1.25
    assert evaluate(ac.DirichletLine((1, 1), 2.0), 0.0) == pytest.approx(1.25)


def test_dirichlet_below_abscissa_raises():
    with pytest.raises(DivergentSeries):
        evaluate(ac.DirichletLine((1, 1), 0.5), 0.0)
    with pytest.raises(DivergentSeries):
        ac.render_discrete(ac.DirichletLine((1, 1), 1.0), 0, 8)


def test_custom_has_no_closed_form():
    with pytest.raises(UnsupportedPoint):
        evaluate(ac.Custom((1.0, 2.0)), 0.5)


def test_render_alternating():
    sig = ac.render_discrete(ac.Character(0.5), 0, 3)
    assert np.allclose(sig.values, [1, -1, 1, -1])
    assert sig.n_min == 0 and sig.n_max == 3
    assert sig.bound == 1.0


def test_render_block_sequence_expansion():
    # blocks of lengths 1, 2, 4 carrying 0, 1, 0
    expected = [0, 1, 1, 0, 0, 0, 0]
    sig = ac.render_discrete(ac.BlockSequence(), 0, 6)
    assert np.allclose(sig.values, expected)


def test_render_partial_sums_cumsum_oracle():
    inner = [(-1.0) ** n for n in range(4)]
    oracle = np.cumsum(inner)
    sig = ac.render_discrete(ac.PartialSums(ac.Character(0.5)), 0, 3)
    assert np.allclose(sig.values, oracle)
    assert np.allclose(sig.values, [1, 0, 1, 0])


def test_partial_sums_increments_are_coefficients():
    spec = ac.PartialSums(ac.Character(1 / 3))
    sig = ac.render_discrete(spec, 0, 200)
    coeffs = evaluate_many(ac.Character(1 / 3), np.arange(201))
    increments = np.diff(sig.values)
    # differencing the cumulative sums recovers the coefficients up to
    # one rounding of the running sums
    scale = np.max(np.abs(sig.values))
    assert np.max(np.abs(increments - coeffs[1:])) <= 8 * np.finfo(float).eps * scale
    # the real parts of the alternating case are exactly +-1
    alt = ac.render_discrete(ac.PartialSums(ac.Character(0.5)), 0, 200)
    assert np.array_equal(np.diff(alt.values.real), [(-1.0) ** (n + 1) for n in range(200)])


def test_render_continuous_constant():
    sig = ac.render_continuous(ac.Character(0.0), 0.0, 0.5, 3)
    assert np.allclose(sig.samples, [1, 1, 1])
    assert sig.h == 0.5


def test_render_continuous_single_term_poly():
    sig = ac.render_continuous(ac.TrigPoly(((1.0, 0.25),)), 0.0, 0.1, 11)
    assert sig.samples[0] == pytest.approx(1.0)
    assert sig.samples[10] == pytest.approx(1j)  # x=1, quarter turn


def test_measure_transform_at_zero_sums_weights():
    spec = ac.MeasureTransform(((0.0, 0.3), (0.2, 0.7)))
    assert evaluate(spec, 0.0) == pytest.approx(1.0)


def test_measure_transform_density_trapezoid():
    dens = ac.Density(-0.1, 0.1, tuple([1.0] * 21))
    spec = ac.MeasureTransform((), density=dens)
    # at x=0 the transform integrates the density itself
    grid = np.linspace(-0.1, 0.1, 21)
    oracle = np.trapezoid(np.ones(21), grid)
    assert evaluate(spec, 0.0) == pytest.approx(oracle)


@given(lam=st.floats(-3, 3), x=st.floats(-50, 50), y=st.floats(-50, 50))
@settings(max_examples=200)
def test_character_multiplicativity(lam, x, y):
    cx = evaluate(ac.Character(lam), x)
    cy = evaluate(ac.Character(lam), y)
    cxy = evaluate(ac.Character(lam), x + y)
    assert abs(cxy - cx * cy) < 1e-12


@pytest.mark.parametrize("spec", [
    ac.Character(0.3),
    ac.TrigPoly(((0.5, 0.1), (0.25j, -0.2))),
    ac.DirichletLine((1, 2, 0.5), 1.5),
    ac.MeasureTransform(((0.0, 0.5), (0.1, 0.5j))),
    ac.BlockSequence((0.0, 1.0)),
    ac.Convergent(1.5, "power", 2.0, 0.5),
])
def test_rendered_values_respect_declared_bound(spec):
    sig = ac.render_discrete(spec, -64, 64)
    assert np.all(np.abs(sig.values) <= sig.bound * (1 + 1e-12) + 1e-12)


def test_aliasing_guard():
    with pytest.raises(AliasingError):
        ac.render_continuous(ac.Character(1.0), 0.0, 0.5, 10)
    # h * f = 0.1 passes
    ac.render_continuous(ac.Character(1.0), 0.0, 0.1, 10)


def test_bound_validation_rejects_lies():
    with pytest.raises(ValueError):
        ac.DiscreteSignal(0, [2.0, 0.0], bound=1.0)


def test_window_schedule_validation():
    with pytest.raises(ValueError):
        ac.WindowSchedule((4, 4, 8))
    with pytest.raises(ValueError):
        ac.WindowSchedule(())
    sched = ac.WindowSchedule.geometric(2, 16, 2)
    assert sched.lengths == (2, 4, 8, 16)


def test_shift_and_subtract_alignment():
    sig = ac.render_discrete(ac.Character(0.25), 0, 63)
    moved = sig.shifted(3)
    assert moved.value_at(0) == sig.value_at(3)
    diff = ac.signals.subtract(sig, moved)
    # psi - psi_3 = (1 - chi(3)) chi(n)
    factor = 1 - evaluate(ac.Character(0.25), 3.0)
    expect = factor * sig.values[: len(diff)]
    assert np.allclose(diff.values, expect)


def test_known_limits():
    assert ac.known_limit(ac.Character(0.0)) == 1.0
    assert ac.known_limit(ac.Character(0.25)) == 0.0
    assert ac.known_limit(ac.TrigPoly(((2.0, 0.0), (1.0, 0.5)))) == 2.0
    assert ac.known_limit(ac.DirichletLine((3.0, 1.0), 2.0)) == 3.0
    assert ac.known_limit(ac.MeasureTransform(((0.0, 0.3), (0.2, 0.7)))) == pytest.approx(0.3)
    assert ac.known_limit(ac.BlockSequence()) is None


def test_kernels_have_unit_mass():
    assert ac.signals.fejer_kernel(64).values.sum() == pytest.approx(1.0)
    assert ac.signals.gaussian_kernel(1.0).values.sum() == pytest.approx(1.0)
    k = ac.signals.gaussian_kernel_continuous(0.5, 0.25)
    assert np.trapezoid(k.values, dx=k.h) == pytest.approx(1.0)


def test_custom_render_roundtrip():
    spec = ac.Custom((1.0, 2.0, 3.0, 4.0), start=10.0)
    sig = ac.render_discrete(spec, 11, 12)
    assert np.allclose(sig.values, [2.0, 3.0])
    with pytest.raises(UnsupportedPoint):
        ac.render_discrete(spec, 9, 12)


def test_kind_names_cover_union():
    specs = [ac.Character(0.1), ac.TrigPoly(((1.0, 0.1),)),
             ac.DirichletLine((1,), 2.0), ac.MeasureTransform(()),
             ac.BlockSequence(), ac.PartialSums(ac.Character(0.0)),
             ac.Convergent(1.0), ac.Custom((1.0,))]
    assert len({kind_of(s) for s in specs}) == 8


# ---------------------------------------------------------------------------
# Block rendering keeps the bits of the whole-array formulas
# ---------------------------------------------------------------------------

def _whole_array_characters(freq, xs):
    return np.exp(2j * np.pi * np.mod(freq * xs, 1.0))


def _whole_array(spec, xs):
    """The whole-array formulas evaluate_many used before block rendering."""
    if isinstance(spec, ac.Character):
        return _whole_array_characters(spec.frequency, xs)
    if isinstance(spec, ac.TrigPoly):
        out = np.zeros(xs.shape, dtype=np.complex128)
        for c, f in spec.terms:
            out += c * _whole_array_characters(f, xs)
        return out
    if isinstance(spec, ac.DirichletLine):
        out = np.zeros(xs.shape, dtype=np.complex128)
        for n, a in enumerate(spec.coeffs, start=1):
            out += a * n ** (-spec.sigma) * _whole_array_characters(
                -math.log(n) / (2 * math.pi), xs)
        return out
    if isinstance(spec, ac.MeasureTransform):
        out = np.zeros(xs.shape, dtype=np.complex128)
        for f, w in spec.atoms:
            out += w * _whole_array_characters(f, xs)
        if spec.density is not None:
            grid = spec.density.grid()
            dens = np.asarray(spec.density.values, dtype=np.complex128)
            phases = np.exp(2j * np.pi * np.mod(np.outer(grid, xs), 1.0))
            out += np.trapezoid(dens[:, None] * phases, grid, axis=0)
        return out
    if isinstance(spec, ac.BlockSequence):
        ns = np.floor(xs).astype(np.int64)
        out = np.zeros(xs.shape, dtype=np.complex128)
        pos = ns >= 0
        if np.any(pos):
            ends = _block_boundaries(spec, int(ns[pos].max()))
            blocks = np.searchsorted(ends, ns[pos], side="right")
            syms = np.asarray(spec.symbols)
            out[pos] = syms[blocks % len(syms)]
        return out
    if isinstance(spec, ac.Convergent):
        a = np.abs(xs)
        if spec.decay == "exp":
            tail = np.exp(-spec.rate * a)
        else:
            tail = (1.0 + a) ** (-spec.rate)
        return spec.limit + spec.amplitude * tail
    raise TypeError(spec)


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.float64)


_POINTWISE_SPECS = [
    ac.Character(0.1234567),
    ac.TrigPoly(((0.7, 0.0), (0.3 - 0.4j, 1 / 3), (-0.2 + 0.9j, -0.0731))),
    ac.DirichletLine((1.0, 0.5 - 0.25j, -0.3j, 0.8 + 0.1j), 1.5),
    ac.MeasureTransform(((0.0, 0.3), (0.21, 0.2 - 0.5j)),
                        ac.Density(-0.05, 0.07,
                                   (1.0, 0.5j, -0.25, 0.3 + 0.3j, 0.1))),
    ac.BlockSequence((1 + 2j, -0.5, 3j), 1.7),
    ac.Convergent(0.3 - 0.2j, "exp", 0.01, 1.5 + 0.5j),
    ac.Convergent(2.0, "power", 0.7, -1.5 + 0.25j),
]


@pytest.mark.parametrize("spec", _POINTWISE_SPECS, ids=[
    "character", "trig_poly", "dirichlet_line", "measure_transform",
    "block_sequence", "convergent_exp", "convergent_power"])
def test_block_rendering_matches_whole_array_bits(spec):
    # whole-array sizes of 2^14 points and more, where NumPy elides the
    # temporaries; blocks end mid-array, on one point, and on a boundary
    for n in (BLOCK, BLOCK + 1, 3 * BLOCK + 7, 2 ** 17):
        grids = [np.arange(-70000, n - 70000), np.arange(1234, n + 1234),
                 -5.5 + 0.0137 * np.arange(n), 3.25 + 0.0137 * np.arange(n)]
        for xs in grids:
            xs = xs.astype(np.float64)
            got = evaluate_many(spec, xs)
            assert np.array_equal(_bits(got), _bits(_whole_array(spec, xs))), \
                (n, xs[0])


@pytest.mark.parametrize("spec", [
    ac.TrigPoly(((0.7, 0.0), (0.3 - 0.4j, 1 / 3), (-0.2 + 0.9j, -0.0731))),
    ac.DirichletLine((1.0, 0.5 - 0.25j, -0.3j, 0.8 + 0.1j), 1.5),
], ids=kind_of)
def test_sample_bits_do_not_depend_on_render_length(spec):
    short = ac.render_discrete(spec, 0, 99).values
    long = ac.render_discrete(spec, 0, 2 ** 15 - 1).values
    assert np.array_equal(_bits(short), _bits(long[:100]))
    assert np.array_equal(_bits([evaluate(spec, 77.0)]), _bits(long[77:78]))


def test_reduce_phase_matches_np_mod_bitwise():
    rng = np.random.default_rng(20230104)
    scales = 10.0 ** np.arange(-3, 18)
    edges = [0.0, -0.0, 2.0 ** 52, -2.0 ** 52, 2.0 ** 52 - 0.5,
             -(2.0 ** 52 - 0.5), 2.0 ** 53 + 2, 5e-324, -5e-324,
             2.2250738585072014e-308, -1e-310, 1 - 2 ** -53, -(1 - 2 ** -53),
             -1e-17, 1.7976931348623157e308, -1.7976931348623157e308,
             np.inf, -np.inf, np.nan]
    t = np.concatenate([rng.uniform(-1.0, 1.0, 100_000) * s for s in scales]
                       + [np.asarray(edges)])
    with np.errstate(invalid="ignore"):
        want = np.mod(t, 1.0)
        got = _reduce_phase(t.copy(), np.empty_like(t))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_density_render_memory_stays_bounded():
    spec = ac.MeasureTransform((), ac.Density(-0.01, 0.01, tuple([1.0] * 64)))
    tracemalloc.start()
    try:
        ac.render_discrete(spec, 0, 2 ** 17 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2 ** 20


def test_concurrent_renders_match_serial_ones():
    specs = _POINTWISE_SPECS[:4]
    xs = np.arange(5 * BLOCK + 3, dtype=np.float64) - 1000.0
    want = [_bits(evaluate_many(s, xs)) for s in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # more callers than cores, all sharing the render pool
        with ThreadPoolExecutor(max_workers=8) as callers:
            futures = [callers.submit(evaluate_many, specs[i % 4], xs)
                       for i in range(16)]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, values in enumerate(got):
        assert np.array_equal(_bits(values), want[i % 4])


def _render_several_blocks():
    ac.render_discrete(ac.TrigPoly(((1.0, 0.1), (0.5j, 0.3))), 0, 4 * BLOCK)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_can_render():
    _render_several_blocks()  # the parent's pool threads now exist
    child = multiprocessing.get_context("fork").Process(
        target=_render_several_blocks)
    child.start()
    child.join(timeout=120)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


def test_import_starts_no_thread():
    code = ("import sys, threading, almostconv; "
            "print(threading.active_count(), "
            "'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1", "False"]


@pytest.mark.parametrize("args", [(4, math.inf, 2), (4, math.nan, 2),
                                  (math.nan, 256, 2), (4, 256, math.inf),
                                  (4, 256, math.nan)])
def test_geometric_schedule_rejects_non_finite_arguments(args):
    # an infinite k_max used to append inf forever until memory ran out
    with pytest.raises(ValueError):
        ac.WindowSchedule.geometric(*args)


def test_plain_sum_signals_live_on_the_integers():
    # a window mean divides by width * step, which counts samples only at
    # step 1; a discrete start must stay an integer index
    with pytest.raises(ValueError):
        ac.signals.Signal(0, 0.5, [1.0], 1.0)
    with pytest.raises(ValueError):
        ac.DiscreteSignal(0.5, [1.0], 1.0)
    with pytest.raises(ValueError):
        ac.DiscreteSignal(0, [1.0, 2.0], 2.0).shifted(0.5)
    assert type(ac.DiscreteSignal(2.0, [1.0], 1.0).n_min) is int


# ---------------------------------------------------------------------------
# Periodic character sums are rendered over one block and tiled
# ---------------------------------------------------------------------------

def _grid_bits(spec, start, step, count):
    """Bits of the untiled render: every grid point through evaluate_many."""
    return evaluate_many(spec, start + step * np.arange(count)).view(np.uint64)


def _render_bits(spec, start, step, count):
    if step == 1.0:
        signal = ac.render_discrete(spec, start, start + count - 1)
    else:
        signal = ac.render_continuous(spec, start, step, count)
    return signal.values.view(np.uint64)


_DYADIC_FREQS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5]),
    st.integers(0, 14).flatmap(
        lambda k: st.integers(-2 ** k, 2 ** k).map(lambda j: j / 2 ** k)))
_COEFFS = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                             allow_infinity=False)


@st.composite
def _character_sums(draw):
    terms = draw(st.lists(st.tuples(_COEFFS, _DYADIC_FREQS), min_size=1,
                          max_size=4))
    kind = draw(st.sampled_from(["character", "trig_poly", "measure"]))
    if kind == "character":
        return ac.Character(terms[0][1])
    if kind == "trig_poly":
        return ac.TrigPoly(terms)
    return ac.MeasureTransform(tuple((f, c) for c, f in terms))


@settings(max_examples=40, deadline=None)
@given(spec=_character_sums(), discrete=st.booleans(),
       start=st.integers(-100_000, 100_000), shift=st.integers(0, 10),
       count=st.sampled_from([BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1,
                              3 * BLOCK + 7, 20_000, 70_001]))
def test_tiled_renders_keep_every_bit(spec, discrete, start, shift, count):
    if discrete:
        step = 1.0
    else:
        # dyadic steps under the aliasing guard for |f| <= 1
        step = 2.0 ** -(4 + shift % 5)
        start = start * 2.0 ** -shift
    assert np.array_equal(_render_bits(spec, start, step, count),
                          _grid_bits(spec, start, step, count))


_SCAN_POLY = ac.TrigPoly(((0.7, 0.0), (0.3 - 0.4j, 5 / 64), (0.2j, -1 / 2)))


@pytest.mark.parametrize("spec, start, step, count", [
    (_SCAN_POLY, 0, 1.0, 2 ** 18),
    (_SCAN_POLY, -70_001, 1.0, 3 * BLOCK + 7),
    (ac.Character(-0.5), 5, 1.0, BLOCK + 1),
    (ac.MeasureTransform(((0.0, 0.3), (1 / 16, 0.35))), -2048.0, 1 / 16, 70_001),
    (ac.MeasureTransform(()), 0, 1.0, BLOCK + 1),
    # one coefficient: the frequency -log(1)/(2*pi) is -0.0
    (ac.DirichletLine((0.5 - 0.25j,), 2.0), -3, 1.0, 70_001),
])
def test_periodic_character_sums_tile(spec, start, step, count):
    assert _repeats_every_block(spec, start, step, count)
    assert np.array_equal(_render_bits(spec, start, step, count),
                          _grid_bits(spec, start, step, count))


@pytest.mark.parametrize("spec, start, step, count", [
    # the grid points are not dyadic
    (ac.Character(1 / 64), 0.0, 0.1, 20_000),
    # f*x needs more than 53 bits near the end of the grid
    (ac.Character(3 / 64), 2 ** 53 - 20_000, 1.0, 20_000),
    # f*step*BLOCK is not an integer
    (ac.Character(1 / 2 ** 15), 0, 1.0, 20_000),
    (ac.TrigPoly(((1.0, 0.25), (0.5, 3 / 2 ** 20))), -7, 1.0, 20_000),
    (ac.TrigPoly(((1.0, 1 / 64),)), 0.0, 1 / 2 ** 10, 20_000),
    # not a sum of characters with dyadic frequencies
    (ac.DirichletLine((1.0, 0.5), 2.0), 0, 1.0, 20_000),
    (ac.MeasureTransform(((0.0, 0.3),), ac.Density(-0.01, 0.01, (1.0, 0.5))),
     0, 1.0, 20_000),
    # one block or less
    (ac.Character(0.5), 0, 1.0, BLOCK),
])
def test_renders_that_cannot_tile_keep_every_bit(spec, start, step, count):
    assert not _repeats_every_block(spec, start, step, count)
    assert np.array_equal(_render_bits(spec, start, step, count),
                          _grid_bits(spec, start, step, count))


@pytest.mark.parametrize("freq, start", [
    (0.5, 2 ** 53),         # x = 2^53 + 1 is not a float
    (3 / 64, 2 ** 52),      # f*x = 3*(2^52 + 1)/64 is not a float
])
def test_exactness_is_checked_between_the_ends(freq, start):
    # both ends of the grid and their products with f are floats; an odd
    # x in between needs one more bit
    count = 20_001
    for x in (start, start + count - 1):
        assert float(x) == x and Fraction(freq * x) == Fraction(freq) * x
    assert not _repeats_every_block(ac.Character(freq), start, 1.0, count)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grid_that_overflows_is_not_tiled():
    # with f = 0 only the grid points themselves can fail: past 1.8e308
    # they are inf, and 0*inf is NaN
    spec = ac.Character(0.0)
    assert not _repeats_every_block(spec, 1e308, 1e306, BLOCK + 1)
    with pytest.raises(ValueError, match="finite"):
        ac.render_continuous(spec, 1e308, 1e306, BLOCK + 1)


def test_tiled_render_evaluates_one_block_per_term(monkeypatch):
    seen = []
    unit_phases = signals._unit_phases

    def spy(freq, x, z, t):
        seen.append(len(x))
        unit_phases(freq, x, z, t)

    monkeypatch.setattr(signals, "_unit_phases", spy)
    ac.render_discrete(_SCAN_POLY, -1000, 2 ** 18 - 1001)
    assert seen == [BLOCK] * len(_SCAN_POLY.terms)


@pytest.mark.parametrize("build", [
    lambda bad: ac.Character(bad),
    lambda bad: ac.TrigPoly(((1.0, 0.25), (1.0, bad))),
    lambda bad: ac.MeasureTransform(((0.0, 1.0), (bad, 0.5))),
    lambda bad: ac.Density(bad, 0.5, (1.0, 1.0)),
    lambda bad: ac.Density(-0.5, bad, (1.0, 1.0)),
])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_specs_reject_non_finite_frequencies(build, bad):
    with pytest.raises(ValueError, match="frequency must be finite"):
        build(bad)
