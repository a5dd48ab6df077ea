import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import almostconv as ac
from almostconv import signals
from almostconv.errors import AliasingError, ConfigError, DivergentSeries, UnsupportedPoint
from almostconv.signals import (
    BLOCK,
    _block_boundaries,
    _reduce_phase,
    evaluate,
    evaluate_many,
    kind_of,
)

from conftest import fejer_kernel


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
    # 2**2000 leaves the float range; the divergence is still what is reported
    far = ac.DirichletLine((1, 1), -2000.0)
    with pytest.raises(DivergentSeries):
        ac.render_continuous(far, 0.0, 0.05, 2 * BLOCK)
    assert signals.max_frequency(far) == math.log(2) / (2 * math.pi)
    assert ac.known_limit(far) == 1.0


def test_dirichlet_bound_sums_abs_coefficient_times_weight():
    # |a| * n**-sigma, not |a * n**-sigma|: the two differ in the last bit
    # here, and the bound is written to every rendered file's metadata
    line = ac.DirichletLine((1.0, 0.3 + 0.1j, 0.3 + 3j), 1.3)
    assert signals.declared_bound(line) == 1.8512386435460488


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


@pytest.mark.parametrize("build, message", [
    # the finite check comes before the bound's own check ...
    (lambda: ac.DiscreteSignal(0, [1.0, math.nan], -1.0),
     "signal values must be finite"),
    # ... and before the grid check
    (lambda: ac.DiscreteSignal(2 ** 53 - 1, [1.0, complex(0.0, math.nan), 2.0], 5.0),
     "signal values must be finite"),
    (lambda: ac.DiscreteSignal(2 ** 53 - 1, [1.0, 1.0, 2.0], 5.0),
     "integer grid positions must lie within"),
    # finite parts whose modulus overflows are a bound violation
    (lambda: ac.ContinuousSignal(0.0, 0.5, [1.5e308 + 1.5e308j], 1e308),
     r"\|values\| reach inf above declared bound 1e\+308"),
], ids=["nan_negative_bound", "nan_past_2_53", "grid_past_2_53", "modulus_overflow"])
def test_signal_validation_messages_and_order(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


@pytest.mark.parametrize("continuous", [False, True], ids=["Z", "R"])
def test_derived_bounds_that_overflow_are_capped(continuous):
    # bounds of 1e308 add and multiply past the float range, though every
    # value stays far inside it
    vals = np.arange(6.0) - 2.5
    sig = (ac.ContinuousSignal(0.0, 0.5, vals, 1e308) if continuous
           else ac.DiscreteSignal(0, vals, 1e308))
    diff = ac.signals.subtract(sig, sig.shifted(sig.step))
    assert diff.bound == sys.float_info.max
    assert diff.values.tolist() == [-1.0] * 5
    tripled = ac.signals.scaled(sig, 3.0)
    assert tripled.bound == sys.float_info.max
    assert tripled.values.tolist() == (3 * vals).tolist()
    # a bound that does not overflow is kept as it is
    assert ac.signals.scaled(sig, 0.5).bound == 0.5e308


def test_capped_bound_still_refuses_a_modulus_that_overflows():
    sig = ac.DiscreteSignal(0, [1e308 + 1e308j], 1.5e308)
    with pytest.raises(ValueError, match=r"\|values\| reach inf above declared bound "
                                         r"1\.7976931348623157e\+308"):
        ac.signals.scaled(sig, 1.3)
    with pytest.raises(ValueError, match=r"\|values\| reach inf"):
        ac.DiscreteSignal(0, [1.3e308 + 1.3e308j], sys.float_info.max)


def test_known_limits():
    assert ac.known_limit(ac.Character(0.0)) == 1.0
    assert ac.known_limit(ac.Character(0.25)) == 0.0
    assert ac.known_limit(ac.TrigPoly(((2.0, 0.0), (1.0, 0.5)))) == 2.0
    assert ac.known_limit(ac.DirichletLine((3.0, 1.0), 2.0)) == 3.0
    assert ac.known_limit(ac.MeasureTransform(((0.0, 0.3), (0.2, 0.7)))) == pytest.approx(0.3)
    assert ac.known_limit(ac.BlockSequence()) is None


def test_kernels_have_unit_mass():
    assert fejer_kernel(64).values.sum() == pytest.approx(1.0)
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
            ends = _block_boundaries(spec, int(ns[pos].max()), xs.size)
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
    # temporaries; blocks end mid-array, on one point, and on a boundary;
    # and points in no order, of both signs, with -0.0 among them
    for n in (BLOCK, BLOCK + 1, 3 * BLOCK + 7, 2 ** 17):
        mixed = np.random.default_rng(n).permutation(
            0.37 * np.arange(-(n // 2), n - n // 2))
        mixed[mixed == 0.0] = -0.0
        grids = [np.arange(-70000, n - 70000), np.arange(1234, n + 1234),
                 -5.5 + 0.0137 * np.arange(n), 3.25 + 0.0137 * np.arange(n), mixed]
        for xs in grids:
            xs = xs.astype(np.float64)
            got = evaluate_many(spec, xs)
            assert np.array_equal(_bits(got), _bits(_whole_array(spec, xs))), \
                (n, xs[0])


def _rendered_block_bits(spec, start, step, count):
    """A block sequence rendered on a grid, and the whole-array bits there."""
    if step is None:
        values = ac.render_discrete(spec, start, start + count - 1).values
        xs = np.arange(start, start + count).astype(np.float64)
    else:
        values = ac.render_continuous(spec, start, step, count).values
        xs = start + step * np.arange(count)
    return _bits(values), _bits(_whole_array(spec, xs))


@pytest.mark.parametrize("growth", [1.0001, 1.01, 1.7, 2.0, 7.0])
def test_block_sequence_grid_renders_match_whole_array_bits(growth):
    # filled run by run: the same grids and sizes as the per-point test,
    # and two grids whose points fall between the block ends (every end
    # below ~4,000 is a block end at growth 1.0001)
    spec = ac.BlockSequence((1 + 2j, -0.5, complex(-0.0, 3.0)), growth)
    for n in (BLOCK, BLOCK + 1, 3 * BLOCK + 7, 2 ** 17):
        for start, step in ((-70000, None), (1234, None), (-5.5, 0.0137),
                            (3.25, 0.0137), (-3.3, 0.3), (0.0, 0.7)):
            got, want = _rendered_block_bits(spec, start, step, n)
            assert np.array_equal(got, want), (n, start)


@settings(max_examples=150, deadline=None)
@given(discrete=st.booleans(), start=st.floats(-1e5, 1e5),
       step=st.floats(1e-3, 50.0), growth=st.floats(1.0005, 9.0),
       symbols=st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                           allow_infinity=False),
                        min_size=1, max_size=4),
       count=st.integers(1, 3 * BLOCK))
def test_block_sequence_grid_renders_keep_every_bit(discrete, start, step, growth,
                                                    symbols, count):
    spec = ac.BlockSequence(tuple(symbols), growth)
    got, want = _rendered_block_bits(spec, math.floor(start) if discrete else start,
                                     None if discrete else step, count)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("start, step, count", [
    (1 - 1e-14, 1e-17, 4000),  # many grid points round to each float
    (2 ** 53 - 50, None, 51),  # the block end past 2**53 is not a float
])
def test_block_sequence_grids_finer_than_floats_or_up_to_2_53_keep_every_bit(
        start, step, count):
    spec = ac.BlockSequence((1.0, 2.0, 3j), 1.5)
    got, want = _rendered_block_bits(spec, start, step, count)
    assert np.array_equal(got, want)


def test_block_sequence_positions_past_2_53_are_refused():
    # the per-point path cast floor(x) to int64, which wraps past 2**63:
    # both used to return zeros
    spec = ac.BlockSequence((1.0, 2.0))
    with pytest.raises(ConfigError, match=r"must not pass 2\*\*53"):
        ac.render_continuous(spec, 1e19, 1e17, 5)
    with pytest.raises(ConfigError, match=r"must not pass 2\*\*53"):
        evaluate(spec, 1e19)
    # below 0 every block sequence is 0, however far out
    assert evaluate(spec, -1e19) == 0


# 40 terms: two passes of a turned render's tables
_DIRICHLET_40 = ac.DirichletLine(tuple(complex(1.0, (-1) ** n / n) for n in range(1, 41)),
                                 2.0)


@pytest.mark.parametrize("spec, start, step, counts", [
    (ac.TrigPoly(((0.7, 0.0), (0.3 - 0.4j, 1 / 3), (-0.2 + 0.9j, -0.0731))),
     0, 1.0, (100, BLOCK + 1, 3 * BLOCK + 7, 2 ** 17)),
    (ac.DirichletLine((1.0, 0.5 - 0.25j, -0.3j, 0.8 + 0.1j), 1.5),
     0, 1.0, (100, BLOCK + 1, 3 * BLOCK + 7, 2 ** 17)),
    # its later pass is added as 4, 5, 4 + 5 and 4 + 4 + 2 block rows
    (_DIRICHLET_40, -5, 1.0, (100, 4 * BLOCK, 5 * BLOCK, 9 * BLOCK, 10 * BLOCK)),
    # every phase is exact over 2**15 points; past 2**52 the grid rounds
    (ac.Character(2 ** -16), 2 ** 52 - 2 ** 15, 0.5, (100, 2 ** 15, 2 ** 17)),
], ids=["trig_poly", "dirichlet_line", "dirichlet_two_passes", "character"])
def test_sample_bits_do_not_depend_on_render_length(spec, start, step, counts):
    # a render of one block or less has the per-point bits; longer ones
    # are turned, and each is a prefix of the next
    short, *turned = (_render_bits(spec, start, step, n) for n in counts)
    sample = np.array([evaluate(spec, start + 77 * step)])
    assert np.array_equal(sample.view(np.uint64), short[154:156])
    for head, longer in zip(turned, turned[1:]):
        assert np.array_equal(head, longer[:len(head)])


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


def test_turned_render_tables_stay_within_8_mib():
    # 2,000 terms would take 500 MiB of tables over one block at once
    spec = ac.DirichletLine(tuple(complex(1.0, (-1) ** n / n) for n in range(1, 2001)),
                            2.0)
    tracemalloc.start()
    try:
        values = ac.render_discrete(spec, 0, 3 * BLOCK + 6).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beside the output and 8 MiB of tables, a few blocks: the output's
    # last block, the phases, four block rows of a product, the term lists
    assert peak <= values.nbytes + 2 ** 23 + 10 * BLOCK * 16


_RENDER_SHA = ("import hashlib, almostconv as ac; "
               "spec = ac.DirichletLine(tuple(complex(1.0, (-1) ** n / n) "
               "for n in range(1, 51)), 2.0); "
               "values = ac.render_continuous(spec, 0.0, 0.1, 2 ** 17).values; "
               "print(hashlib.sha256(values.tobytes()).hexdigest())")


def test_turned_render_bits_do_not_depend_on_blas_threads():
    # the matrix product of a 50-term render, on one BLAS thread and on two
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        digests.append(subprocess.run(
            [sys.executable, "-c", _RENDER_SHA], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def test_concurrent_renders_match_serial_ones():
    specs = _POINTWISE_SPECS[:4]
    xs = np.arange(5 * BLOCK + 3, dtype=np.float64) - 1000.0
    jobs = [partial(evaluate_many, s, xs) for s in specs]
    # a rounded-phase render: one matrix product on the BLAS threads
    jobs.append(lambda: ac.render_continuous(specs[2], -3.0, 0.1, 5 * BLOCK + 3).values)
    want = [_bits(job()) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # more callers than cores, each rendering in its own thread
        with ThreadPoolExecutor(max_workers=8) as callers:
            futures = [callers.submit(jobs[i % len(jobs)]) for i in range(20)]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, values in enumerate(got):
        assert np.array_equal(_bits(values), want[i % len(jobs)])


def _render_several_blocks():
    ac.render_discrete(ac.TrigPoly(((1.0, 0.1), (0.5j, 0.3))), 0, 4 * BLOCK)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_can_render():
    _render_several_blocks()  # the parent's BLAS threads now exist
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
    # nor does a render of five blocks or a Laplace sweep over three
    code = ("import sys, threading, numpy as np, almostconv as ac; "
            "print(threading.active_count(), "
            "'concurrent.futures' in sys.modules); "
            f"ac.signals.evaluate_many(ac.Convergent(2.0), np.arange({5 * BLOCK}.0)); "
            "ac.laplace_sweep(ac.render_continuous(ac.Convergent(2.0), 0.0, 0.25, "
            f"{2 * BLOCK + 3}), (0.05, 0.025, 0.0125)); "
            "print(threading.active_count())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1", "False", "1"]


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


@pytest.mark.parametrize("render, message", [
    # these used to render 3 and 12 samples
    (lambda spec: ac.render_continuous(spec, 0, 0.1, 2.5), "count"),
    (lambda spec: ac.render_discrete(spec, 0, 10.5), "n_max"),
    (lambda spec: ac.render_discrete(spec, -0.5, 10), "n_min"),
    (lambda spec: ac.render_continuous(spec, 0, 0.1, math.nan), "count"),
], ids=["count", "n_max", "n_min", "count_nan"])
def test_render_counts_and_ends_are_whole_numbers(render, message):
    with pytest.raises(ConfigError, match=f"{message} must be a whole number"):
        render(ac.Convergent(1.0))


def test_whole_float_counts_render_as_ints_do():
    spec = ac.TrigPoly(((0.5, 0.01), (0.25j, -0.03)))
    assert np.array_equal(
        _bits(ac.render_continuous(spec, 0.5, 0.1, 20000.0).values),
        _bits(ac.render_continuous(spec, 0.5, 0.1, 20000).values))
    assert np.array_equal(_bits(ac.render_discrete(spec, -3.0, 19996.0).values),
                          _bits(ac.render_discrete(spec, -3, 19996).values))


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


def _turned(spec, step, count):
    """Whether the render is block-turned and not tiled: a sum of characters
    with no density over more than BLOCK points, one of whose whole-block
    turns ``f*step*BLOCK`` is not a whole number."""
    return (count > BLOCK and getattr(spec, "density", None) is None
            and any((Fraction(f) * Fraction(step) * BLOCK).denominator != 1
                    for _, f in signals._character_terms(spec)))


def _assert_render_contract(spec, start, step, count):
    """Tiled and per-point renders have the per-point bits; a turned one
    meets the rounding bound at every sample."""
    bits = _render_bits(spec, start, step, count)
    if _turned(spec, step, count):
        _assert_rounded_render(spec, start, step, count, bits.view(np.complex128))
    else:
        assert np.array_equal(bits, _grid_bits(spec, start, step, count))


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
    _assert_render_contract(spec, start, step, count)


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
    bits = _render_bits(spec, start, step, count)
    # two words per sample: the render repeats every BLOCK samples
    assert np.array_equal(bits[2 * BLOCK:], bits[:-2 * BLOCK])
    assert np.array_equal(bits, _grid_bits(spec, start, step, count))


@pytest.mark.parametrize("spec, start, step, count", [
    # the grid points are not dyadic
    (ac.Character(1 / 64), 0.0, 0.1, 20_000),
    # f*x needs more than 53 bits near the end of the grid, but rounds
    # alike in every block, so its zero turns tile the per-point bits
    (ac.Character(3 / 64), 2 ** 53 - 20_000, 1.0, 20_000),
    # f*step*BLOCK is not an integer: exact phases, turned
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
    # A turned render (a non-dyadic grid, a Dirichlet line, a turn that is
    # not whole) is a matrix product of exact turns and rounded phases,
    # and meets the rounding bound at every sample.
    _assert_render_contract(spec, start, step, count)


@pytest.mark.parametrize("freq, start", [
    (0.5, 2 ** 53),         # x = 2^53 + 1 is not a float
    (3 / 64, 2 ** 52),      # f*x = 3*(2^52 + 1)/64 is not a float
])
def test_exactness_is_checked_between_the_ends(freq, start):
    # both ends of the grid and their products with f are floats; an odd
    # x in between needs one more bit.  No render relies on exact phases:
    # an integer grid past 2**53 is refused, and any other meets the
    # render contract at the float grid points.
    count = 20_001
    for x in (start, start + count - 1):
        assert float(x) == x and Fraction(freq * x) == Fraction(freq) * x
    spec = ac.Character(freq)
    if start + count - 1 > 2 ** 53:
        with pytest.raises(ConfigError, match="within"):
            ac.render_discrete(spec, start, start + count - 1)
    else:
        _assert_render_contract(spec, start, 1.0, count)


@pytest.mark.parametrize("n_min, n_max", [
    (2 ** 53 - 10, 2 ** 53 + 2 ** 14),
    (-2 ** 53 - 1, -2 ** 53 + 5),
])
def test_integer_grid_past_2_53_is_refused_before_rendering(monkeypatch, n_min, n_max):
    rendered, grid_values = [], signals._grid_values

    def spy(*args):
        rendered.append(args)
        return grid_values(*args)

    monkeypatch.setattr(signals, "_grid_values", spy)
    with pytest.raises(ConfigError, match=r"within \+-2\*\*53"):
        ac.render_discrete(ac.Convergent(1.0), n_min, n_max)
    assert rendered == []


def test_grid_that_overflows_is_not_tiled():
    # with f = 0 only the grid points themselves can fail: past 1.8e308
    # they are inf, which a tiled first block does not see, so the grid
    # end is checked before rendering
    with pytest.raises(ConfigError, match="grid end .* must be finite"):
        ac.render_continuous(ac.Character(0.0), 1e308, 1e306, BLOCK + 1)


def test_tiled_render_evaluates_one_block_per_term(monkeypatch):
    seen, turned = [], []
    unit_phases, turns = signals._unit_phases, signals._turns

    def spy_phases(freq, x, z, t):
        seen.append(len(x))
        unit_phases(freq, x, z, t)

    def spy_turns(ratios, steps):
        turned.append(steps)
        return turns(ratios, steps)

    monkeypatch.setattr(signals, "_unit_phases", spy_phases)
    monkeypatch.setattr(signals, "_turns", spy_turns)
    for spec, start, step in [(_SCAN_POLY, -1000, 1.0),
                              # rounded phases whose whole-block turns are 0
                              (ac.Character(1 / 64), 0.1, 1 / 16)]:
        seen.clear()
        _render_bits(spec, start, step, 2 ** 18)
        assert seen == [BLOCK] * len(signals._character_terms(spec))
    assert turned == []


# ---------------------------------------------------------------------------
# Rounded-phase character sums: tables of exact turns times 512 phases per
# term, one matrix product with a factor per term per block
# ---------------------------------------------------------------------------

_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _reference(spec, xs):
    """The sum of characters at the float grid points, in long double."""
    x = xs.astype(np.longdouble)
    out = np.zeros(len(xs), dtype=np.clongdouble)
    for c, f in signals._character_terms(spec):
        t = np.longdouble(f) * x
        out += np.clongdouble(c) * np.exp(1j * _TWO_PI * (t - np.floor(t)))
    return out


def _assert_rounded_render(spec, start, step, count, values):
    xs = start + step * np.arange(count)
    # every sample, the first block's among them:
    # sum (|c| * (8*pi*|f|*max|x| + 16*pi) * u + 8 * 2**-1074), u = 2**-53:
    # products of subnormals round in absolute steps of 2**-1074
    u, top = 2.0 ** -53, float(np.max(np.abs(xs)))
    bound = sum(abs(c) * (8 * math.pi * abs(f) * top + 16 * math.pi) * u
                + 8 * 2.0 ** -1074 for c, f in signals._character_terms(spec))
    assert float(np.max(np.abs(values - _reference(spec, xs)))) <= bound


@st.composite
def _rounded_sums(draw):
    """A sum of characters on a grid whose phases f*x_j are rounded."""
    discrete = draw(st.booleans())
    if discrete:
        start, step, top = draw(st.integers(-10 ** 5, 10 ** 5)), 1.0, 0.5
    else:
        # under the aliasing guard, |f|*step <= 0.1
        start = draw(st.floats(-1e5, 1e5))
        step, top = draw(st.floats(1e-3, 1.0, exclude_max=True)), 0.1
    freqs = st.floats(-top, top).map(lambda v: v / step)
    terms = draw(st.lists(st.tuples(_COEFFS, freqs), min_size=1, max_size=4))
    return ac.TrigPoly(terms), start, step


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an extended long double")
@settings(max_examples=30, deadline=None)
@given(case=_rounded_sums(),
       count=st.sampled_from([BLOCK + 1, 3 * BLOCK + 7, 70_001]))
# a subnormal coefficient: the error, 5e-324, is all absolute
@example(case=(ac.TrigPoly(((2.2250738585e-313 + 0j, 0.03125),)), 0.0, 0.5),
         count=BLOCK + 1)
def test_rounded_phase_renders_meet_the_rounding_bound(case, count):
    spec, start, step = case
    values = _render_bits(spec, start, step, count).view(np.complex128)
    _assert_rounded_render(spec, start, step, count, values)
    short = _render_bits(spec, start, step, 2 ** 15)
    assert np.array_equal(short, _render_bits(spec, start, step, 2 ** 17)[:len(short)])


def test_rounded_phase_render_turns_one_block_per_term(monkeypatch):
    seen, turned = [], []
    unit_phases, turns = signals._unit_phases, signals._turns

    def spy_phases(freq, x, z, t):
        seen.append(len(x))
        unit_phases(freq, x, z, t)

    def spy_turns(ratios, steps):
        out = turns(ratios, steps)
        turned.append((list(steps), out.shape))
        return out

    monkeypatch.setattr(signals, "_unit_phases", spy_phases)
    monkeypatch.setattr(signals, "_turns", spy_turns)
    table, factors = list(range(0, BLOCK, 512)), list(range(0, 6 * BLOCK, BLOCK))
    spec = _POINTWISE_SPECS[2]
    ac.render_continuous(spec, -3.0, 0.1, 5 * BLOCK + 3)
    # 512 phases per term; per term, 32 exact turns for its table and one
    # for its factor in each block
    assert seen == [512] * len(spec.coeffs)
    assert turned == [(table, (32, 4)), (factors, (6, 4))]
    # 40 terms: the same for each pass of 32 terms and 8 terms
    seen.clear()
    turned.clear()
    ac.render_discrete(_DIRICHLET_40, 0, 6 * BLOCK - 1)
    assert seen == [512] * 40
    assert turned == [(table, (32, 32)), (factors, (6, 32)),
                      (table, (32, 8)), (factors, (6, 8))]


def test_realigned_rounded_phases_stay_within_the_declared_bound():
    # at every multiple of 10 the three characters meet at 1, where the
    # sum reaches its declared bound; no later block may round above it
    spec = ac.TrigPoly(((0.5, 0.1), (0.3, 0.2), (0.2, 0.3)))
    values = ac.render_discrete(spec, 0, 2 ** 20 - 1).values
    _assert_rounded_render(spec, 0, 1.0, 2 ** 20, values)
    assert abs(values[10 * 99_999] - 1.0) < 1e-9


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


@pytest.mark.parametrize("freq", [0.0, -0.0])
def test_zero_frequency_phases_equal_the_exponentials_bitwise(freq):
    # grids that straddle 0, with signed zeros and extreme finite points
    x = np.concatenate([np.arange(-3000, 3000) * 0.37, np.arange(-50, 50),
                        [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]])
    t = x * freq
    want = np.exp(_reduce_phase(t, np.empty_like(t)) * (2j * np.pi))
    got = np.empty_like(want)
    signals._unit_phases(freq, x, got, np.empty_like(x))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(got == 1.0)
