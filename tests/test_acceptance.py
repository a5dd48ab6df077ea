"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np
import pytest

import almostconv as ac
from almostconv import cesaro, cyclic, spectral, tauberian as tb
from almostconv.signals import (
    DiscreteSignal,
    Sidedness,
    WindowSchedule,
)

from conftest import convolution_invariance_residual, fejer_kernel

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_alternating_exact_cancelation():
    t0 = time.perf_counter()
    sig = ac.render_discrete(ac.Character(0.5), 0, 2 ** 16)
    sched = WindowSchedule.geometric(2, 2 ** 10, 2, ONE)
    verdict = cesaro.ac_verdict(cesaro.cesaro_sweep(sig, sched), 1e-6)
    elapsed = time.perf_counter() - t0
    ok = (verdict.positive and abs(verdict.limit) <= 1e-12
          and verdict.uncertainty <= 1e-12 and elapsed < 2.0)
    report(1, ok, f"alternating: status={verdict.status.value} "
                  f"|limit|={abs(verdict.limit):.2e} "
                  f"uncertainty={verdict.uncertainty:.2e} time={elapsed:.2f}s")


def test_criterion_02_block_sequence_divergence():
    t0 = time.perf_counter()
    sig = ac.render_discrete(ac.BlockSequence(), 0, 2 ** 20)
    sched = WindowSchedule.geometric(2, 256, 2, TWO)
    verdict = cesaro.ac_verdict(cesaro.cesaro_sweep(sig, sched), 1e-2)
    elapsed = time.perf_counter() - t0
    gap = verdict.witness[3] if verdict.witness else 0.0
    ok = verdict.negative and gap >= 0.98 and elapsed < 10.0
    report(2, ok, f"blocks: status={verdict.status.value} witness_gap={gap:.3f} "
                  f"time={elapsed:.2f}s")


def test_criterion_03_character_cross_route():
    sig = ac.render_discrete(ac.Character(1 / 7), -2 ** 14, 2 ** 14)
    v_win = cesaro.ac_verdict(
        cesaro.cesaro_sweep(sig, WindowSchedule.geometric(4, 2 ** 10, 2, TWO)), 1e-2)
    v_gap = spectral.spectral_ac_verdict(sig, (0.125, 0.0625), 1e-2)
    ok = (v_win.positive and v_gap.positive
          and abs(v_win.limit) <= 1e-2 and abs(v_gap.limit) <= 1e-2
          and abs(v_win.limit - v_gap.limit) <= 1e-2)
    report(3, ok, f"character 1/7: window={abs(v_win.limit):.2e} "
                  f"gap={abs(v_gap.limit):.2e} "
                  f"disagreement={abs(v_win.limit - v_gap.limit):.2e}")


def test_criterion_04_measure_transform_both_routes():
    spec = ac.MeasureTransform(((0.0, 0.3), (0.2, 0.35), (-0.2, 0.35)))
    sig = ac.render_continuous(spec, -2048.0, 0.5, 8193)
    v_win = cesaro.ac_verdict(
        cesaro.cesaro_sweep(sig, WindowSchedule((64.0, 128.0, 256.0, 512.0))), 1e-2)
    v_gap = spectral.spectral_ac_verdict(sig, (0.1, 0.05), 1e-2)
    ok = (v_win.positive and v_gap.positive
          and abs(v_win.limit - 0.3) <= 1e-2 and abs(v_gap.limit - 0.3) <= 1e-2)
    report(4, ok, f"measure transform: window={v_win.limit.real:.4f} "
                  f"gap={v_gap.limit.real:.4f} (target 0.3 +- 1e-2)")


def test_criterion_05_dirichlet_line():
    spec = ac.DirichletLine((1, 1, 1), 2.0)
    sig = ac.render_continuous(spec, 0.0, 0.05, 81921)  # t in [0, 4096]
    v_gap = spectral.spectral_ac_verdict(sig, (0.08, 0.04, 0.02), 1e-2)
    v_win = cesaro.ac_verdict(
        cesaro.cesaro_sweep(sig, WindowSchedule((128.0, 256.0, 512.0))), 1e-2)
    ok = (v_gap.positive and abs(v_gap.limit - 1.0) <= 1e-2
          and v_win.positive and abs(v_win.limit - 1.0) <= 1e-2)
    report(5, ok, f"dirichlet line: gap={v_gap.limit.real:.4f} "
                  f"window={v_win.limit.real:.4f} (target 1 +- 1e-2)")


def test_criterion_06_cyclic_suite():
    t0 = time.perf_counter()
    results = []
    for n in (8, 64, 256, 1024):
        results.append(cyclic.random_suite(n, 100, seed=20260809 + n, tol=1e-9))
    elapsed = time.perf_counter() - t0
    ok = (all(r["passed"] for r in results)
          and max(r["round_trip_max"] for r in results) <= 1e-12
          and elapsed < 30.0)
    report(6, ok, "cyclic suite: " + " ".join(
        f"N={r['N']}:{'ok' if r['passed'] else r['failures'][:1]}" for r in results)
        + f" round_trip={max(r['round_trip_max'] for r in results):.1e}"
        + f" time={elapsed:.1f}s")


def test_criterion_07_residue_cross_check():
    coeffs = np.tile([1.0, 0.0], 2048)
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    rep = tb.residue_oac_estimate(
        DiscreteSignal(0, coeffs, 1.0), xs, WindowSchedule.geometric(2, 1024, 2, ONE),
        tol=1e-6)
    ok = (abs(rep.alpha_est - 0.5) <= 1e-3
          and rep.cesaro_verdict.positive
          and abs(rep.cesaro_verdict.limit - 0.5) <= 1e-3)
    report(7, ok, f"residue: abel={rep.alpha_est.real:.6f} "
                  f"window={rep.cesaro_verdict.limit.real:.6f} (target 0.5 +- 1e-3)")


def test_criterion_08_fatou_route():
    n = np.arange(2 ** 15)
    coeffs = (n + 1) * 0.5 ** n
    rep = tb.primitive_check(
        DiscreteSignal(0, coeffs, 1.0), 4.0, tol=2e-3, check_index=64,
        window_schedule=WindowSchedule.geometric(1024, 8192, 2, ONE))
    ok = (rep.final_value_error <= 1e-6
          and rep.oac_verdict.positive and rep.limit_error <= 1e-3
          and rep.tail <= 1e-8)
    report(8, ok, f"fatou: |s_64 - 4|={rep.final_value_error:.1e} "
                  f"oac_err={rep.limit_error:.1e} "
                  f"increments={rep.tail:.1e}")


def test_criterion_09_convolution_invariance_residual():
    rng = np.random.default_rng(20260809)
    kernel = fejer_kernel(64)
    sched = WindowSchedule.geometric(512, 2 ** 12, 2, TWO)
    residuals = []
    for _ in range(50):
        vals = rng.uniform(-1, 1, size=20000).astype(complex)
        sig = DiscreteSignal(0, vals, 1.0)
        residuals.append(convolution_invariance_residual(sig, kernel, sched))
    residuals = np.asarray(residuals)
    ok = residuals.max() <= 0.1 and np.median(residuals) <= 0.03
    report(9, ok, f"smoothing residual: max={residuals.max():.4f} (<=0.1) "
                  f"median={np.median(residuals):.4f} (<=0.03) over 50 seeds")


def test_criterion_10_hardy_littlewood_consistency():
    rng = np.random.default_rng(31415)
    freqs = np.array([0.5, 0.25, 0.125, 0.0625])
    xs = (1 - 2.0 ** (-3), 1 - 2.0 ** (-4), 1 - 2.0 ** (-5))
    worst_d = 0.0
    for _ in range(20):
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
            cesaro.cesaro_sweep(sig, WindowSchedule.geometric(64, 512, 2, ONE)),
            1e-6)
        assert v.positive
        sweep = tb.abel_sweep(vals, bound, xs)
        worst_d = max(worst_d, abs(sweep.extrapolated_limit - v.limit))
    worst_c = 0.0
    for i in range(5):
        alpha = 0.2 + 0.4 * i
        spec = ac.TrigPoly(((alpha, 0.0), (0.25 + 0.1j, 1 / 16),
                            (0.2 - 0.05j, 1 / 8)))
        sig = ac.render_continuous(spec, 0.0, 0.4, 10241)
        v = cesaro.ac_verdict(
            cesaro.cesaro_sweep(sig, WindowSchedule.geometric(128.0, 1024.0, 2, ONE)),
            1e-6)
        assert v.positive
        sweep = tb.laplace_sweep(sig, (2.0 ** -5, 2.0 ** -6, 2.0 ** -7))
        worst_c = max(worst_c, abs(sweep.extrapolated_limit - v.limit))
    ok = worst_d <= 1e-2 and worst_c <= 1e-2
    report(10, ok, f"mean-method consistency: abel worst={worst_d:.2e} "
                   f"laplace worst={worst_c:.2e} (<=1e-2)")


def test_criterion_11_chain_monotonicity(generator_corpus):
    bad = []
    for name, spec, signal, _ in generator_corpus:
        rep = tb.chain_report(signal)
        if not rep.consistency:
            bad.append((name, rep.violations))
    ok = not bad
    report(11, ok, f"chain consistency: {len(generator_corpus) - len(bad)}"
                   f"/{len(generator_corpus)} generators consistent"
                   + (f"; violations: {bad}" if bad else ""))
