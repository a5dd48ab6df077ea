import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from almostconv import cyclic
from almostconv.cyclic import (
    CyclicFunction,
    CyclicIdealBasis,
    annihilator,
    delta,
    ideal_for,
    invariant_mean_check,
    mean_annihilator_check,
    spectrum_of,
    verify_character_spectrum,
    zero_set,
    zn_fourier,
    zn_inverse,
)
from almostconv.errors import NotAMean, NotInvariant, RankDeficientInput


def character(N, lam):
    """chi_lam(x) = exp(2*pi*i*lam*x/N), one character at a time: the
    reference for the suite's broadcast rows."""
    x = np.arange(N)
    return CyclicFunction(N, np.exp(2j * np.pi * (lam % N) * x / N))


def test_suite_character_rows_are_the_characters_bit_for_bit():
    rng = np.random.default_rng(33)
    for N in (1, 2, 7, 64, 100, 1024):
        C = sorted(rng.choice(N, size=min(8, N), replace=False).tolist())
        rows = cyclic._character_rows(N, C)
        ref = np.vstack([character(N, lam).values for lam in C])
        assert rows.tobytes() == ref.tobytes()


def _convolve_cyclic(f, g):
    """Circular convolution (f*g)(x) = sum_t f(t) g(x - t), computed directly.

    O(N^2) on purpose: keeps the convolution theorem an actual test
    rather than an identity of the implementation.
    """
    if f.N != g.N:
        raise ValueError("group orders differ")
    n = f.N
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return CyclicFunction(n, g.values[idx] @ f.values)


def _span_rank(vectors, N, tol=cyclic.DEFAULT_TOL):
    """Numerical rank of the stacked vectors, from their own SVD."""
    if not vectors:
        return 0
    M = np.vstack([v.values for v in vectors])
    return cyclic._numerical_rank(np.linalg.svd(M, compute_uv=False), M.shape, tol)


def _spans_agree(a, b, N, tol=cyclic.DEFAULT_TOL):
    """True when the two collections span the same subspace of C^N."""
    ra = _span_rank(a, N, tol)
    rb = _span_rank(b, N, tol)
    if ra != rb:
        return False
    both = list(a) + list(b)
    return _span_rank(both, N, tol) == ra


def test_fourier_of_delta_is_flat():
    fh = zn_fourier(delta(4))
    assert np.allclose(fh.values, [1, 1, 1, 1])


def test_fourier_of_sign_vector():
    fh = zn_fourier(CyclicFunction(2, np.array([1.0, -1.0])))
    assert np.allclose(fh.values, [0, 2])
    assert zero_set(CyclicFunction(2, np.array([1.0, -1.0]))) == {0}


def test_fourier_of_constant_orthogonality():
    fh = zn_fourier(CyclicFunction(3, np.ones(3)))
    assert np.allclose(fh.values, [3, 0, 0], atol=1e-12)


@given(st.integers(1, 64))
@settings(max_examples=40)
def test_fourier_round_trip(n):
    rng = np.random.default_rng(n)
    f = CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    back = zn_inverse(zn_fourier(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(f.sup_norm(), 1)


def test_fourier_round_trip_large():
    rng = np.random.default_rng(0)
    f = CyclicFunction(4096, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    back = zn_inverse(zn_fourier(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * f.sup_norm()


def test_convolution_theorem():
    rng = np.random.default_rng(2)
    for n in (5, 16, 48):
        f = CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        conv = _convolve_cyclic(f, g)
        lhs = zn_fourier(conv).values
        rhs = zn_fourier(f).values * zn_fourier(g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1, np.max(np.abs(rhs)))


def test_zero_set_examples():
    assert zero_set(delta(8)) == frozenset()
    # construct a transform vanishing exactly on {1, 5}
    rng = np.random.default_rng(9)
    fh = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    fh[[1, 5]] = 0.0
    f = zn_inverse(CyclicFunction(8, fh))
    assert zero_set(f) == {1, 5}


def test_ideal_for_extremes():
    full = ideal_for([], 6)
    assert full.dimension == 6
    zero = ideal_for(range(6), 6)
    assert zero.dimension == 0


def test_ideal_for_point_zero_mean():
    ideal = ideal_for([0], 4)
    assert ideal.dimension == 3
    for f in ideal.basis:
        assert abs(np.sum(f.values)) <= 1e-12


def test_ideal_closed_under_convolution():
    rng = np.random.default_rng(4)
    n = 12
    C = [0, 3, 7]
    ideal = ideal_for(C, n)
    g = CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for f in ideal.basis:
        conv = _convolve_cyclic(f, g)
        fh = np.fft.fft(conv.values)
        assert all(abs(fh[lam]) <= 1e-9 for lam in C)


def test_ideal_basis_invariant_validation():
    bad = [CyclicFunction(4, np.ones(4))]
    with pytest.raises(ValueError):
        CyclicIdealBasis(4, tuple(bad), frozenset({0, 1, 2}))


def _functions(rows, N):
    """The rows of an annihilator array as ``CyclicFunction`` objects."""
    return [CyclicFunction(N, row) for row in rows]


def test_annihilator_of_full_space_is_trivial():
    basis = [delta(4, x) for x in range(4)]
    assert annihilator(basis, 4).shape == (0, 4)


def test_annihilator_of_constant_is_zero_sum_space():
    ann = annihilator([CyclicFunction(4, np.ones(4))], 4)
    assert ann.shape[0] == 3
    for g in ann:
        assert abs(np.sum(g)) <= 1e-12


def test_annihilator_of_point_ideal_is_constants():
    ideal = ideal_for([0], 4)
    ann = annihilator(list(ideal.basis), 4)
    assert ann.shape[0] == 1
    g = ann[0]
    assert np.max(np.abs(g - g.mean())) <= 1e-12


def test_annihilator_flags_dependent_input():
    v = CyclicFunction(4, np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    w = CyclicFunction(4, 2.0 * v.values)
    with pytest.warns(RankDeficientInput):
        ann = annihilator([v, w], 4)
    assert ann.shape[0] == 3  # deduplicated to one direction


def test_annihilator_dimension_identity():
    rng = np.random.default_rng(12)
    for n, dim in [(8, 3), (16, 5), (32, 9)]:
        basis = [CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
                 for _ in range(dim)]
        ann = annihilator(basis, n)
        assert ann.shape[0] == n - dim


def _full_svd_null_space(basis, N, tol=cyclic.DEFAULT_TOL):
    """Reference null space: the trailing conjugated rows of one full
    N x N SVD factor of the reversal matrix."""
    A = cyclic._reversal_matrix(basis, N)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[cyclic._numerical_rank(s, A.shape, tol):].conj()


def _annihilator_input(kind, N, k, rng):
    """k unit basis vectors of Z_N of the given kind, and their rank."""
    def unit_rows(count):
        rows = rng.standard_normal((count, N)) + 1j * rng.standard_normal((count, N))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    if kind == "deltas":
        # standard basis vectors: every reflector starts on a zero entry
        # unless the delta sits at 0
        at = rng.choice(N, size=min(k, N), replace=False)
        return [delta(N, int(x)) for x in at], len(at)
    if kind == "rank_deficient" and k > 1:
        free = int(rng.integers(1, k))
        indep = unit_rows(free)
        mix = rng.standard_normal((k - free, free)) + 1j * rng.standard_normal((k - free, free))
        dep = mix @ indep
        rows = np.vstack([indep, dep / np.linalg.norm(dep, axis=1, keepdims=True)])
        rank = min(free, N)
    elif kind == "zero_row":
        rows = unit_rows(k)
        rows[int(rng.integers(k))] = 0.0
        rank = min(k - 1, N)
    else:
        rows = unit_rows(k)
        rank = min(k, N)
    return [CyclicFunction(N, row) for row in rng.permutation(rows)], rank


@given(kind=st.sampled_from(["generic", "rank_deficient", "zero_row", "deltas"]),
       N=st.integers(1, 1024), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
@example(kind="generic", N=1024, k=8, seed=0)
@example(kind="rank_deficient", N=1024, k=8, seed=1)
@example(kind="generic", N=3, k=8, seed=2)
@example(kind="deltas", N=5, k=8, seed=3)
@example(kind="deltas", N=64, k=3, seed=4)
@example(kind="zero_row", N=1, k=1, seed=5)
@settings(max_examples=40, deadline=None)
def test_annihilator_matches_full_svd_null_space(kind, N, k, seed):
    basis, rank = _annihilator_input(kind, N, k, np.random.default_rng(seed))
    floor = cyclic.tolerance_floor(N)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientInput)
        rows = annihilator(basis, N)
    assert any(w.category is RankDeficientInput for w in caught) is (rank < len(basis))
    assert rows.shape == (N - rank, N)
    gram = rows @ rows.conj().T
    assert np.max(np.abs(gram - np.eye(N - rank)), initial=0.0) <= floor
    A = cyclic._reversal_matrix(basis, N)
    assert np.max(np.abs(A @ rows.T), initial=0.0) <= floor
    # same span: the reference rows lose nothing on projection onto ours
    ref = _full_svd_null_space(basis, N)
    assert ref.shape == rows.shape
    resid = ref - (ref @ rows.conj().T) @ rows
    assert np.max(np.abs(resid), initial=0.0) <= floor


@st.composite
def _dependent_subspaces(draw):
    """(N, rows, rank): ``rank`` independent random rows of Z_N, filling
    it in the "fill" kind, plus exact duplicates and power-of-two multiples
    of them in any order."""
    kind = draw(st.sampled_from(["full", "deficient", "fill"]))
    if kind == "fill":
        N = draw(st.integers(1, 24))
        rank = N
    else:
        N = draw(st.integers(1, 300))
        rank = draw(st.integers(1, min(N, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((rank, N)) + 1j * rng.standard_normal((rank, N))
    extra = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(-3, 3)),
                          min_size=int(kind == "deficient"), max_size=0 if kind == "full" else 4))
    rows = np.vstack([rows] + [2.0 ** p * rows[i] for i, p in extra])
    return N, rows[rng.permutation(len(rows))], rank


@given(_dependent_subspaces())
@example((1, np.array([[1.0 + 0j]]), 1))
@example((2, np.array([[1.0, 2j], [4.0, 8j], [1.0, 2j]]), 1))
@example((3, np.array([[1.0, 0, 0], [0, 1j, 0], [0, 0, 2.0], [0.5, 0, 0]]), 3))
@settings(max_examples=200, deadline=None)
def test_double_duality_with_dependent_rows(case):
    N, rows, rank = case
    basis = [CyclicFunction(N, row) for row in rows]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientInput)
        cert = cyclic.double_annihilator_certificate(basis, N)
        ann = annihilator(basis, N)
    # once from each call, exactly when some row depends on the others
    assert sum(w.category is RankDeficientInput for w in caught) == 2 * (rank < len(rows))
    assert cert["ok"] and cert["rank"] == rank
    assert ann.shape == (N - rank, N)
    gram = ann @ ann.conj().T
    assert np.max(np.abs(gram - np.eye(N - rank)), initial=0.0) <= cyclic.tolerance_floor(N)
    pairing = cyclic._reversal_matrix(basis, N) @ ann.T
    assert np.max(np.abs(pairing), initial=0.0) <= cyclic.DEFAULT_TOL


def test_double_annihilator_recovers_span():
    # the full recomputation the suite certifies instead, up to the
    # largest order at which the suite used to run it
    rng = np.random.default_rng(21)
    for n in (8, 16, 64, 256):
        dim = int(rng.integers(1, 6))
        basis = [CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
                 for _ in range(dim)]
        double = annihilator(_functions(annihilator(basis, n), n), n)
        assert _spans_agree(basis, _functions(double, n), n)
        assert cyclic.double_annihilator_certificate(basis, n)["ok"]


def test_double_annihilator_recovers_rank_deficient_span():
    rng = np.random.default_rng(22)
    for n in (16, 256):
        vecs = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        rows = np.vstack([vecs, 2.0 * vecs[0] - 1j * vecs[2]])
        basis = [CyclicFunction(n, row) for row in rows]
        with pytest.warns(RankDeficientInput):
            ann = annihilator(basis, n)
        assert ann.shape[0] == n - 3
        double = annihilator(_functions(ann, n), n)
        assert _spans_agree(basis, _functions(double, n), n)
        with pytest.warns(RankDeficientInput):
            cert = cyclic.double_annihilator_certificate(basis, n)
        assert cert["ok"] and cert["rank"] == 3


# the fake below wraps the real helper, which the test then replaces
_true_reflectors = cyclic._null_space_reflectors


def _unpaired_annihilator(A, tol):
    """Reflectors of the right rank whose null space does not pair to zero
    with E: they are those of an unrelated matrix of the same shape."""
    rng = np.random.default_rng(5)
    other = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    return _true_reflectors(other, tol)


def test_double_annihilator_certificate_can_fail(monkeypatch):
    n = 16
    rng = np.random.default_rng(23)
    basis = [CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
             for _ in range(3)]
    monkeypatch.setattr(cyclic, "_null_space_reflectors", _unpaired_annihilator)
    cert = cyclic.double_annihilator_certificate(basis, n)
    assert not cert["ok"]
    assert cert["pairing_residual"] > cyclic.DEFAULT_TOL
    out = cyclic.random_suite(n, 3, seed=4)
    assert not out["passed"]
    assert out["failures"] == [f"case {c}: double-duality certificate failed"
                               for c in range(3)]


@pytest.mark.parametrize("N", [1, 8, 64, 256, 1024])
def test_certificate_pairing_matches_explicit_annihilator(N):
    rng = np.random.default_rng(N)
    k = min(8, N)
    basis = [CyclicFunction(N, rng.standard_normal(N) + 1j * rng.standard_normal(N))
             for _ in range(k)]
    cert = cyclic.double_annihilator_certificate(basis, N)
    explicit = np.max(np.abs(cyclic._reversal_matrix(basis, N) @ annihilator(basis, N).T),
                      initial=0.0)
    assert abs(cert["pairing_residual"] - explicit) <= cyclic.tolerance_floor(N)
    assert cert["ok"] and cert["rank"] == k


def test_certificate_of_empty_basis():
    cert = cyclic.double_annihilator_certificate([], 12)
    assert cert == {"pairing_residual": 0.0, "rank": 0, "ok": True}


def test_certificate_forms_no_annihilator_sized_array():
    # the explicit (N - 8) x N complex annihilator alone is ~16 MB at N = 1024
    n = 1024
    rng = np.random.default_rng(25)
    basis = [CyclicFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
             for _ in range(8)]
    tracemalloc.start()
    try:
        cert = cyclic.double_annihilator_certificate(basis, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert["ok"]
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


def test_ideal_annihilator_is_character_span():
    rng = np.random.default_rng(31)
    for n in (6, 16):
        size = int(rng.integers(1, n))
        C = sorted(rng.choice(n, size=size, replace=False).tolist())
        ann = annihilator(list(ideal_for(C, n).basis), n)
        chars = [character(n, lam) for lam in C]
        assert _spans_agree(_functions(ann, n), chars, n)


def test_spectrum_of_examples():
    assert spectrum_of(character(8, 3)) == {3}
    assert spectrum_of(CyclicFunction(5, np.full(5, 2.0))) == {0}
    rng = np.random.default_rng(8)
    ph = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ph[[2, 5]] = 0.0
    psi = zn_inverse(CyclicFunction(8, ph))
    assert spectrum_of(psi) == frozenset(range(8)) - {2, 5}


def test_empty_spectrum_forces_zero():
    z = CyclicFunction(6, np.zeros(6))
    assert spectrum_of(z, 0.0) in (frozenset(), frozenset(range(6)))
    # nonzero functions always have nonempty spectrum at tol 0
    rng = np.random.default_rng(14)
    psi = CyclicFunction(6, rng.standard_normal(6) + 0j)
    assert spectrum_of(psi, 0.0)
    # contrapositive: empty spectrum at tol 0 means the sup norm vanishes
    if not spectrum_of(z, 0.0) - frozenset(range(6)):
        assert z.sup_norm() <= 1e-12


def test_verify_character_spectrum_two_characters():
    basis = [character(8, 1), character(8, 4)]
    rep = verify_character_spectrum(basis, 8)
    assert rep.equal
    assert rep.spectrum == {1, 4}
    assert rep.characters_in_span == {1, 4}


def test_verify_character_spectrum_full_space():
    basis = [delta(6, x) for x in range(6)]
    rep = verify_character_spectrum(basis, 6)
    assert rep.equal
    assert rep.spectrum == frozenset(range(6))


def test_verify_character_spectrum_empty():
    rep = verify_character_spectrum([], 6)
    assert rep.equal and rep.spectrum == frozenset()


def test_verify_character_spectrum_rejects_noninvariant():
    with pytest.raises(NotInvariant):
        verify_character_spectrum([delta(8)], 8)


def test_invariant_mean_uniform():
    rep = invariant_mean_check(CyclicFunction(6, np.full(6, 1 / 6)))
    assert rep.is_invariant
    assert rep.spectrum == {0}
    assert rep.equivalence_holds


def test_invariant_mean_point_evaluation():
    rep = invariant_mean_check(delta(6))
    assert not rep.is_invariant
    assert rep.spectrum == frozenset(range(6))
    assert rep.equivalence_holds


def test_invariant_mean_half_half():
    rep = invariant_mean_check(CyclicFunction(4, np.array([0.5, 0.5, 0, 0])))
    assert not rep.is_invariant
    assert rep.spectrum > {0}
    assert rep.equivalence_holds


def test_invariant_mean_rejects_non_mean():
    with pytest.raises(NotAMean):
        invariant_mean_check(CyclicFunction(4, np.array([0.5, 0.7, 0, 0])))
    with pytest.raises(NotAMean):
        invariant_mean_check(CyclicFunction(4, np.array([1.5, -0.5, 0, 0])))


def test_mean_annihilator_character():
    rep = mean_annihilator_check(character(8, 2))
    assert rep.mean_vanishes and rep.zero_outside_spectrum
    assert rep.equivalence_holds


def test_mean_annihilator_constant():
    rep = mean_annihilator_check(CyclicFunction(8, np.ones(8)))
    assert not rep.mean_vanishes and not rep.zero_outside_spectrum
    assert rep.equivalence_holds


def test_mean_annihilator_random_zero_sum():
    rng = np.random.default_rng(77)
    raw = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    rep = mean_annihilator_check(CyclicFunction(12, raw - raw.mean()))
    assert rep.mean_vanishes and rep.zero_outside_spectrum


@pytest.mark.parametrize("N, cases", [(16, 5), (256, 3), (1024, 4)])
def test_random_suite_takes_two_svds_per_case(monkeypatch, N, cases):
    # one for the character spectrum, one for the double-duality
    # certificate, each of a triangle no larger than the subspace (at
    # most 8 vectors), never of the subspace's wide r x N matrix
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    out = cyclic.random_suite(N, cases, seed=7)
    assert out["passed"], out["failures"]
    assert len(shapes) == 2 * cases
    assert max(max(shape) for shape in shapes) <= 8, shapes


def _count_forward_transforms(monkeypatch):
    fft = np.fft.fft
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


def test_character_spectrum_transforms_the_basis_once(monkeypatch):
    basis = [CyclicFunction(16, row) for row in
             np.array([[1.0, 2.0], [1j, -1.0], [0.5, 3.0]])
             @ np.vstack([character(16, lam).values for lam in (1, 4)])]
    calls = _count_forward_transforms(monkeypatch)
    rep = verify_character_spectrum(basis, 16)
    assert rep.equal and rep.spectrum == {1, 4} and rep.dimension == 2
    assert len(calls) == 1


def test_mean_annihilator_check_transforms_once(monkeypatch):
    calls = _count_forward_transforms(monkeypatch)
    for psi in (character(8, 2), CyclicFunction(8, np.ones(8))):
        assert mean_annihilator_check(psi).equivalence_holds
    assert len(calls) == 2
    with pytest.raises(ValueError):
        mean_annihilator_check(character(8, 2), -1e-9)


def test_random_suite_small():
    out = cyclic.random_suite(16, 10, seed=123)
    assert out["passed"], out["failures"]
    assert out["round_trip_max"] <= 1e-12
    assert sorted(out) == ["N", "cases", "failures", "passed", "round_trip_max",
                           "seed", "tol"]
