"""Exact spectral synthesis and invariant-mean duality on Z_N.

On a finite cyclic group every subset of the dual group determines a
unique translation-invariant subspace, so the annihilator dualities and
the invariant-mean characterization become finite-dimensional linear
algebra that can be verified exactly.  Functions, functionals, and
integrable densities all coincide with length-N complex vectors here,
which makes the dual-space statements concrete.

Conventions: the transform is f_hat(lam) = sum_x f(x) exp(-2*pi*i*lam*x/N)
(counting measure); annihilators use the bilinear pairing
``<f, psi> = sum_t f(-t) psi(t)`` - NOT the Hermitian inner product,
which would silently conjugate spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from .errors import NotAMean, NotInvariant
from .errors import RankDeficientInput

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CyclicFunction:
    """A complex vector indexed by Z_N."""

    N: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if self.N < 1 or vals.shape != (self.N,):
            raise ValueError(f"need exactly N={self.N} values")
        object.__setattr__(self, "values", vals)

    def shifted(self, s: int) -> "CyclicFunction":
        """Translate: result(x) = self(x + s mod N)."""
        return CyclicFunction(self.N, np.roll(self.values, -s))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def character(N: int, lam: int) -> CyclicFunction:
    """chi_lam(x) = exp(2*pi*i*lam*x/N)."""
    x = np.arange(N)
    return CyclicFunction(N, np.exp(2j * np.pi * (lam % N) * x / N))


def delta(N: int, at: int = 0) -> CyclicFunction:
    v = np.zeros(N, dtype=np.complex128)
    v[at % N] = 1.0
    return CyclicFunction(N, v)


def zn_fourier(f: CyclicFunction) -> CyclicFunction:
    """f_hat(lam) = sum_x f(x) exp(-2*pi*i*lam*x/N)."""
    return CyclicFunction(f.N, np.fft.fft(f.values))


def zn_inverse(fh: CyclicFunction) -> CyclicFunction:
    return CyclicFunction(fh.N, np.fft.ifft(fh.values))


def convolve_cyclic(f: CyclicFunction, g: CyclicFunction) -> CyclicFunction:
    """Circular convolution (f*g)(x) = sum_t f(t) g(x - t), computed directly.

    O(N^2) on purpose: keeps the convolution theorem an actual test
    rather than an identity of the implementation.
    """
    if f.N != g.N:
        raise ValueError("group orders differ")
    n = f.N
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return CyclicFunction(n, g.values[idx] @ f.values)


def zero_set(f: CyclicFunction, tol: float = DEFAULT_TOL) -> FrozenSet[int]:
    """Frequencies where the transform vanishes, relative to its peak."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    fh = np.abs(np.fft.fft(f.values))
    top = fh.max()
    return frozenset(int(i) for i in np.nonzero(fh <= tol * top)[0])


def spectrum_of(psi: CyclicFunction, tol: float = DEFAULT_TOL) -> FrozenSet[int]:
    """Support of the transform: the frequencies whose magnitude exceeds
    ``tol`` times the peak.

    This is the zero set of the ideal of functions convolving psi to zero,
    since that ideal is spanned by the characters off the support.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    ph = np.abs(np.fft.fft(psi.values))
    top = ph.max()
    keep = ph > tol * top
    return frozenset(int(i) for i in np.nonzero(keep)[0])


@dataclass(frozen=True)
class CyclicIdealBasis:
    """Basis of the ideal of functions whose transform vanishes on a set."""

    N: int
    basis: tuple
    zero_set: FrozenSet[int]

    def __post_init__(self):
        dim = self.N - len(self.zero_set)
        if len(self.basis) != dim:
            raise ValueError(f"expected dimension {dim}, got {len(self.basis)}")
        for f in self.basis:
            fh = np.fft.fft(f.values)
            bad = [lam for lam in self.zero_set if abs(fh[lam]) > 1e-10]
            if bad:
                raise ValueError(f"basis transform does not vanish on {bad}")

    @property
    def dimension(self) -> int:
        return len(self.basis)


def ideal_for(C: Sequence[int], N: int) -> CyclicIdealBasis:
    """Largest ideal with transforms vanishing on C: one basis vector per
    frequency outside C (the inverse transform of that bin's indicator)."""
    cset = frozenset(int(c) % N for c in C)
    basis = []
    for mu in range(N):
        if mu in cset:
            continue
        basis.append(zn_inverse(delta(N, mu)))
    return CyclicIdealBasis(N=N, basis=tuple(basis), zero_set=cset)


def _reversal_matrix(rows: Sequence[CyclicFunction], N: int) -> np.ndarray:
    """Stack f(-t) rows for the bilinear pairing sum_t f(-t) psi(t)."""
    mat = np.empty((len(rows), N), dtype=np.complex128)
    t = np.arange(N)
    rev = (-t) % N
    for i, f in enumerate(rows):
        if f.N != N:
            raise ValueError("basis vector has wrong group order")
        mat[i] = f.values[rev]
    return mat


def annihilator(basis: Sequence[CyclicFunction], N: int,
                tol: float = DEFAULT_TOL) -> List[CyclicFunction]:
    """Basis of ``{psi : sum_t f(-t) psi(t) = 0 for all f in span(basis)}``.

    The pairing is bilinear (no conjugation).  Dependent input is
    accepted, deduplicated via the singular values, and flagged with a
    :class:`RankDeficientInput` warning.  The returned basis satisfies
    ``dim + dim_perp = N``.
    """
    basis = list(basis)
    if not basis:
        return [delta(N, x) for x in range(N)]
    A = _reversal_matrix(basis, N)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    cutoff = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    cutoff = max(cutoff, tol * (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    if rank < len(basis):
        warnings.warn(f"input spans only {rank} of {len(basis)} directions",
                      RankDeficientInput)
    if rank == 0:
        return [delta(N, x) for x in range(N)]
    # A v = 0 iff v is unitary-orthogonal to the leading right singular
    # vectors; extend them to a full unitary basis and keep the rest
    v_r = vh[:rank].conj().T
    q, _ = np.linalg.qr(v_r, mode="complete")
    null_rows = np.ascontiguousarray(q[:, rank:].T)
    return [CyclicFunction(N, row) for row in null_rows]


def span_rank(vectors: Sequence[CyclicFunction], N: int,
              tol: float = DEFAULT_TOL) -> int:
    if not vectors:
        return 0
    M = np.vstack([v.values for v in vectors])
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = max(M.shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > max(cutoff, tol * s[0])))


def spans_agree(a: Sequence[CyclicFunction], b: Sequence[CyclicFunction],
                N: int, tol: float = DEFAULT_TOL) -> bool:
    """True when the two collections span the same subspace of C^N."""
    ra = span_rank(a, N, tol)
    rb = span_rank(b, N, tol)
    if ra != rb:
        return False
    both = list(a) + list(b)
    return span_rank(both, N, tol) == ra


def _orthonormal_rows(mat: np.ndarray, tol: float) -> np.ndarray:
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    cutoff = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > max(cutoff, tol * (s[0] if s.size else 0.0))))
    return vh[:rank]


@dataclass(frozen=True)
class CharacterSpectrumReport:
    """Two routes to the spectrum of an invariant subspace."""

    spectrum: FrozenSet[int]
    characters_in_span: FrozenSet[int]
    equal: bool
    dimension: int


def verify_character_spectrum(phi_basis: Sequence[CyclicFunction], N: int,
                              tol: float = DEFAULT_TOL) -> CharacterSpectrumReport:
    """Check that an invariant subspace's spectrum is its character set.

    The spectrum is the zero set of the annihilating convolution ideal;
    in the Fourier basis that ideal is diagonal, so the spectrum is the
    union of the basis transforms' supports.  Independently, the set of
    characters lying in the span is found by projecting each frequency
    indicator onto the span of the transforms.  The two sets must match.

    Raises :class:`NotInvariant` when the span is not translation
    invariant (checked by shifting each basis vector one step).
    """
    basis = list(phi_basis)
    if not basis:
        return CharacterSpectrumReport(frozenset(), frozenset(), True, 0)
    F = np.vstack([np.fft.fft(f.values) for f in basis])
    Q = _orthonormal_rows(F, tol)
    # translation by one step multiplies the transform by a character
    mod = np.exp(2j * np.pi * np.arange(N) / N)
    for row in F:
        w = row * mod
        resid = w - (Q.conj() @ w) @ Q
        if np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(w)):
            raise NotInvariant("span is not closed under translation")
    scale = np.abs(F).max()
    support = frozenset(int(i) for i in np.nonzero(
        np.max(np.abs(F), axis=0) > tol * scale)[0])
    # chi_lam in span  <=>  the indicator of bin lam lies in rowspace(F)
    col_energy = np.sum(np.abs(Q) ** 2, axis=0)
    chars = frozenset(int(i) for i in np.nonzero(1.0 - col_energy <= tol)[0])
    return CharacterSpectrumReport(
        spectrum=support,
        characters_in_span=chars,
        equal=support == chars,
        dimension=Q.shape[0],
    )


@dataclass(frozen=True)
class InvariantMeanReport:
    """Invariance of a mean versus its spectrum being {0}."""

    is_invariant: bool
    spectrum: FrozenSet[int]
    spectrum_is_zero_only: bool
    equivalence_holds: bool
    max_shift_defect: float


def invariant_mean_check(phi: CyclicFunction,
                         tol: float = DEFAULT_TOL) -> InvariantMeanReport:
    """Check: a mean is translation invariant iff its spectrum is {0}.

    ``phi`` is the weight vector of a functional psi -> sum_x phi(x) psi(x);
    it must be a mean (nonnegative weights summing to 1, checked, else
    :class:`NotAMean`).  Its spectrum is the support of lam -> phi(chi_lam),
    the diagonalization of the annihilating convolution ideal.  On Z_N
    both sides hold exactly for the uniform average and fail together
    otherwise.
    """
    w = phi.values
    if abs(w.sum() - 1.0) > max(tol, 1e-12):
        raise NotAMean(f"weights sum to {w.sum()}, not 1")
    if np.any(w.real < -max(tol, 1e-12)) or np.any(np.abs(w.imag) > max(tol, 1e-12)):
        raise NotAMean("weights must be nonnegative reals")
    N = phi.N
    # shifts by s = 1..N-1 pair every x with every y != x, so the worst
    # shift defect is the componentwise diameter of the weight set
    defect = max(float(w.real.max() - w.real.min()),
                 float(w.imag.max() - w.imag.min()))
    invariant = defect <= tol
    # phi(chi_lam) = sum_x w(x) exp(2*pi*i*lam*x/N) = N * ifft(w)[lam]
    on_chars = N * np.fft.ifft(w)
    top = np.abs(on_chars).max()
    spectrum = frozenset(int(i) for i in np.nonzero(np.abs(on_chars) > tol * top)[0])
    zero_only = spectrum == {0}
    return InvariantMeanReport(
        is_invariant=invariant,
        spectrum=spectrum,
        spectrum_is_zero_only=zero_only,
        equivalence_holds=invariant == zero_only,
        max_shift_defect=defect,
    )


@dataclass(frozen=True)
class MeanAnnihilatorReport:
    """Uniform mean annihilates psi iff 0 is outside psi's spectrum."""

    mean_vanishes: bool
    zero_outside_spectrum: bool
    equivalence_holds: bool
    mean_value: complex


def double_annihilator_certificate(basis: Sequence[CyclicFunction], N: int,
                                   tol: float = DEFAULT_TOL) -> dict:
    """Certify ann(ann(E)) = span(E) without the second large null space.

    The pairing sum_t f(-t) psi(t) is symmetric and non-degenerate, so
    E is contained in its double annihilator as soon as every pairing of
    E against ann(E) vanishes, and the dimensions force equality:
    dim ann(ann(E)) = N - dim ann(E) = rank(E).  Returns the max pairing
    residual and the dimension identity.
    """
    ann = annihilator(basis, N, tol)
    rank = span_rank(basis, N, tol)
    if ann:
        A = _reversal_matrix(list(basis), N)
        resid = float(np.max(np.abs(A @ np.vstack([g.values for g in ann]).T)))
    else:
        resid = 0.0
    return {
        "pairing_residual": resid,
        "rank": rank,
        "ann_dimension": len(ann),
        "dimension_identity": len(ann) == N - rank,
        "ok": resid <= tol and len(ann) == N - rank,
        "annihilator": ann,
    }


def tolerance_floor(N: int) -> float:
    """Smallest tolerance the random suite's own float64 data can meet on Z_N.

    Rounding in the suite's transforms and factorizations grows like
    ``N * eps``; over seeds and group orders 2..1024 the suite first
    fails at tolerances up to about ``2 * N * eps``.  The floor keeps an
    eightfold margin above that.
    """
    return 16 * N * float(np.finfo(np.float64).eps)


def random_suite(N: int, cases: int, seed: int, tol: float = DEFAULT_TOL,
                 full_double_duality: Optional[bool] = None) -> dict:
    """Seed-fixed random verification of the Z_N dualities.

    Per case: Fourier round-trip accuracy; the character-spectrum
    identity on a random translation-invariant subspace; the
    invariant-mean equivalence for the uniform average and a random
    mean; the mean-annihilator equivalence on zero-sum and generic
    vectors; and annihilator double duality (full recomputation when
    ``full_double_duality``, else the certificate; default: full for
    N <= 256).
    """
    rng = np.random.default_rng(seed)
    if full_double_duality is None:
        full_double_duality = N <= 256
    failures: List[str] = []
    round_trip_max = 0.0
    for case in range(cases):
        f = CyclicFunction(N, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        back = zn_inverse(zn_fourier(f))
        err = float(np.max(np.abs(back.values - f.values))) / max(f.sup_norm(), 1e-300)
        round_trip_max = max(round_trip_max, err)
        if err > 1e-12:
            failures.append(f"case {case}: round trip error {err:.3g}")

        size = int(rng.integers(1, min(8, N) + 1))
        C = sorted(rng.choice(N, size=size, replace=False).tolist())
        chars = np.vstack([character(N, lam).values for lam in C])
        mix = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        mix += size * np.eye(size)  # keep the mixing comfortably invertible
        basis = [CyclicFunction(N, row) for row in mix @ chars]
        rep = verify_character_spectrum(basis, N, tol)
        if not rep.equal or rep.spectrum != frozenset(C):
            failures.append(f"case {case}: character-spectrum mismatch on C={C}")

        uniform = CyclicFunction(N, np.full(N, 1.0 / N, dtype=np.complex128))
        rep_u = invariant_mean_check(uniform, tol)
        w = rng.random(N) + 0.05
        w /= w.sum()
        rep_r = invariant_mean_check(CyclicFunction(N, w.astype(np.complex128)), tol)
        if not (rep_u.equivalence_holds and rep_u.is_invariant):
            failures.append(f"case {case}: uniform mean equivalence failed")
        if not rep_r.equivalence_holds:
            failures.append(f"case {case}: random mean equivalence failed")

        raw = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        zero_sum = CyclicFunction(N, raw - raw.mean())
        rep_z = mean_annihilator_check(zero_sum, tol)
        rep_g = mean_annihilator_check(CyclicFunction(N, raw + 3.0), tol)
        if not (rep_z.equivalence_holds and rep_z.mean_vanishes):
            failures.append(f"case {case}: zero-sum annihilator check failed")
        if not rep_g.equivalence_holds:
            failures.append(f"case {case}: generic annihilator check failed")

        dim = int(rng.integers(1, min(8, N) + 1))
        sub = [CyclicFunction(N, rng.standard_normal(N) + 1j * rng.standard_normal(N))
               for _ in range(dim)]
        cert = double_annihilator_certificate(sub, N, tol)
        if not cert["ok"]:
            failures.append(f"case {case}: double-duality certificate failed")
        if full_double_duality:
            double = annihilator(cert["annihilator"], N, tol)
            if not spans_agree(sub, double, N, tol):
                failures.append(f"case {case}: double annihilator span differs")
    return {
        "N": N,
        "cases": cases,
        "seed": seed,
        "tol": tol,
        "round_trip_max": round_trip_max,
        "full_double_duality": bool(full_double_duality),
        "failures": failures,
        "passed": not failures,
    }


def mean_annihilator_check(psi: CyclicFunction,
                           tol: float = DEFAULT_TOL) -> MeanAnnihilatorReport:
    """Check: sum(psi) = 0 iff 0 is not in spectrum_of(psi).

    The left side is a direct summation; the right side goes through the
    transform-support spectrum, so the two routes are computationally
    independent up to the shared tolerance convention.
    """
    total = complex(np.sum(psi.values))
    ph = np.abs(np.fft.fft(psi.values))
    top = ph.max()
    vanishes = abs(total) <= tol * max(top, 1e-300)
    outside = 0 not in spectrum_of(psi, tol)
    return MeanAnnihilatorReport(
        mean_vanishes=vanishes,
        zero_outside_spectrum=outside,
        equivalence_holds=vanishes == outside,
        mean_value=total,
    )
