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

:func:`annihilator` and :func:`ideal_for` build ann(E) and the ideal
I(C) explicitly.  :func:`random_suite` never forms ann(E): it checks
double duality with :func:`double_annihilator_certificate`, which takes
one Householder QR of the conjugate transpose of E's reversal matrix,
reads rank(E) from the singular values of its small triangle, and pairs
E against ann(E) kept as that QR's reflectors.  No SVD in the suite is
wider than the subspace it factors (Chan's R-SVD, ACM TOMS 8, 1982).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

import numpy as np

from .errors import NotAMean, NotInvariant, RankDeficientInput

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


def delta(N: int, at: int = 0) -> CyclicFunction:
    v = np.zeros(N, dtype=np.complex128)
    v[at % N] = 1.0
    return CyclicFunction(N, v)


def zn_fourier(f: CyclicFunction) -> CyclicFunction:
    """f_hat(lam) = sum_x f(x) exp(-2*pi*i*lam*x/N)."""
    return CyclicFunction(f.N, np.fft.fft(f.values))


def zn_inverse(fh: CyclicFunction) -> CyclicFunction:
    return CyclicFunction(fh.N, np.fft.ifft(fh.values))


def _support(values: np.ndarray, tol: float) -> FrozenSet[int]:
    """Indices where ``|values|`` exceeds ``tol`` times its peak."""
    mag = np.abs(values)
    return frozenset(np.flatnonzero(mag > tol * mag.max()).tolist())


def _numerical_rank(s: np.ndarray, shape: tuple, tol: float) -> int:
    """Singular values ``s`` of a ``shape`` matrix above the larger of the
    float64 resolution ``max(shape) * eps`` and ``tol``, relative to ``s[0]``."""
    top = s[0] if s.size else 0.0
    cutoff = max(max(shape) * np.finfo(float).eps * top, tol * top)
    return int(np.sum(s > cutoff))


def spectrum_of(psi: CyclicFunction, tol: float = DEFAULT_TOL) -> FrozenSet[int]:
    """Support of the transform: the frequencies whose magnitude exceeds
    ``tol`` times the peak.

    This is the zero set of the ideal of functions convolving psi to zero,
    since that ideal is spanned by the characters off the support.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return _support(np.fft.fft(psi.values), tol)


def zero_set(f: CyclicFunction, tol: float = DEFAULT_TOL) -> FrozenSet[int]:
    """Frequencies where the transform vanishes, relative to its peak: the
    complement of :func:`spectrum_of`."""
    return frozenset(range(f.N)) - spectrum_of(f, tol)


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


def _null_space_reflectors(A: np.ndarray, tol: float) -> tuple:
    """Rank r of ``A`` and its null space as r Householder reflectors.

    Returns ``(r, Y, T)``: the r x N array Y holds reflector i in row i,
    zero before its unit entry i, and the r x r upper-triangular T puts
    their product in compact WY form Q = I - Y^T T conj(Y) (Schreiber and
    Van Loan, 1989).  The trailing N - r columns of the unitary Q are an
    orthonormal basis of the null space of ``A``; nothing N x N is
    formed.

    The reflectors are those of one Householder QR, A^H = Q R, and the
    rank is read from the singular values of the small triangle R, which
    are A's.  At full rank A v = 0 iff R^H Q^H v = 0 iff v is orthogonal
    to Q's leading r columns, so that QR is the answer.  Dependent rows
    are flagged with a :class:`RankDeficientInput` warning, and the
    reflectors are then those of a QR of the r orthonormal rows that
    :func:`_orthonormal_rows` finds in A, transposed.
    """
    h, tau = np.linalg.qr(A.conj().T, mode="raw")
    s = np.linalg.svd(np.triu(h[:, :tau.size].T), compute_uv=False)
    if _numerical_rank(s, A.shape, tol) < A.shape[0]:
        rows = _orthonormal_rows(A, tol)
        warnings.warn(f"input spans only {len(rows)} of {A.shape[0]} directions",
                      RankDeficientInput)
        h, tau = np.linalg.qr(rows.conj().T, mode="raw")
    # Q is the product of the reflectors I - tau_i y_i y_i^H
    rank = tau.size
    y = np.triu(h, 1)
    np.fill_diagonal(y, 1.0)
    gram = y.conj() @ y.T
    t = np.zeros((rank, rank), dtype=np.complex128)
    for i in range(rank):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return rank, y, t


def annihilator(basis: Sequence[CyclicFunction], N: int,
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis of ``{psi : sum_t f(-t) psi(t) = 0 for all f in span(basis)}``.

    Returns one complex array of shape ``(N - rank, N)`` whose rows are
    orthonormal and span the annihilator, so ``rank + rows = N``; an
    empty basis gives the identity.  The pairing is bilinear (no
    conjugation).  Dependent input is accepted, deduplicated via the
    singular values, and flagged with a :class:`RankDeficientInput`
    warning.  The rows are the trailing columns of the reflector product
    of :func:`_null_space_reflectors`, I[rank:] - conj(Y[:, rank:])^T T^T Y,
    formed without the N x N factor; the suite's certificate pairs
    against the reflectors instead and never calls this.
    """
    rank, y, t = _null_space_reflectors(_reversal_matrix(list(basis), N), tol)
    null = y[:, rank:].T.conj() @ -(t.T @ y)
    null[np.arange(N - rank), np.arange(rank, N)] += 1.0
    return null


def _orthonormal_rows(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the numerical row space of ``mat``.

    They are the leading right singular vectors of ``mat``, conjugated,
    taken by Chan's R-SVD: a QR of mat^H = Q R, then an SVD R = U S W^H
    of the small triangle, so the rows are (Q U[:, :rank])^H.
    """
    q, r = np.linalg.qr(mat.conj().T)
    u, s, _ = np.linalg.svd(r)
    return (q @ u[:, :_numerical_rank(s, mat.shape, tol)]).conj().T


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
    The basis is transformed once, as one stack, and the span's
    orthonormal rows come from :func:`_orthonormal_rows`.

    Raises :class:`NotInvariant` when the span is not translation
    invariant (checked by shifting each basis vector one step).
    """
    basis = list(phi_basis)
    if not basis:
        return CharacterSpectrumReport(frozenset(), frozenset(), True, 0)
    F = np.fft.fft(np.vstack([f.values for f in basis]), axis=1)
    Q = _orthonormal_rows(F, tol)
    # translation by one step multiplies the transform by a character
    mod = np.exp(2j * np.pi * np.arange(N) / N)
    W = F * mod
    resid = W - (W @ Q.conj().T) @ Q
    if np.any(np.linalg.norm(resid, axis=1)
              > tol * np.maximum(1.0, np.linalg.norm(W, axis=1))):
        raise NotInvariant("span is not closed under translation")
    support = _support(np.max(np.abs(F), axis=0), tol)
    # chi_lam in span  <=>  the indicator of bin lam lies in rowspace(F)
    col_energy = np.sum(np.abs(Q) ** 2, axis=0)
    chars = frozenset(np.flatnonzero(1.0 - col_energy <= tol).tolist())
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
    spectrum = _support(N * np.fft.ifft(w), tol)
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
    """Certify ann(ann(E)) = span(E) without computing ann(ann(E)).

    The pairing sum_t f(-t) psi(t) is symmetric and non-degenerate, so
    E is contained in its double annihilator as soon as every pairing of
    E against ann(E) vanishes, and the dimensions force equality:
    dim ann(ann(E)) = N - dim ann(E) = rank(E).  That dimension holds by
    construction, since ann(E) is the N - r trailing columns of a unitary
    Q, where r = rank(E) is read from the singular values of the small
    triangle of the QR in :func:`_null_space_reflectors`.  So ``ok`` is
    the pairing residual within ``tol``; ``rank`` is r.

    ann(E) is kept as the helper's reflectors, Q = I - Y^T T conj(Y),
    whose trailing columns are the rows :func:`annihilator` would return.
    The pairings of E (reversal matrix A) against them are
    A[:, r:] - ((A Y^T) T) conj(Y[:, r:]), a len(E) x (N - r) array, so
    no (N - r) x N array is formed.
    """
    A = _reversal_matrix(list(basis), N)
    r, y, t = _null_space_reflectors(A, tol)
    pairing = A[:, r:] - ((A @ y.T) @ t) @ y[:, r:].conj()
    resid = float(np.max(np.abs(pairing), initial=0.0))
    return {"pairing_residual": resid, "rank": r, "ok": resid <= tol}


def _character_rows(N: int, C: Sequence[int]) -> np.ndarray:
    """The characters chi_lam(x) = exp(2*pi*i*lam*x/N), lam in C, as rows,
    from one broadcast exponential."""
    return np.exp(2j * np.pi * (np.asarray(C)[:, None] % N) * np.arange(N) / N)


def tolerance_floor(N: int) -> float:
    """Smallest tolerance the random suite's own float64 data can meet on Z_N.

    Rounding in the suite's transforms and factorizations grows like
    ``N * eps``; over seeds and group orders 2..1024 the suite first
    fails at tolerances up to about ``2 * N * eps``.  The floor keeps an
    eightfold margin above that.
    """
    return 16 * N * float(np.finfo(np.float64).eps)


def random_suite(N: int, cases: int, seed: int, tol: float = DEFAULT_TOL) -> dict:
    """Seed-fixed random verification of the Z_N dualities.

    Per case: Fourier round-trip accuracy; the character-spectrum
    identity on a random translation-invariant subspace; the
    invariant-mean equivalence for the uniform average and a random
    mean; the mean-annihilator equivalence on zero-sum and generic
    vectors; and annihilator double duality on a random subspace, by
    :func:`double_annihilator_certificate` at every N.
    """
    rng = np.random.default_rng(seed)
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
        chars = _character_rows(N, C)
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
    return {
        "N": N,
        "cases": cases,
        "seed": seed,
        "tol": tol,
        "round_trip_max": round_trip_max,
        "failures": failures,
        "passed": not failures,
    }


def mean_annihilator_check(psi: CyclicFunction,
                           tol: float = DEFAULT_TOL) -> MeanAnnihilatorReport:
    """Check: sum(psi) = 0 iff 0 is not in spectrum_of(psi).

    The left side is a direct summation; the right side goes through the
    transform-support spectrum, so the two routes are computationally
    independent up to the shared tolerance convention.  The transform is
    taken once and serves both the scale and the support.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    total = complex(np.sum(psi.values))
    mag = np.abs(np.fft.fft(psi.values))
    vanishes = abs(total) <= tol * max(mag.max(), 1e-300)
    outside = 0 not in _support(mag, tol)
    return MeanAnnihilatorReport(
        mean_vanishes=vanishes,
        zero_outside_spectrum=outside,
        equivalence_holds=vanishes == outside,
        mean_value=total,
    )
