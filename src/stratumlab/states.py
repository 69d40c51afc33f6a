"""Density matrices of finite-dimensional C*-algebras.

An algebra here is a finite direct sum of full complex matrix blocks,
described by its block sizes. Its density matrices are the block-diagonal,
Hermitian, positive semidefinite, trace-one matrices; they are in bijection
with the states (normalized positive functionals) of the algebra via
rho -> Tr(rho . ).

Validation is strict and structured: every rejection names the violated
requirement and carries the magnitude of the violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionTooLarge,
    NotBlockDiagonal,
    NotFinite,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)

DEFAULT_TOL = 1e-9

SYLVESTER_MAX_DIM = 12


def _require_tol(tol, name: str = "tolerance") -> None:
    """Refuse a tolerance (or array of them) unless all are finite and > 0."""
    ok = 0.0 < tol < np.inf if isinstance(tol, float) else np.all((tol > 0) & (tol < np.inf))
    if not ok:
        raise ValueError(f"{name} must be finite and positive, got {tol}")


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A finite direct sum of full matrix algebras, given by block sizes.

    block_sizes (n_1, ..., n_k) describes M_{n_1}(C) (+) ... (+) M_{n_k}(C),
    realized as block-diagonal matrices of total size sum(n_i).
    """

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def dim(self) -> int:
        """Ambient matrix size (sum of block sizes)."""
        return sum(self.block_sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def unitary_group_dim(self) -> int:
        """Real dimension of the unitary group of the algebra."""
        return sum(n * n for n in self.block_sizes)

    def block_slices(self) -> list[slice]:
        out, at = [], 0
        for n in self.block_sizes:
            out.append(slice(at, at + n))
            at += n
        return out

    def contains(self, x: np.ndarray) -> bool:
        """Whether x is block diagonal for the algebra, within linalg.STRUCTURE_TOL."""
        x = np.asarray(x)
        if x.shape != (self.dim, self.dim):
            return False
        return linalg.off_block_magnitude(x, self.block_sizes) <= linalg.STRUCTURE_TOL


def full_algebra(n: int) -> AlgebraDescriptor:
    """The full matrix algebra M_n(C) as a one-block descriptor."""
    return AlgebraDescriptor((n,))


def commutative_algebra(n: int) -> AlgebraDescriptor:
    """C^n: n one-dimensional blocks (diagonal matrices)."""
    return AlgebraDescriptor((1,) * n)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix of an algebra.

    Construct through validate_density (or the named constructors below), not
    directly; the invariants (Hermitian, block-diagonal, PSD, trace one, all
    within tol) are only guaranteed on that path. The matrix buffer is frozen
    after validation so instances can be shared freely.

    The tolerance the matrix was validated with travels with it, so rank and
    classification decisions downstream default to a consistent tol, and so
    does the read-only eigvalsh spectrum of its validation: eigenvalues().
    """

    alg: AlgebraDescriptor
    matrix: np.ndarray
    tol: float = DEFAULT_TOL
    _validated: bool = field(default=False, repr=False, compare=False)
    _spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self._validated:
            raise TypeError("use validate_density() to construct a DensityMatrix")
        self.matrix.setflags(write=False)
        self._spectrum.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.alg.dim

    def blocks(self) -> list[np.ndarray]:
        """Diagonal blocks, in algebra order."""
        return linalg.block_extract(self.matrix, self.alg.block_sizes)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only): validation's eigvalsh, bit for bit."""
        return self._spectrum


def validate_stack(
    ms: np.ndarray, alg: AlgebraDescriptor, tol: float | np.ndarray = DEFAULT_TOL
) -> np.ndarray:
    """Validate a (B, n, n) stack of matrices as density matrices of alg.

    Checks each matrix, in order: shape, finiteness and Hermiticity (fixed
    1e-12 budget), block diagonality (off-block entries <= tol), trace
    (|Tr m - 1| <= tol), positivity (min eigenvalue >= -tol). Every guard
    is written to fail closed: a NaN comparison rejects. Each check runs on
    the whole stack at once; a later check only sees matrices that passed
    the earlier ones, so no solver is handed a non-finite matrix.

    tol is one float for the whole stack, or a (B,) array of one tolerance
    per matrix; each must be finite and > 0 (else ValueError).

    Returns
    -------
    ndarray
        The read-only (B, n, n) stack of Hermitized matrices.

    Raises
    ------
    NotFinite, NotHermitian, NotBlockDiagonal, TraceNotOne, NotPositive
        For the first failing matrix of the stack, the first check it fails,
        with the violation magnitude: the error a loop of validate_density
        over the stack would raise.
    """
    return _validate_with_spectra(ms, alg, tol)[0]


def _validate_with_spectra(ms: np.ndarray, alg: AlgebraDescriptor, tol: float | np.ndarray):
    """validate_stack, and the (B, n) ascending eigvalsh of each matrix it
    returns: its positivity check's, for consumers not to decompose again."""
    _require_tol(tol)
    ms = np.asarray(ms, dtype=complex)
    n = alg.dim
    if ms.ndim != 3 or ms.shape[1:] != (n, n):
        raise ValueError(
            f"expected {n} x {n} matrices for algebra {alg.block_sizes}, got shape {ms.shape}"
        )
    # the stacks are small: one count_nonzero per check is cheaper than a
    # reduction, and magnitudes are only worked out for the failing matrix
    adjoint = ms.conj().swapaxes(1, 2)
    # inf - inf is NaN, which the guard below refuses as NotFinite
    with np.errstate(invalid="ignore"):
        asym = np.abs(ms - adjoint)
    ok = asym <= linalg.HERMITICITY_TOL
    if np.count_nonzero(ok) != ok.size:
        b = int(np.argmin(ok.reshape(len(ms), n * n).all(axis=1)))
        validate_stack(ms[:b], alg, np.broadcast_to(tol, len(ms))[:b])  # an earlier failure raises
        if not np.isfinite(ms[b]).all():
            raise NotFinite("matrix has a NaN or infinite entry")
        raise NotHermitian("matrix is not Hermitian", magnitude=float(np.max(asym[b])))
    h = 0.5 * (ms + adjoint)
    tr_dev = np.abs(h.diagonal(axis1=1, axis2=2).real.sum(axis=1) - 1.0)
    ok = tr_dev <= tol
    if alg.num_blocks > 1:
        ok &= np.abs(h[:, linalg.off_block_mask(alg.block_sizes)]).max(axis=1) <= tol
    if np.count_nonzero(ok) != len(ok):
        b = int(np.argmin(ok))
        tols = np.broadcast_to(tol, len(ms))
        validate_stack(ms[:b], alg, tols[:b])
        off = linalg.off_block_magnitude(h[b], alg.block_sizes)
        if not off <= tols[b]:
            raise NotBlockDiagonal(
                f"off-block entries present for algebra {alg.block_sizes}", magnitude=off
            )
        raise TraceNotOne("trace differs from 1", magnitude=float(tr_dev[b]))
    w = np.linalg.eigvalsh(h)
    ok = w[:, 0] >= -tol
    if np.count_nonzero(ok) != len(ok):
        b = int(np.argmin(ok))
        raise NotPositive("matrix has a negative eigenvalue", magnitude=-float(w[b, 0]))
    h.flags.writeable = False
    return h, w


def validate_density(
    m: np.ndarray, alg: AlgebraDescriptor, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Validate m as a density matrix of alg: validate_stack on the stack of
    one matrix m.

    Returns
    -------
    DensityMatrix
        Wrapping the Hermitized matrix, with the validation tol attached.

    Raises
    ------
    NotFinite, NotHermitian, NotBlockDiagonal, TraceNotOne, NotPositive
        Naming the violated invariant, with the violation magnitude.
    """
    h, w = _validate_with_spectra(np.asarray(m, dtype=complex)[None], alg, tol)
    return _validated_states(h, w, alg, tol)[0]


def _validated_states(hs, spectra, alg: AlgebraDescriptor, tol: float) -> list[DensityMatrix]:
    """DensityMatrix views of the rows of a stack that _validate_with_spectra
    returned for alg at tol, each carrying its row of the spectra."""
    return [DensityMatrix(alg, h, tol, True, w) for h, w in zip(hs, spectra)]


def is_psd_eigen(m: np.ndarray) -> bool:
    """Positive semidefiniteness by the eigenvalue route: min eig >= -DEFAULT_TOL."""
    h = linalg.as_hermitian(m)
    return bool(np.linalg.eigvalsh(h)[0] >= -DEFAULT_TOL)


def is_psd_sylvester(m: np.ndarray) -> bool:
    """Positive semidefiniteness by the principal-minor route.

    True iff every principal minor (all 2^n - 1 of them) is >= -DEFAULT_TOL * scale,
    where scale is the Hadamard bound of the submatrix (product of its row
    norms, floored at 1). The Hadamard scaling keeps the threshold meaningful
    for minors whose honest value is a large product.

    Kept deliberately independent of the eigenvalue route so the two can
    cross-check each other.

    Raises
    ------
    DimensionTooLarge
        For n > 12 (the minor count doubles per dimension).
    """
    h = linalg.as_hermitian(m)
    n = h.shape[0]
    if n > SYLVESTER_MAX_DIM:
        raise DimensionTooLarge(
            f"refusing {2 ** n - 1} principal minors for n = {n} > {SYLVESTER_MAX_DIM}"
        )
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        idx = np.array(subsets)
        sub = h[idx[:, :, None], idx[:, None, :]]
        minors = np.linalg.det(sub).real
        row_norms = np.linalg.norm(sub, axis=2)
        scales = np.maximum(1.0, np.prod(row_norms, axis=1))
        if bool(np.any(minors < -DEFAULT_TOL * scales)):
            return False
    return True


def is_pure(rho: DensityMatrix) -> bool:
    """Whether rho is a pure state: rho^2 = rho within rho.tol (HS norm)."""
    m = rho.matrix
    return linalg.hs_norm(m @ m - m) <= rho.tol


def maximally_mixed(alg: AlgebraDescriptor) -> DensityMatrix:
    """The normalized identity of the algebra."""
    n = alg.dim
    return validate_density(np.eye(n, dtype=complex) / n, alg)


def bloch_matrix(t: float, x) -> np.ndarray:
    """The 2x2 Hermitian matrix with trace t and Bloch vector x.

    [[t + x3, x1 - i x2], [x1 + i x2, t - x3]] / 2; eigenvalues
    (t +- |x|) / 2. Not validated: callers that need a state use bloch_state.
    """
    x1, x2, x3 = (float(c) for c in x)
    return 0.5 * np.array(
        [[t + x3, x1 - 1j * x2], [x1 + 1j * x2, t - x3]], dtype=complex
    )


def bloch_state(x, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State of M_2(C) with Bloch vector x, |x| <= 1: bloch_matrix(1, x).

    Pure exactly when |x| = 1.
    """
    return validate_density(bloch_matrix(1.0, x), full_algebra(2), tol)


def cone_matrix(t: float, x) -> np.ndarray:
    """3x3 block matrix diag(1 - t) (+) bloch_matrix(t, x) for C (+) M_2(C).

    Eigenvalues 1 - t and (t +- |x|) / 2.
    """
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0 - float(t)
    m[1:, 1:] = bloch_matrix(t, x)
    return m


def cone_algebra() -> AlgebraDescriptor:
    """C (+) M_2(C), the smallest algebra whose state space is a solid cone."""
    return AlgebraDescriptor((1, 2))


def cone_state(t: float, x, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State of C (+) M_2(C) with weight 1 - t on the line and Bloch vector x.

    Valid for 0 <= t <= 1 and |x| <= t; a projection exactly at t in {0, 1}
    with |x| = t; maximally mixed at t = 2/3, x = 0.
    """
    return validate_density(cone_matrix(t, x), cone_algebra(), tol)


def simplex_state(p, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State diag(p) of the commutative algebra C^n (p in the simplex)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a probability vector, got shape {p.shape}")
    return validate_density(np.diag(p).astype(complex), commutative_algebra(p.size), tol)
