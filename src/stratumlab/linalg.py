"""Hermitian matrix and subspace-frame primitives.

Everything downstream (states, strata, charts) is built on the handful of
operations here: the Hilbert-Schmidt inner product, eigendecompositions with a
fixed deterministic gauge, orthonormal frames and their projectors, and
block-diagonal embedding/extraction.

Matrices are plain complex numpy arrays; validation happens at the boundaries,
not inside the hot loops.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import NotFinite, NotHermitian, NotOrthonormal

HERMITICITY_TOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a^dagger)/2."""
    return 0.5 * (a + a.conj().T)


def as_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Symmetrize a square matrix, rejecting real asymmetry.

    The anti-Hermitian part must have max entry modulus <= tol; within that
    budget the Hermitian part is returned, so exact algebra downstream can
    rely on m == m^dagger holding identically.

    Raises
    ------
    NotFinite
        If an entry is NaN or infinite (such an entry always trips the
        asymmetry guard, so finite input pays nothing for this check).
    NotHermitian
        If the asymmetry exceeds tol.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not asym <= tol:
        if not np.isfinite(a).all():
            raise NotFinite("matrix has a NaN or infinite entry")
        raise NotHermitian("matrix is not Hermitian", magnitude=asym)
    return hermitian_part(a)


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(a^dagger b) of two Hermitian matrices.

    Real by Hermiticity of both arguments (which is assumed, not checked).
    """
    return float(np.vdot(a, b).real)


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def gauge_fix_columns(v: np.ndarray) -> np.ndarray:
    """Fix the phase of each column: largest-modulus entry made real positive.

    Deterministic tie-break: the first index attaining the maximal modulus.
    Zero columns are returned unchanged.
    """
    v = np.array(v, dtype=complex, copy=True)
    if v.size == 0:
        return v
    cols = np.arange(v.shape[1])
    k = np.argmax(np.abs(v), axis=0)
    pivot = v[k, cols]
    # hypot rounds like the scalar abs() of one entry; the vectorized
    # complex abs can differ from it in the last bit
    modulus = np.hypot(pivot.real, pivot.imag)
    phase = np.divide(pivot.conj(), modulus, out=np.ones_like(pivot), where=modulus > 0.0)
    v *= phase
    return v


def eigh_fixed(a: np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Parameters
    ----------
    a : ndarray
        Square matrix, Hermitian within tol.
    tol : float
        Hermiticity budget passed to as_hermitian.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order.
    v : ndarray
        Orthonormal eigenvector columns, phase-fixed so the largest-modulus
        entry of each column is real positive.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the eigensolver does not converge (reported, never truncated).
    """
    h = as_hermitian(a, tol)
    w, v = np.linalg.eigh(h)
    return w, gauge_fix_columns(v)


def check_frame(columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate an orthonormal frame (n x d matrix of column vectors).

    Raises
    ------
    NotOrthonormal
        If columns^dagger columns deviates from the identity beyond tol.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {columns.shape}")
    n, d = columns.shape
    if d > n:
        raise ValueError(f"frame has more columns ({d}) than ambient dimensions ({n})")
    gram = columns.conj().T @ columns
    dev = float(np.max(np.abs(gram - np.eye(d)))) if d else 0.0
    if dev > tol:
        raise NotOrthonormal("frame columns are not orthonormal", magnitude=dev)
    return columns


def orth_projector(columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the span of the (validated) frame columns."""
    columns = check_frame(columns, tol)
    p = columns @ columns.conj().T
    return hermitian_part(p)


def frame_complement(columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal frame spanning the orthogonal complement of the given frame.

    Computed from the full QR factorization of the frame; the result is
    gauge-fixed, so it is deterministic for a given input.
    """
    columns = check_frame(columns, tol)
    n, d = columns.shape
    if d == n:
        return np.zeros((n, 0), dtype=complex)
    if d == 0:
        return gauge_fix_columns(np.eye(n, dtype=complex))
    q, _ = np.linalg.qr(columns, mode="complete")
    comp = q[:, d:]
    # projector residual guards against a rank-deficient input frame
    resid = comp - (np.eye(n) - columns @ columns.conj().T) @ comp
    if float(np.max(np.abs(resid))) > 1e2 * tol:
        raise NotOrthonormal(
            "complement construction failed; input frame may be degenerate",
            magnitude=float(np.max(np.abs(resid))),
        )
    return gauge_fix_columns(comp)


def block_embed(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble square blocks into one block-diagonal matrix."""
    sizes = []
    for b in blocks:
        b = np.asarray(b)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"blocks must be square, got shape {b.shape}")
        sizes.append(b.shape[0])
    n = sum(sizes)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b, size in zip(blocks, sizes):
        out[at : at + size, at : at + size] = b
        at += size
    return out


def block_extract(m: np.ndarray, block_sizes: Sequence[int]) -> list[np.ndarray]:
    """Cut the diagonal blocks of sizes block_sizes out of a square matrix."""
    m = np.asarray(m)
    n = sum(block_sizes)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match blocks {tuple(block_sizes)}")
    out = []
    at = 0
    for size in block_sizes:
        out.append(np.array(m[at : at + size, at : at + size]))
        at += size
    return out


@functools.lru_cache(maxsize=64)
def off_block_mask(block_sizes: tuple[int, ...]) -> np.ndarray:
    """Read-only boolean n x n mask of the entries outside the diagonal
    blocks (n = sum of block_sizes); cached per block_sizes."""
    n = sum(block_sizes)
    mask = np.ones((n, n), dtype=bool)
    at = 0
    for size in block_sizes:
        mask[at : at + size, at : at + size] = False
        at += size
    mask.flags.writeable = False
    return mask


def off_block_magnitude(m: np.ndarray, block_sizes: Sequence[int]) -> float:
    """Largest entry modulus outside the diagonal blocks."""
    m = np.asarray(m)
    n = sum(block_sizes)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match blocks {tuple(block_sizes)}")
    mask = off_block_mask(tuple(int(size) for size in block_sizes))
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(m[mask])))


def block_eigvalsh(ms: np.ndarray, block_sizes: Sequence[int]) -> list[np.ndarray]:
    """Ascending eigenvalues of each diagonal block of a (B, n, n) stack of
    Hermitian matrices: one (B, n_b) array per block, in block order."""
    out = []
    at = 0
    for size in block_sizes:
        out.append(np.linalg.eigvalsh(ms[:, at : at + size, at : at + size]))
        at += size
    return out
