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
import math
from typing import Sequence

import numpy as np

from .errors import NotFinite, NotHermitian, NotOrthonormal

HERMITICITY_TOL = 1e-12
# budget of exact structure: orthonormal frames, block diagonality, unitarity
STRUCTURE_TOL = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a^dagger)/2, of each matrix of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def as_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a (..., n, n) stack,
    rejecting real asymmetry.

    The anti-Hermitian part must have max entry modulus <= tol (over the
    whole stack); within that budget the Hermitian part is returned, so exact
    algebra downstream can rely on m == m^dagger holding identically.

    Raises
    ------
    NotFinite
        If an entry is NaN or infinite (checked first: such an entry would
        trip the asymmetry guard anyway, and inf - inf would warn).
    NotHermitian
        If the asymmetry exceeds tol.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NotFinite("matrix has a NaN or infinite entry")
    adjoint = a.conj().swapaxes(-1, -2)
    asym = float(np.abs(a - adjoint).max()) if a.size else 0.0
    if not asym <= tol:
        raise NotHermitian("matrix is not Hermitian", magnitude=asym)
    return 0.5 * (a + adjoint)


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(a^dagger b) of two Hermitian matrices.

    Real by Hermiticity of both arguments (which is assumed, not checked).
    """
    return float(np.vdot(a, b).real)


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt (Frobenius) norm over the last two axes: a float for
    one matrix (or vector), an array of a.shape[:-2] for a stack.

    The squared norm is a dot product of the strided real parts plus one of
    the strided imaginary parts, as np.linalg.norm forms it; a stack gets
    the same dot per item from one matmul, so every item's norm is the one
    np.linalg.norm gives it alone, bit for bit.
    """
    a = np.asarray(a)
    if a.ndim <= 2:
        x = a.ravel(order="K")
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    x = a.reshape(a.shape[:-2] + (1, a.shape[-2] * a.shape[-1]))
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def gauge_fix_columns(v: np.ndarray) -> np.ndarray:
    """Fix the phase of each column of a matrix, or of each matrix of a
    (..., n, m) stack: largest-modulus entry made real positive.

    Deterministic tie-break: the first index attaining the maximal modulus.
    Zero columns are returned unchanged.
    """
    # the columns of all matrices side by side, as one n x (B m) matrix
    cols = np.array(np.asarray(v).swapaxes(0, -2), dtype=complex, order="C")
    if cols.size == 0:
        return cols.swapaxes(0, -2)
    flat = cols.reshape(len(cols), -1)
    pivot = flat[np.abs(flat).argmax(axis=0), np.arange(flat.shape[1])]
    # hypot rounds like the scalar abs() of one entry; the vectorized
    # complex abs can differ from it in the last bit
    modulus = np.hypot(pivot.real, pivot.imag)
    flat *= np.divide(pivot.conj(), modulus, out=np.ones_like(pivot), where=modulus > 0.0)
    return cols.swapaxes(0, -2)


def eigh_fixed(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    (..., n, n) stack, with a deterministic gauge.

    Parameters
    ----------
    a : ndarray
        Square matrix or stack of them, Hermitian within HERMITICITY_TOL.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order, (..., n).
    v : ndarray
        Orthonormal eigenvector columns, (..., n, n), phase-fixed so the
        largest-modulus entry of each column is real positive.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the eigensolver does not converge (reported, never truncated).
    """
    h = as_hermitian(a)
    w, v = np.linalg.eigh(h)
    return w, gauge_fix_columns(v)


def check_frame(columns: np.ndarray) -> np.ndarray:
    """Validate an orthonormal frame (n x d matrix of column vectors).

    Raises
    ------
    NotOrthonormal
        If columns^dagger columns deviates from the identity beyond
        STRUCTURE_TOL, or by NaN (the guard fails closed).
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {columns.shape}")
    n, d = columns.shape
    if d > n:
        raise ValueError(f"frame has more columns ({d}) than ambient dimensions ({n})")
    gram = columns.conj().T @ columns
    gram.flat[:: d + 1] -= 1.0  # gram - I, the identity subtracted in place
    dev = float(np.abs(gram).max()) if d else 0.0
    if not dev <= STRUCTURE_TOL:
        raise NotOrthonormal("frame columns are not orthonormal", magnitude=dev)
    return columns


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
    Hermitian matrices, one (B, n_b) array per block. A 1 x 1 block's is
    its real diagonal, the value eigvalsh returns for it, bit for bit."""
    out = []
    at = 0
    for size in block_sizes:
        block = ms[:, at : at + size, at : at + size]
        out.append(block[:, :, 0].real.copy() if size == 1 else np.linalg.eigvalsh(block))
        at += size
    return out
