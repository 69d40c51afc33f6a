"""Rank strata of the density matrices of a block-diagonal algebra.

The density matrices of M_{n_1} (+) ... (+) M_{n_k} are partitioned by the
tuple of per-block ranks. Each piece (stratum) is a smooth manifold; over a
full matrix block, the rank-i stratum fibers over the Grassmannian of
(n - i)-dimensional kernels with positive-definite trace-normalized fibers,
giving real dimension 2 i (n - i) + i^2 - 1.

Rank decisions follow a strict tolerance protocol: eigenvalues must stay out
of the gray zone (tol/10, 10 tol), otherwise the classification refuses to
answer rather than guessing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbiguousRank
from .states import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    DensityMatrix,
    _require_tol,
    _validated_states,
    validate_stack,
)


def rank_from_eigenvalues(w: np.ndarray, tol: float) -> int | np.ndarray:
    """Count eigenvalues above tol, enforcing the gray-zone protocol.

    Any value inside the open interval (tol/10, 10 tol) makes the count a
    coin flip, so AmbiguousRank is raised instead, naming the first such
    value in row-major order. Works on singular values too.

    Counts over the last axis: an int for a 1-d w, an integer array of
    w.shape[:-1] otherwise. Raises ValueError unless tol is finite and > 0.
    """
    _require_tol(tol)
    w = np.asarray(w, dtype=float)
    in_zone = (w > tol / 10.0) & (w < 10.0 * tol)
    if np.count_nonzero(in_zone):
        raise AmbiguousRank(float(w[in_zone][0]), tol)
    above = w > tol
    return int(np.count_nonzero(above)) if w.ndim <= 1 else above.sum(axis=-1)


def numerical_rank(rho: DensityMatrix) -> int:
    """Rank of a density matrix under the gray-zone protocol at rho.tol,
    clamped to >= 1.

    The clamp is sound: a trace-one PSD matrix cannot vanish.
    """
    return max(1, rank_from_eigenvalues(rho.eigenvalues(), rho.tol))


@dataclass(frozen=True)
class StratumLabel:
    """Per-block ranks identifying one stratum of an algebra's state space."""

    alg: AlgebraDescriptor
    per_block: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(i) for i in self.per_block)
        if len(ranks) != self.alg.num_blocks:
            raise ValueError(
                f"{len(ranks)} ranks for {self.alg.num_blocks} blocks"
            )
        for i, n in zip(ranks, self.alg.block_sizes):
            if not 0 <= i <= n:
                raise ValueError(f"block rank {i} outside [0, {n}]")
        if sum(ranks) == 0:
            raise ValueError("total rank 0 labels no stratum of the state space")
        object.__setattr__(self, "per_block", ranks)

    @property
    def total(self) -> int:
        return sum(self.per_block)


def classify_stack(
    hs: np.ndarray, alg: AlgebraDescriptor, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Per-block ranks of a validated (B, n, n) stack of density matrices of
    alg (as validate_stack returns it), as a (B, num_blocks) integer array.

    Raises AmbiguousRank if any block eigenvalue is in the tolerance gray
    zone, naming the value a per-state loop would meet first.
    """
    spectra = linalg.block_eigvalsh(hs, alg.block_sizes)
    # zero padding is below tol / 10, so it neither counts nor refuses
    w = np.zeros((len(hs), alg.num_blocks, max(alg.block_sizes)))
    for b, wb in enumerate(spectra):
        w[:, b, : wb.shape[1]] = wb
    return rank_from_eigenvalues(w, tol)


def classify(rho: DensityMatrix) -> StratumLabel:
    """Stratum label (per-block ranks) of a density matrix: classify_stack on
    the stack of one matrix, at rho.tol.

    Raises AmbiguousRank if any block eigenvalue is in the tolerance gray
    zone.
    """
    ranks = classify_stack(rho.matrix[None], rho.alg, rho.tol)[0]
    return StratumLabel(alg=rho.alg, per_block=tuple(ranks.tolist()))


def stratum_dim(n: int, i: int) -> int:
    """Real dimension of the rank-i stratum in the states of M_n(C).

    2 i (n - i) from the Grassmannian of kernels plus i^2 - 1 for the
    trace-one positive-definite fiber; equivalently n^2 - (n - i)^2 - 1.
    """
    if not 1 <= i <= n:
        raise ValueError(f"rank must satisfy 1 <= i <= n, got i={i}, n={n}")
    return 2 * i * (n - i) + i * i - 1


def stratum_dim_label(label: StratumLabel) -> int:
    """Real dimension of the stratum of a direct sum: per-block counts minus
    one global trace constraint."""
    total = 0
    for i, n in zip(label.per_block, label.alg.block_sizes):
        total += n * n - (n - i) * (n - i)
    return total - 1


def frontier_leq(a: StratumLabel, b: StratumLabel) -> bool:
    """Frontier partial order: a's stratum lies in the closure of b's.

    For block-diagonal algebras this is the componentwise per-block rank
    order (closing a stratum can only drop ranks, independently per block).
    """
    if a.alg != b.alg:
        raise ValueError("labels belong to different algebras")
    return all(ia <= ib for ia, ib in zip(a.per_block, b.per_block))


def _contrast_coefficients(weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to weights in R^k.

    Columns 2..k of the Householder reflection sending e_1 to the normalized
    weight vector; deterministic, exactly orthonormal.
    """
    s = np.asarray(weights, dtype=float)
    k = s.size
    s = s / np.linalg.norm(s)
    e1 = np.zeros(k)
    e1[0] = 1.0
    w = s - e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        h = np.eye(k)
    else:
        w = w / nw
        h = np.eye(k) - 2.0 * np.outer(w, w)
        # first column of h is -s when built this way; flip signs so h[:,0] = s
        if np.dot(h[:, 0], s) < 0:
            h = -h
    return h[:, 1:]


@functools.lru_cache(maxsize=64)
def _tangent_template(block_sizes: tuple[int, ...], per_block: tuple[int, ...]) -> np.ndarray:
    """Tangent basis of a stratum written in the per-block eigenframe.

    Returns the read-only (d, n, n) array T such that the tangent basis at
    any point of the stratum is W T W^dagger, W being the point's
    block-diagonal eigenframe (eigenvalues ascending within each block, so a
    block's kernel comes before its range).
    """
    n = sum(block_sizes)
    eye = np.eye(n)
    basis: list[np.ndarray] = []
    units: list[np.ndarray] = []  # diagonals of the normalized range projectors
    occupied: list[int] = []
    at = 0
    for nb, ib in zip(block_sizes, per_block):
        if ib >= 1:
            kept = range(at + nb - ib, at + nb)
            # range x kernel couplings, then the off-diagonal directions
            # inside the range block
            pairs = [(r, q) for r in kept for q in range(at, at + nb - ib)]
            pairs += [(r, s) for x, r in enumerate(kept) for s in kept[x + 1 :]]
            for r, q in pairs:
                outer = np.outer(eye[r], eye[q])
                basis.append((outer + outer.T) / np.sqrt(2.0))
                basis.append((1j * outer - 1j * outer.T) / np.sqrt(2.0))
            # traceless diagonal directions inside the range block
            for a in range(1, ib):
                w = np.zeros(n)
                w[kept[:a]] = 1.0
                w[kept[a]] = -a
                basis.append(np.diag(w / np.sqrt(a * (a + 1))))
            units.append(np.zeros(n))
            units[-1][kept] = 1.0 / np.sqrt(ib)
            occupied.append(ib)
        at += nb
    # relative weights between occupied blocks (trace-free combinations of
    # the normalized range projectors)
    if len(occupied) > 1:
        contrasts = _contrast_coefficients(np.sqrt(np.asarray(occupied, dtype=float)))
        basis += [np.diag(w) for w in contrasts.T @ np.array(units)]
    template = np.array(basis, dtype=complex).reshape(len(basis), n, n)
    template.flags.writeable = False
    return template


def tangent_basis_stack(hs: np.ndarray, label: StratumLabel) -> np.ndarray:
    """Orthonormal bases of the tangent spaces of one stratum at each matrix
    of a validated (B, n, n) stack of its points (as validate_stack returns
    it), as a (B, d, n, n) array, d = stratum_dim_label(label).

    Item b is W_b T W_b^dagger, T the fixed template of the stratum and W_b
    the block-diagonal gauge-fixed eigenframe of hs[b]; the frames of all
    items come from one stacked eigh_fixed per block.
    """
    hs = np.asarray(hs, dtype=complex)
    n = label.alg.dim
    if hs.ndim != 3 or hs.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices, got shape {hs.shape}")
    frame = np.zeros_like(hs)
    for sl, nb, ib in zip(label.alg.block_slices(), label.alg.block_sizes, label.per_block):
        # an unoccupied block has no tangent directions; any frame will do
        frame[:, sl, sl] = linalg.eigh_fixed(hs[:, sl, sl])[1] if ib else np.eye(nb)
    template = _tangent_template(label.alg.block_sizes, label.per_block)
    return frame[:, None] @ template @ frame.conj().swapaxes(1, 2)[:, None]


def tangent_basis(rho: DensityMatrix, *, label: StratumLabel | None = None) -> np.ndarray:
    """Orthonormal basis of the tangent space of rho's stratum at rho:
    tangent_basis_stack on the stack of one matrix.

    The tangent space is the set of block-diagonal Hermitian H with total
    trace zero whose compression to the kernel of rho vanishes
    (P_ker H P_ker = 0). The basis is built exactly in the eigenframe of each
    block: range-range traceless directions, range-kernel couplings, and the
    relative block-weight contrasts.

    Returns a (d, n, n) array, d = stratum_dim_label of the stratum, whose
    slices are HS-orthonormal Hermitian matrices. It is W T W^dagger with T
    a fixed template of the stratum and W the block-diagonal gauge-fixed
    eigenframe of rho, computed afresh for every call.

    Pass label to use construction-known ranks instead of the tolerance
    protocol at rho.tol.
    """
    if label is None:
        label = classify(rho)
    elif label.alg != rho.alg:
        raise ValueError("label belongs to a different algebra")
    return tangent_basis_stack(rho.matrix[None], label)[0]


def retract_stack(
    hs: np.ndarray, label: StratumLabel, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Retract each matrix of a (B, n, n) stack of Hermitian matrices to the
    labeled stratum, as retract_to_stratum does one.

    Per block, one stacked eigh_fixed; each item keeps its top i_b
    eigenpairs, and is renormalized to trace one and validated. An item
    whose kept eigenvalues are not all positive has no retraction; it is
    masked out rather than refused.

    Returns
    -------
    ms : ndarray
        The validated (P, n, n) stack (validate_stack) of the retractions
        of the P items with lead > 0, in stack order.
    lead : ndarray
        Per item, the smallest kept eigenvalue of its first block where it
        is not positive (else of its last occupied block): the item is
        retracted exactly when lead > 0.
    """
    hs = np.asarray(hs, dtype=complex)
    n = label.alg.dim
    if hs.ndim != 3 or hs.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices, got shape {hs.shape}")
    m = np.zeros_like(hs)
    lead = np.full(len(hs), np.inf)
    for sl, nb, ib in zip(label.alg.block_slices(), label.alg.block_sizes, label.per_block):
        if ib == 0:
            continue
        w, v = linalg.eigh_fixed(hs[:, sl, sl])
        top_w = w[:, nb - ib :]
        top_v = v[:, :, nb - ib :]
        lead = np.where(lead > 0, top_w[:, 0], lead)
        m[:, sl, sl] = (top_v * top_w[:, None, :]) @ top_v.conj().swapaxes(1, 2)
    m = m[lead > 0]
    m = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return validate_stack(linalg.hermitian_part(m), label.alg, tol), lead


def retract_to_stratum(
    h: np.ndarray, label: StratumLabel, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Nearest-by-truncation point of the labeled stratum to a Hermitian h:
    retract_stack on the stack of one matrix.

    Per block, keeps the top i_b eigenvalues (which must be positive), then
    renormalizes the total trace to one. Used to turn tangent steps into
    curves that stay inside a stratum.

    Raises ValueError when a kept eigenvalue is not positive.
    """
    ms, lead = retract_stack(np.asarray(h, dtype=complex)[None], label, tol)
    if not lead[0] > 0:
        raise ValueError(
            f"cannot retract: leading block eigenvalue {lead[0]:.3e} is not positive"
        )
    return _validated_states(ms, label.alg, tol)[0]
