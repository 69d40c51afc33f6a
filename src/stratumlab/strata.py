"""Rank strata of the density matrices of a block-diagonal algebra.

The density matrices of M_{n_1} (+) ... (+) M_{n_k} are partitioned by the
tuple of per-block ranks. Each piece (stratum) is a smooth manifold; over a
full matrix block, the rank-i stratum fibers over the Grassmannian of
(n - i)-dimensional kernels with positive-definite trace-normalized fibers,
giving real dimension 2 i (n - i) + i^2 - 1. For a direct sum the diagonal
tangent directions in the eigenframe form one trace-free family over the
range positions of all blocks: one trace constraint, not one per block.

Rank decisions follow a strict tolerance protocol: eigenvalues must stay out
of a gray zone around tol (_rank_decision), otherwise the classification
refuses to answer rather than guessing.
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
    _validate_with_spectra,
    _validated_states,
)


def _rank_decision(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The count of the values w above tol over its last axis, and the mask
    of the values in the gray zone (tol/10, 10 tol), where it is a coin flip."""
    _require_tol(tol)
    return (w > tol).sum(axis=-1), (w > tol / 10.0) & (w < 10.0 * tol)


def rank_from_eigenvalues(w: np.ndarray, tol: float) -> int | np.ndarray:
    """Count eigenvalues (or singular values) above tol over the last axis:
    an int for a 1-d w, an integer array of w.shape[:-1] otherwise. Raises
    AmbiguousRank for the first value in the gray zone, in row-major order,
    and ValueError unless tol is finite and > 0."""
    w = np.asarray(w, dtype=float)
    counts, gray = _rank_decision(w, tol)
    if np.count_nonzero(gray):
        raise AmbiguousRank(float(w[gray][0]), tol)
    return int(counts) if w.ndim <= 1 else counts


def numerical_rank(rho: DensityMatrix) -> int:
    """Rank of a density matrix under the gray-zone protocol at rho.tol;
    ValueError when rho.tol declares every eigenvalue zero (rank 0)."""
    if not (i := rank_from_eigenvalues(rho.eigenvalues(), rho.tol)):
        raise ValueError(f"tolerance {rho.tol:.6g} declares every eigenvalue of the state zero")
    return i


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


def _stack_decision(hs: np.ndarray, alg: AlgebraDescriptor, tol, spectrum=None):
    """The rank decision on each matrix of a validated (B, n, n) stack of
    alg: its (B, num_blocks) per-block ranks, and its (B, num_blocks, m)
    block eigenvalues in the gray zone, which leave them undecided, NaN
    elsewhere, at tol or (B, 1, 1) per-row tols. Per block one eigvalsh, or
    for one block _validate_with_spectra's spectrum of hs, if given: same bits."""
    spectra = linalg.block_eigvalsh(hs, alg.block_sizes, spectrum)
    # zero padding lies below the gray zone, so it neither counts nor refuses
    w = np.zeros((len(hs), alg.num_blocks, max(alg.block_sizes)))
    for b, wb in enumerate(spectra):
        w[:, b, : wb.shape[1]] = wb
    ranks, gray = _rank_decision(w, tol)
    return ranks, np.where(gray, w, np.nan)


def classify_stack(
    hs: np.ndarray, alg: AlgebraDescriptor, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Per-block ranks of a validated (B, n, n) stack of density matrices of
    alg (as validate_stack returns it), as a (B, num_blocks) integer array.
    Raises AmbiguousRank for the first matrix _stack_decision leaves
    undecided, naming the value a per-state loop would meet first."""
    return _classified(hs, alg, tol)


def _classified(hs: np.ndarray, alg: AlgebraDescriptor, tol: float, spectrum=None) -> np.ndarray:
    """classify_stack, its decision reading spectrum as _stack_decision does."""
    ranks, gray = _stack_decision(hs, alg, tol, spectrum)
    undecided = gray[~np.isnan(gray)]
    if undecided.size:
        raise AmbiguousRank(float(undecided[0]), tol)
    return ranks


def classify(rho: DensityMatrix) -> StratumLabel:
    """Stratum label (per-block ranks) of a density matrix: classify_stack on
    the stack of one matrix, at rho.tol, reading rho's validation spectrum.

    Raises AmbiguousRank if any block eigenvalue is in the tolerance gray
    zone.
    """
    ranks = _classified(rho.matrix[None], rho.alg, rho.tol, rho.eigenvalues()[None])[0]
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
    ranges: list[int] = []  # range positions of every block, in order
    at = 0
    for nb, ib in zip(block_sizes, per_block):
        kept = range(at + nb - ib, at + nb)
        # range x kernel couplings, then the off-diagonal directions inside
        # the range block
        pairs = [(r, q) for r in kept for q in range(at, at + nb - ib)]
        pairs += [(r, s) for x, r in enumerate(kept) for s in kept[x + 1 :]]
        for r, q in pairs:
            outer = np.outer(eye[r], eye[q])
            basis.append((outer + outer.T) / np.sqrt(2.0))
            basis.append((1j * outer - 1j * outer.T) / np.sqrt(2.0))
        ranges += kept
        at += nb
    # trace-free diagonal directions over the joint range (Helmert)
    for a in range(1, len(ranges)):
        w = np.zeros(n)
        w[ranges[:a]] = 1.0
        w[ranges[a]] = -a
        basis.append(np.diag(w / np.sqrt(a * (a + 1))))
    template = np.array(basis, dtype=complex).reshape(len(basis), n, n)
    template.flags.writeable = False
    return template


def tangent_basis_stack(hs: np.ndarray, label: StratumLabel) -> np.ndarray:
    """Orthonormal bases of the tangent spaces of one stratum at each matrix
    of a validated (B, n, n) stack of its points (as validate_stack returns
    it), as a (B, d, n, n) array, d = stratum_dim_label(label).

    Item b is W_b T W_b^dagger, T the fixed template of the stratum and W_b
    the block-diagonal gauge-fixed eigenframe of hs[b]; the frames of all
    items come from one stacked eigh_fixed per block (validation's eigvalsh
    gives no frames); then W_b [T_1 ... T_d], as d row blocks, times W_b^dagger.
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
    b, d = len(hs), len(template)
    rows = (frame @ template.transpose(1, 0, 2).reshape(n, d * n)).reshape(b, n, d, n)
    rows = rows.transpose(0, 2, 1, 3).reshape(b, d * n, n)
    return (rows @ frame.conj().swapaxes(1, 2)).reshape(b, d, n, n)


def tangent_basis(rho: DensityMatrix, *, label: StratumLabel | None = None) -> np.ndarray:
    """Orthonormal basis of the tangent space of rho's stratum at rho:
    tangent_basis_stack on the stack of one matrix.

    The tangent space is the set of block-diagonal Hermitian H with total
    trace zero whose compression to the kernel of rho vanishes
    (P_ker H P_ker = 0). The basis is built exactly in the eigenframe of each
    block: range-kernel couplings and off-diagonal range directions per
    block, then one Helmert family of trace-free diagonal directions over
    the range positions of all blocks.

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
    ms, _, lead = _retract_with_spectra(hs, label, tol)
    return ms, lead


def _retract_with_spectra(hs: np.ndarray, label: StratumLabel, tol: float):
    """retract_stack, with ms's spectra (_validate_with_spectra): (ms, spectra, lead)."""
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
    return *_validate_with_spectra(linalg.hermitian_part(m), label.alg, tol), lead


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
    ms, spectra, lead = _retract_with_spectra(np.asarray(h, dtype=complex)[None], label, tol)
    if not lead[0] > 0:
        raise ValueError(
            f"cannot retract: leading block eigenvalue {lead[0]:.3e} is not positive"
        )
    return _validated_states(ms, spectra, label.alg, tol)[0]
