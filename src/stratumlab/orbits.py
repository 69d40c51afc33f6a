"""Orbit types of the block-unitary adjoint action on density matrices.

The unitary group of a block-diagonal algebra acts by conjugation. The orbit
of a density matrix is determined by its per-block eigenvalue multiset, and
its orbit TYPE by the per-block multiplicity pattern of eigenvalue clusters
(including the zero cluster, which is a cluster like any other). The isotropy
group of a point is the product of unitary groups of the clusters, so its
dimension is the sum of squared multiplicities.

Orbit types are ordered the standard (counter-intuitive) way: a type is
smaller when its isotropy is bigger, so the maximally mixed state is the
minimum and generic (all eigenvalues simple per block) points are maximal.
On multiplicity patterns this is per-block partition refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbiguousClustering, DimensionTooLarge, NotInAlgebra, NotUnitary
from .states import DEFAULT_TOL, AlgebraDescriptor, DensityMatrix, _require_tol, _stack_of
from .states import validate_density
from .strata import rank_from_eigenvalues

DEFAULT_CLUSTER_TOL = 1e-8
# largest block orbit_dim_stack accepts: a block of size n costs a B n^4
# complex tensor and the Hermitian eigenvalues of an n^2 x n^2 orbit map per item
ORBIT_DIM_MAX_BLOCK = 32


@dataclass(frozen=True)
class OrbitSignature:
    """Per-block eigenvalue-cluster multiplicities, each block descending."""

    alg: AlgebraDescriptor
    per_block: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.per_block) != self.alg.num_blocks:
            raise ValueError(
                f"{len(self.per_block)} block patterns for {self.alg.num_blocks} blocks"
            )
        fixed = []
        for mults, n in zip(self.per_block, self.alg.block_sizes):
            mults = tuple(int(m) for m in mults)
            if any(m < 1 for m in mults) or sum(mults) != n:
                raise ValueError(f"multiplicities {mults} do not partition block size {n}")
            if tuple(sorted(mults, reverse=True)) != mults:
                raise ValueError(f"multiplicities {mults} must be sorted descending")
            fixed.append(mults)
        object.__setattr__(self, "per_block", tuple(fixed))


def _multiplicities(boundaries: tuple[bool, ...], block_sizes: tuple[int, ...]) -> tuple:
    """Per-block cluster sizes, each block descending, from the flags marking
    which consecutive sorted eigenvalues of each block start a new cluster
    (block_sizes[b] - 1 flags per block, blocks concatenated)."""
    flags = iter(boundaries)
    patterns = []
    for n in block_sizes:
        sizes = [1]
        for _ in range(n - 1):
            if next(flags):
                sizes.append(1)
            else:
                sizes[-1] += 1
        patterns.append(tuple(sorted(sizes, reverse=True)))
    return tuple(patterns)


def orbit_signature_stack(
    hs: np.ndarray, alg: AlgebraDescriptor, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list[OrbitSignature]:
    """Cluster multiplicity pattern of each block of each matrix of a
    validated (B, n, n) stack of density matrices of alg.

    Single-linkage clustering of each block's sorted eigenvalues:
    consecutive values within cluster_tol merge; the resulting clusters must
    then be separated by more than 10 * cluster_tol, else the pattern is
    declared ambiguous. Matrices with equal patterns share one (immutable)
    OrbitSignature. cluster_tol must be finite and > 0 (else ValueError).

    Raises
    ------
    AmbiguousClustering
        If two clusters in some block are separated by less than
        10 * cluster_tol, naming the gap a per-state loop would meet first.
    """
    codes, signatures = _clusters(linalg.block_eigvalsh(hs, alg.block_sizes), alg, cluster_tol)
    return [signatures[code] for code in codes.tolist()]


def _clusters(spectra, alg: AlgebraDescriptor, cluster_tol: float) -> tuple[np.ndarray, list]:
    """The clustering rule of orbit_signature_stack on the block spectra of
    a stack: a (B,) integer code per row into the list of its distinct
    signatures, in the order of their first row. Each distinct pattern of
    cluster boundaries is matched to all rows at once by a comparison, so
    no Python object is made per row."""
    _require_tol(cluster_tol, "cluster_tol")
    gaps = np.concatenate([w[:, 1:] - w[:, :-1] for w in spectra], axis=1)
    boundary = ~(gaps <= cluster_tol)
    ambiguous = boundary & (gaps < 10.0 * cluster_tol)
    if np.count_nonzero(ambiguous):
        raise AmbiguousClustering(float(gaps[ambiguous][0]), cluster_tol)
    codes, signatures = np.full(len(boundary), -1), []
    while (left := np.flatnonzero(codes < 0)).size:
        key = boundary[left[0]]
        codes[(boundary == key).all(axis=1)] = len(signatures)
        per_block = _multiplicities(tuple(key.tolist()), alg.block_sizes)
        signatures.append(OrbitSignature(alg=alg, per_block=per_block))
    return codes, signatures


def _type_counts(codes: np.ndarray, signatures: list, dims: np.ndarray, alg) -> dict:
    """{(signature, orbit dimension): rows} of a stack from its _clusters
    codes and signatures and its (B,) orbit_dim_stack dimensions: one
    bincount of the pairs, which no per-row object is made for."""
    width = alg.unitary_group_dim + 1
    table = np.bincount(codes * width + dims, minlength=len(signatures) * width)
    return {
        (signatures[k // width], k % width): int(table[k]) for k in np.flatnonzero(table).tolist()
    }


def orbit_signature(
    rho: DensityMatrix, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> OrbitSignature:
    """Cluster multiplicity pattern of each block of rho: orbit_signature_stack
    on the stack of one matrix, reading rho's validation spectrum.

    Raises
    ------
    AmbiguousClustering
        If two clusters in some block are separated by less than
        10 * cluster_tol.
    """
    codes, signatures = _clusters(_stack_of(rho).spectra, rho.alg, cluster_tol)
    return signatures[codes[0]]


def isotropy_dim(sig: OrbitSignature) -> int:
    """Real dimension of the stabilizer: sum of squared multiplicities."""
    return sum(m * m for mults in sig.per_block for m in mults)


def adjoint_act(u: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate rho by a block-diagonal unitary u.

    Both guards fail closed: a NaN entry of u is refused by the first check
    it reaches, before any conjugation.

    Raises
    ------
    NotInAlgebra
        If u has off-block entries above linalg.STRUCTURE_TOL.
    NotUnitary
        If u^dagger u deviates from the identity beyond linalg.STRUCTURE_TOL.
    """
    u = np.asarray(u, dtype=complex)
    n = rho.dim
    if u.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {u.shape}")
    off = linalg.off_block_magnitude(u, rho.alg.block_sizes)
    if not off <= linalg.STRUCTURE_TOL:
        raise NotInAlgebra("unitary is not block diagonal for this algebra", magnitude=off)
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if not dev <= linalg.STRUCTURE_TOL:
        raise NotUnitary("matrix is not unitary", magnitude=dev)
    return validate_density(u @ rho.matrix @ u.conj().T, rho.alg, rho.tol)


def orbit_dim_stack(
    hs: np.ndarray, alg: AlgebraDescriptor, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Dimension of the adjoint orbit through each matrix of a validated
    (B, n, n) stack of density matrices of alg, as a (B,) integer array.

    The orbit dimension is the rank of X -> [X, rho] over the block-diagonal
    anti-Hermitian X (the Lie algebra of the block unitary group). That real
    map has the singular values of the complex map vec(X) -> (I (x) rho_b^T -
    rho_b (x) I) vec(X) on each block b (row-major vec): the complex map is
    its complexification, and [X, rho] is Hermitian for anti-Hermitian X.
    That map is Hermitian for Hermitian rho_b (and built exactly so), so its
    singular values are the absolute values of its Hermitian eigenvalues,
    which the route takes (a block of size 1 has the zero map: one exact 0).
    Those of all blocks, descending, are thresholded with the gray-zone
    protocol; the route never looks at rho's spectrum or its clustering.
    Equals dim U(A) - isotropy_dim whenever clustering is clean.

    Raises
    ------
    DimensionTooLarge
        If a block is larger than ORBIT_DIM_MAX_BLOCK, before allocating.
    """
    largest = max(alg.block_sizes)
    if largest > ORBIT_DIM_MAX_BLOCK:
        raise DimensionTooLarge(
            f"refusing the Hermitian eigenvalues of a {largest ** 2} x {largest ** 2} orbit"
            f" map for a block of size {largest} > {ORBIT_DIM_MAX_BLOCK}"
        )
    sv = [np.zeros((len(hs), alg.block_sizes.count(1)))]  # one exact 0 per block of size 1
    for sl, n in ((sl, n) for sl, n in zip(alg.block_slices(), alg.block_sizes) if n > 1):
        rho = hs[:, sl, sl]
        # ad[:, i, j, k, l] = delta_ik rho[l, j] - rho[i, k] delta_jl, built in
        # place: the stack can be large
        ad = np.zeros((len(hs), n, n, n, n), dtype=complex)
        for i in range(n):
            ad[:, i, :, i, :] += rho.swapaxes(1, 2)
            ad[:, :, i, :, i] -= rho
        sv.append(np.abs(np.linalg.eigvalsh(ad.reshape(len(hs), n * n, n * n))))
    sv = np.concatenate(sv, axis=1)
    return rank_from_eigenvalues(-np.sort(-sv, axis=1), tol)


def orbit_dim(rho: DensityMatrix) -> int:
    """Dimension of the adjoint orbit through rho: orbit_dim_stack on the
    stack of one matrix, thresholded at rho.tol."""
    return int(orbit_dim_stack(rho.matrix[None], rho.alg, rho.tol)[0])


def _merges_to(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    """Whether the parts of `fine` can be grouped to sum to the parts of
    `coarse` (i.e. fine refines coarse as a partition): an exhaustive search
    that puts each part of fine, largest first, into some part of coarse with
    room left, trying parts with equal room left once."""

    def place(parts: tuple[int, ...], room: tuple[int, ...]) -> bool:
        if not parts:
            return True
        fits = {left: k for k, left in enumerate(room) if left >= parts[0]}
        return any(
            place(parts[1:], room[:k] + (room[k] - parts[0],) + room[k + 1 :])
            for k in fits.values()
        )

    return sum(fine) == sum(coarse) and place(tuple(sorted(fine, reverse=True)), tuple(coarse))


def orbit_type_leq(a: OrbitSignature, b: OrbitSignature) -> bool:
    """Partial order on orbit types: a <= b iff b's stabilizer embeds into
    a's, which for multiplicity patterns means that, per block, b's partition
    refines a's (a's parts are sums of groups of b's parts)."""
    if a.alg != b.alg:
        raise ValueError("signatures belong to different algebras")
    return all(
        _merges_to(fb, fa) for fa, fb in zip(a.per_block, b.per_block)
    )
