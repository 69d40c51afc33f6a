"""Seeded random ensembles: states, unitaries, and approach sequences.

Randomness contract: every draw is produced by a PCG64 generator seeded
through SeedSequence([seed, index, ...]), and all Gaussians are produced by
an explicit Box-Muller transform of uniform doubles. The transform is spelled
out here (rather than delegating to the generator's normal method) so the
byte content of golden outputs depends only on the uniform stream.

The Hilbert-Schmidt ensemble is rho = G G^dagger / Tr(G G^dagger) with G a
square complex Ginibre matrix; rank-constrained versions use rectangular G.
Haar unitaries come from the QR factorization of a Ginibre matrix with the
R-diagonal phase fix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import AmbiguousRank
from .states import AlgebraDescriptor, DensityMatrix, full_algebra, validate_density
from .strata import (
    StratumLabel,
    classify,
    numerical_rank,
    rank_from_eigenvalues,
    retract_to_stratum,
    stratum_coords,
    tangent_basis,
)

MAX_RESAMPLE = 100


def _rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one draw: PCG64 seeded by (seed, *path)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Gaussians via Box-Muller: z = sqrt(-2 ln(1-u1)) cos(2 pi u2) (and the
    matching sine draw), consuming two uniform arrays per output array."""
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with independent N(0,1) real and imaginary parts,
    drawn in polar form from two uniforms per entry."""
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    radius = np.sqrt(-np.log1p(-u1))
    return radius * np.exp(2j * np.pi * u2)


def ginibre(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n x m complex Ginibre matrix."""
    return complex_normal(rng, (n, m))


def _hs_matrix(n: int, seed: int, index: int) -> np.ndarray:
    """The unvalidated matrix of sample_hs(n, seed, index)."""
    g = ginibre(_rng(seed, 0, index), n, n)
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def sample_hs(n: int, seed: int, index: int = 0, tol: float = 1e-9) -> DensityMatrix:
    """Hilbert-Schmidt ensemble draw on the states of M_n(C)."""
    return validate_density(_hs_matrix(n, seed, index), full_algebra(n), tol)


def sample_rank(
    n: int, r: int, seed: int, index: int = 0, tol: float = 1e-9
) -> DensityMatrix:
    """Random rank-r state of M_n(C) from an n x r Ginibre factor.

    The rank is audited with the gray-zone protocol; the measure-zero
    failure event triggers a resample (fresh sub-stream, bounded retries).
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    for attempt in range(MAX_RESAMPLE):
        g = ginibre(_rng(seed, 1, index, attempt), n, r)
        m = g @ g.conj().T
        m = m / float(np.trace(m).real)
        rho = validate_density(m, full_algebra(n), tol)
        try:
            if numerical_rank(rho) == r:
                return rho
        except AmbiguousRank:
            continue
    raise RuntimeError(f"could not draw a clean rank-{r} state in {MAX_RESAMPLE} tries")


def sample_unitary(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a Ginibre matrix, with each
    column rephased by the sign of the corresponding R diagonal entry."""
    g = ginibre(_rng(seed, 2, index), n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_block_unitary(alg: AlgebraDescriptor, seed: int, index: int = 0) -> np.ndarray:
    """Independent Haar unitary on each block of the algebra."""
    blocks = [
        sample_unitary(nb, seed, index * alg.num_blocks + b)
        for b, nb in enumerate(alg.block_sizes)
    ]
    return linalg.block_embed(blocks)


def sample_hermitian(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Hermitian matrix of unit HS norm (GUE direction; generically
    indefinite)."""
    g = ginibre(_rng(seed, 3, index), n, n)
    h = linalg.hermitian_part(g)
    return h / linalg.hs_norm(h)


def _algebra_matrix(
    alg: AlgebraDescriptor, seed: int, ranks: tuple[int, ...] | None, index: int, attempt: int
) -> np.ndarray:
    """The unvalidated matrix of sample_algebra's draw number attempt; with
    ranks=None the first attempt is the draw."""
    rng = _rng(seed, 4, index, attempt)
    blocks = []
    for b, nb in enumerate(alg.block_sizes):
        r = nb if ranks is None else ranks[b]
        if r == 0:
            blocks.append(np.zeros((nb, nb), dtype=complex))
            continue
        g = ginibre(rng, nb, r)
        blocks.append(g @ g.conj().T)
    m = linalg.block_embed(blocks)
    return m / float(np.trace(m).real)


def sample_algebra(
    alg: AlgebraDescriptor,
    seed: int,
    ranks: tuple[int, ...] | None = None,
    index: int = 0,
    tol: float = 1e-9,
) -> DensityMatrix:
    """Random state of a block-diagonal algebra.

    With ranks=None each block gets a full Ginibre factor (the HS ensemble of
    the algebra, block weights arising from the block traces). Otherwise
    block b gets an n_b x ranks[b] factor (zero when ranks[b] = 0) and the
    per-block ranks are audited, resampling on the measure-zero failures.
    """
    if ranks is not None:
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != alg.num_blocks:
            raise ValueError(f"{len(ranks)} ranks for {alg.num_blocks} blocks")
        for r, nb in zip(ranks, alg.block_sizes):
            if not 0 <= r <= nb:
                raise ValueError(f"block rank {r} outside [0, {nb}]")
        if sum(ranks) == 0:
            raise ValueError("at least one block must have positive rank")
    for attempt in range(MAX_RESAMPLE):
        rho = validate_density(_algebra_matrix(alg, seed, ranks, index, attempt), alg, tol)
        if ranks is None:
            return rho
        try:
            if classify(rho).per_block == ranks:
                return rho
        except AmbiguousRank:
            continue
    raise RuntimeError(f"could not draw ranks {ranks} cleanly in {MAX_RESAMPLE} tries")


def _conditioned_mixture(rng: np.random.Generator, r: int) -> np.ndarray:
    """Trace-one positive matrix with smallest eigenvalue >= 1/(2r): half a
    normalized Wishart plus half the normalized identity."""
    g = ginibre(rng, r, r)
    w = g @ g.conj().T
    w = w / float(np.trace(w).real)
    return 0.5 * w + 0.5 * np.eye(r) / r


def _audit_rank(m: np.ndarray, expect: int, tol: float) -> None:
    w = np.linalg.eigvalsh(m)
    got = rank_from_eigenvalues(w, tol)
    if got != expect:
        raise RuntimeError(f"constructed point has rank {got}, expected {expect}")


def sequence_toward(
    y: DensityMatrix,
    j: int,
    rate: float = 0.5,
    length: int = 22,
    seed: int = 0,
    index: int = 0,
) -> list[tuple[DensityMatrix, DensityMatrix]]:
    """Geometric approach sequence to a rank-i state from the rank-j stratum.

    Produces pairs (x_k, y_k), k = 1..length, with delta_k = rate^k:

      x_k = (1 - delta_k) y + delta_k sigma, where sigma is a fixed random
            state of trace one supported on Ker(y) with rank j - i, so
            rank(x_k) = j exactly and ||x_k - y|| <= 2 delta_k;
      y_k = a tangent perturbation of y of size ~delta_k/2, retracted back to
            y's stratum, so y_k has rank i and ||y_k - y|| <= delta_k.

    Defined for single-block algebras (for per-block targets use
    sequence_toward_label). Every constructed rank is audited.
    """
    if y.alg.num_blocks != 1:
        raise ValueError(
            "integer-rank sequences are defined for single-block algebras; "
            "use sequence_toward_label for direct sums"
        )
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    n = y.dim
    i = numerical_rank(y)
    if not i < j <= n:
        raise ValueError(f"target rank must satisfy {i} < j <= {n}, got {j}")
    label_i = classify(y)
    label_j = StratumLabel(alg=y.alg, per_block=(j,))
    coords = stratum_coords(y)
    r = j - i
    rng = _rng(seed, 5, index)
    rot = sample_unitary(n - i, seed, 1000 + index)
    support = coords.kernel @ rot[:, :r]
    tau = _conditioned_mixture(rng, r)
    sigma = support @ tau @ support.conj().T
    basis = tangent_basis(y, label=label_i)
    out = []
    for k in range(1, length + 1):
        delta = rate**k
        xm = (1.0 - delta) * y.matrix + delta * sigma
        _audit_rank(xm, j, y.tol)
        x = validate_density(xm, y.alg, y.tol)
        h = np.tensordot(standard_normal(rng, len(basis)), basis, axes=1)
        h = h / linalg.hs_norm(h)
        step = 0.5 * delta
        for _ in range(30):
            try:
                yk = retract_to_stratum(y.matrix + step * h, label_i, y.tol)
            except ValueError:
                # the step left the truncation's domain (an eigenvalue that
                # must stay positive went negative); shrink like any overshoot
                step *= 0.5
                continue
            if linalg.hs_norm(yk.matrix - y.matrix) <= delta:
                break
            step *= 0.5
        else:
            raise RuntimeError("tangent retraction kept overshooting the step budget")
        _audit_rank(yk.matrix, i, y.tol)
        out.append((x, yk))
    return out


def approach_state(
    y: DensityMatrix,
    target: StratumLabel,
    delta: float = 4e-7,
    seed: int = 0,
    index: int = 0,
) -> DensityMatrix:
    """One state of the target stratum within 2*delta of y.

    Requires target >= classify(y) per block (rank can only be raised by a
    small perturbation; lowering it is impossible nearby). Blocks whose rank
    must rise get an extra summand supported on their kernel, weight split
    evenly; the per-block ranks of the result are audited.
    """
    label_y = classify(y)
    if target.alg != y.alg:
        raise ValueError("target label belongs to a different algebra")
    raises = [
        (b, jb - ib)
        for b, (ib, jb) in enumerate(zip(label_y.per_block, target.per_block))
        if jb > ib
    ]
    if any(jb < ib for ib, jb in zip(label_y.per_block, target.per_block)):
        raise ValueError(
            "target drops some block rank; no nearby state can reach it "
            f"({label_y.per_block} -> {target.per_block})"
        )
    if not raises:
        return y
    n = y.dim
    rng = _rng(seed, 6, index)
    sigma = np.zeros((n, n), dtype=complex)
    slices = y.alg.block_slices()
    blocks = y.blocks()
    for b, add in raises:
        nb = y.alg.block_sizes[b]
        ib = label_y.per_block[b]
        if ib == 0:
            kernel = np.eye(nb, dtype=complex)
        else:
            _, v = linalg.eigh_fixed(blocks[b])
            kernel = v[:, : nb - ib]
        rot = sample_unitary(nb - ib, seed, 2000 + index * 16 + b)
        support = kernel @ rot[:, :add]
        tau = _conditioned_mixture(rng, add)
        sl = slices[b]
        sigma[sl, sl] = (support @ tau @ support.conj().T) / len(raises)
    xm = (1.0 - delta) * y.matrix + delta * sigma
    x = validate_density(xm, y.alg, y.tol)
    got = classify(x)
    if got.per_block != target.per_block:
        raise RuntimeError(
            f"constructed approximant classifies as {got.per_block}, wanted {target.per_block}"
        )
    return x


def sequence_toward_label(
    y: DensityMatrix,
    target: StratumLabel,
    rate: float = 0.5,
    length: int = 20,
    seed: int = 0,
    index: int = 0,
) -> list[DensityMatrix]:
    """Geometric sequence of target-stratum states converging to y."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    return [
        approach_state(y, target, delta=rate**k, seed=seed, index=index * 1000 + k)
        for k in range(1, length + 1)
    ]
