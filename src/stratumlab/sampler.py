"""Seeded random ensembles: states, unitaries, and approach sequences.

Randomness contract: every draw is produced by a PCG64 generator seeded
through SeedSequence([seed, index, ...]), and all Gaussians are produced by
an explicit Box-Muller transform of uniform doubles. The transform is spelled
out here (rather than delegating to the generator's normal method) so the
byte content of golden outputs depends only on the uniform stream.

Draws of one ensemble are built as (B, n, n) stacks: each draw still takes
its uniforms from its own generator, the transform and products run once on
the stack, and every row is bit for bit the matrix a lone draw gives
(sample_hs and sample_algebra are one-draw stacks). Approximants of a stack
of points are built the same way (approach_state is the one-point stack).

Every drawn state is validated at states.DEFAULT_TOL.

The Hilbert-Schmidt ensemble is rho = G G^dagger / Tr(G G^dagger) with G a
square complex Ginibre matrix; rank-constrained versions use rectangular G.
Haar unitaries come from the QR factorization of a Ginibre matrix with the
R-diagonal phase fix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import AmbiguousRank, StratumLabError
from .states import (
    AlgebraDescriptor,
    DensityMatrix,
    _validated_states,
    full_algebra,
    validate_density,
    validate_stack,
)
from .strata import (
    StratumLabel,
    classify,
    classify_stack,
    numerical_rank,
    rank_from_eigenvalues,
    retract_stack,
    tangent_basis,
)

MAX_RESAMPLE = 100

# step ratio and step count of an approach sequence
SEQUENCE_RATE = 0.5
SEQUENCE_LENGTH = 22
# step of an approximant: approach_state's default, and the frontier checks'
FRONTIER_DELTA = 4e-7


def _rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one draw: PCG64 seeded by (seed, *path)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Gaussians via Box-Muller: z = sqrt(-2 ln(1-u1)) cos(2 pi u2) (and the
    matching sine draw), consuming two uniform arrays per output array."""
    return _box_muller(rng.random(shape), rng.random(shape))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Gaussians sqrt(-2 ln(1-u1)) cos(2 pi u2) from two uniform arrays."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with independent N(0,1) real and imaginary parts,
    drawn in polar form from two uniforms per entry."""
    return _polar_normal(rng.random(shape), rng.random(shape))


def _polar_normal(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Complex Gaussians sqrt(-ln(1-u1)) exp(2 pi i u2) from two uniform arrays."""
    radius = np.sqrt(-np.log1p(-u1))
    return radius * np.exp(2j * np.pi * u2)


def ginibre(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n x m complex Ginibre matrix."""
    return complex_normal(rng, (n, m))


def _gram_stack(shapes, u) -> np.ndarray:
    """The (B, n, n) stack of trace-one block-diagonal matrices
    sum_b g_b g_b^dagger / trace, one per row of a (B, length) uniform
    array u, or per generator that u yields (each gives one row).

    Block b's factor g_b of shape shapes[b] = (n_b, r_b) takes the next
    2 n_b r_b uniforms of its row as ginibre does (moduli, then phases);
    r_b = 0 leaves the block zero. The transform gets contiguous uniform
    stacks and each trace sums the complex diagonal (a sum of its real parts
    rounds differently), so every row is the per-draw matrix.
    """
    if not isinstance(u, np.ndarray):
        length = 2 * sum(nb * r for nb, r in shapes)
        # one generator alive at a time: a stack of them costs kilobytes per draw
        u = np.fromiter((rng.random(length) for rng in u), dtype=(float, length))
    n = sum(nb for nb, _ in shapes)
    m = np.zeros((len(u), n, n), dtype=complex)
    at = col = 0
    for nb, r in shapes:
        size = nb * r
        g = _polar_normal(
            np.ascontiguousarray(u[:, col : col + size]).reshape(len(u), nb, r),
            np.ascontiguousarray(u[:, col + size : col + 2 * size]).reshape(len(u), nb, r),
        )
        m[:, at : at + nb, at : at + nb] = g @ g.conj().swapaxes(1, 2)
        at += nb
        col += 2 * size
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def _hs_stack(n: int, seed: int, indices) -> np.ndarray:
    """The unvalidated (B, n, n) stack of the matrices of
    sample_hs(n, seed, index), one per index."""
    return _gram_stack([(n, n)], (_rng(seed, 0, index) for index in indices))


def sample_hs(n: int, seed: int, index: int = 0) -> DensityMatrix:
    """Hilbert-Schmidt ensemble draw on the states of M_n(C)."""
    return validate_density(_hs_stack(n, seed, [index])[0], full_algebra(n))


def sample_rank(n: int, r: int, seed: int, index: int = 0) -> DensityMatrix:
    """Random rank-r state of M_n(C) from an n x r Ginibre factor.

    The rank is audited with the gray-zone protocol; the measure-zero
    failure event triggers a resample (fresh sub-stream, bounded retries).
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    for attempt in range(MAX_RESAMPLE):
        m = _gram_stack([(n, r)], [_rng(seed, 1, index, attempt)])[0]
        rho = validate_density(m, full_algebra(n))
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


def _algebra_stack(
    alg: AlgebraDescriptor, seed: int, ranks: tuple[int, ...] | None, indices, attempt: int
) -> np.ndarray:
    """The unvalidated (B, n, n) stack of the matrices of sample_algebra's
    draw number attempt, one per index; with ranks=None the first attempt
    is the draw."""
    shapes = list(zip(alg.block_sizes, alg.block_sizes if ranks is None else ranks))
    return _gram_stack(shapes, (_rng(seed, 4, index, attempt) for index in indices))


def sample_algebra(
    alg: AlgebraDescriptor,
    seed: int,
    ranks: tuple[int, ...] | None = None,
    index: int = 0,
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
        rho = validate_density(_algebra_stack(alg, seed, ranks, [index], attempt)[0], alg)
        if ranks is None:
            return rho
        try:
            if classify(rho).per_block == ranks:
                return rho
        except AmbiguousRank:
            continue
    raise RuntimeError(f"could not draw ranks {ranks} cleanly in {MAX_RESAMPLE} tries")


def _kernel_frame(blocks: np.ndarray, i: int) -> np.ndarray:
    """Kernel frames of rank-i blocks, of a matrix or of each matrix of a
    stack: their first n - i gauge-fixed eigenvectors."""
    n = blocks.shape[-1]
    if i == 0:
        return np.broadcast_to(np.eye(n, dtype=complex), blocks.shape)
    return linalg.eigh_fixed(blocks)[1][..., : n - i]


def _kernel_summands(
    kernels: np.ndarray, rotations: np.ndarray, r: int, u: np.ndarray
) -> np.ndarray:
    """Trace-one rank-r states supported on kernel frames, one per row of
    the (B, n, m) frames: support tau support^dagger, with support the first
    r columns of the frame rotated by the row's Haar unitary, and tau half a
    normalized Wishart (from the row's 2 r^2 uniforms u) plus half the
    normalized identity, so its smallest eigenvalue is >= 1/(2r)."""
    support = kernels @ rotations[..., :r]
    tau = 0.5 * _gram_stack([(r, r)], u) + 0.5 * np.eye(r) / r
    return support @ tau @ support.conj().swapaxes(-1, -2)


def _audit_ranks(ms: np.ndarray, expect: int, tol: float) -> None:
    """Refuse a (B, n, n) stack of constructed points unless every one has
    rank expect (AmbiguousRank in the gray zone, else RuntimeError)."""
    got = rank_from_eigenvalues(np.linalg.eigvalsh(ms), tol)
    wrong = np.flatnonzero(got != expect)
    if wrong.size:
        raise RuntimeError(f"constructed point has rank {got[wrong[0]]}, expected {expect}")


def _approach_steps(
    y: DensityMatrix,
    sigma: np.ndarray,
    h: np.ndarray,
    deltas: np.ndarray,
    label_i: StratumLabel,
    j: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The validated stacks of the x_k and the y_k of the steps of sizes
    deltas along the unit tangent directions h, each check run once on all
    steps.

    Each y_k retracts y + s h_k, halving s from delta_k / 2 until the point
    lies within delta_k of y, 30 tries per step. A step whose truncation
    leaves the stratum's domain (an eigenvalue that must stay positive went
    negative) is shrunk like any overshoot.
    """
    tol = y.tol
    scale = deltas[:, None, None]
    xs = (1.0 - scale) * y.matrix + scale * sigma
    _audit_ranks(xs, j, tol)
    xs = validate_stack(xs, y.alg, tol)
    ys = np.empty_like(xs)
    steps = 0.5 * deltas
    todo = np.arange(len(deltas))
    for _ in range(30):
        ms, lead = retract_stack(y.matrix + steps[todo, None, None] * h[todo], label_i, tol)
        done = lead > 0
        close = linalg.hs_norm(ms - y.matrix) <= deltas[todo[done]]
        ys[todo[done][close]] = ms[close]
        done[done] = close
        todo = todo[~done]
        if not todo.size:
            break
        steps[todo] *= 0.5
    else:
        raise RuntimeError("tangent retraction kept overshooting the step budget")
    _audit_ranks(ys, label_i.total, tol)
    ys.flags.writeable = False
    return xs, ys


def _sequence_base(y: DensityMatrix, j: int, rate: float):
    """Check sequence_toward's arguments; return y's label, kernel frame and
    tangent basis, which every sequence toward y shares."""
    if y.alg.num_blocks != 1:
        raise ValueError(
            "integer-rank sequences are defined for single-block algebras; "
            "use approach_state for direct sums"
        )
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    n = y.dim
    label_i = classify(y)
    i = label_i.total
    if not i < j <= n:
        raise ValueError(f"target rank must satisfy {i} < j <= {n}, got {j}")
    return label_i, _kernel_frame(y.matrix, i), tangent_basis(y, label=label_i)


def _sequence_stacks(
    y: DensityMatrix, j: int, base, rate: float, length: int, seed: int, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The validated (length, n, n) stacks of the x_k and the y_k of
    sequence_toward, from y's _sequence_base."""
    label_i, kernel, basis = base
    n = y.dim
    rng = _rng(seed, 5, index)
    r = j - label_i.total
    rotation = sample_unitary(kernel.shape[1], seed, 1000 + index)
    sigma = _kernel_summands(kernel[None], rotation[None], r, rng.random((1, 2 * r * r)))[0]
    deltas = np.array([rate**k for k in range(1, length + 1)])
    # each step's two uniform arrays, in the order standard_normal would
    # draw them step by step, and handed over contiguous as it hands them
    u = rng.random((length, 2, len(basis)))
    coeffs = _box_muller(np.ascontiguousarray(u[:, 0]), np.ascontiguousarray(u[:, 1]))
    # one vector-matrix product per step, as tensordot forms a single step
    # (a (length, d) @ (d, n n) product rounds differently)
    h = (coeffs[:, None, :] @ basis.reshape(len(basis), n * n)).reshape(length, n, n)
    h = h / linalg.hs_norm(h)[:, None, None]
    try:
        return _approach_steps(y, sigma, h, deltas, label_i, j)
    except (StratumLabError, RuntimeError, ValueError):
        # a step failed: raise the error of the first failing step, the
        # first error a step-by-step construction would meet
        for k in range(length):
            _approach_steps(y, sigma, h[k : k + 1], deltas[k : k + 1], label_i, j)
        raise


def sequence_toward(
    y: DensityMatrix,
    j: int,
    rate: float = SEQUENCE_RATE,
    length: int = SEQUENCE_LENGTH,
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
    approach_state). Every constructed rank is audited.

    The steps are built as (length, n, n) stacks: one draw of every step's
    Gaussians from the (seed, 5, index) stream, one rank audit, validation
    and retraction per stack (the retraction retries only the steps that
    overshoot), so the pairs are those a step-by-step construction gives,
    bit for bit. When steps fail, the error is the one of the first failing
    step, in the order of its checks: x_k's audit and validation, the
    retraction of y_k, y_k's audit.
    """
    xs, ys = _sequence_stacks(y, j, _sequence_base(y, j, rate), rate, length, seed, index)
    return list(zip(_validated_states(xs, y.alg, y.tol), _validated_states(ys, y.alg, y.tol)))


def _approach_base(hs: np.ndarray, label: StratumLabel, tol: float, seed: int, indices):
    """What the approximants of a validated (B, n, n) stack of points of
    label's stratum share, whatever the target (row b is approach_state's
    point at index indices[b]): (label, tol, seed, indices, frames), frames
    holding per block that is not full the rows' kernel frames and Haar
    rotations sample_unitary(n_b - i_b, seed, 2000 + 16 index + b)."""
    alg = label.alg
    frames = {}
    for b, (sl, nb, ib) in enumerate(zip(alg.block_slices(), alg.block_sizes, label.per_block)):
        if ib < nb:
            rotations = [sample_unitary(nb - ib, seed, 2000 + 16 * index + b) for index in indices]
            frames[b] = _kernel_frame(hs[:, sl, sl], ib), np.array(rotations)
    return label, tol, seed, tuple(indices), frames


def _audit_approximants(xm: np.ndarray, target: StratumLabel, tol: float) -> np.ndarray:
    """Validate a (B, n, n) stack of approximants and refuse it unless every
    one classifies as target."""
    xs = validate_stack(xm, target.alg, tol)
    got = classify_stack(xs, target.alg, tol)
    wrong = np.flatnonzero((got != target.per_block).any(axis=1))
    if wrong.size:
        raise RuntimeError(
            f"constructed approximant classifies as {tuple(got[wrong[0]].tolist())}, "
            f"wanted {target.per_block}"
        )
    return xs


def _approach_stack(hs: np.ndarray, base, target: StratumLabel, delta: float) -> np.ndarray:
    """The validated stack of the approach_state approximants of the rows
    of hs, from their _approach_base; hs itself when target is their label.

    Each row draws the uniforms of every raised block's tau, in block
    order, from its (seed, 6, index) stream at once; sigma comes from
    stacked products, and one validation and audit run on the stack. So
    every row is approach_state's, bit for bit, and when rows fail the error
    is the one of the first failing row.
    """
    label, tol, seed, indices, frames = base
    if target.alg != label.alg:
        raise ValueError("target label belongs to a different algebra")
    if any(jb < ib for ib, jb in zip(label.per_block, target.per_block)):
        raise ValueError(
            "target drops some block rank; no nearby state can reach it "
            f"({label.per_block} -> {target.per_block})"
        )
    pairs = enumerate(zip(label.per_block, target.per_block))
    raises = [(b, jb - ib) for b, (ib, jb) in pairs if jb > ib]
    if not raises:
        return hs
    length = 2 * sum(add * add for _, add in raises)
    streams = (_rng(seed, 6, index) for index in indices)
    u = np.fromiter((rng.random(length) for rng in streams), dtype=(float, length))
    sigma = np.zeros(hs.shape, dtype=complex)
    slices = label.alg.block_slices()
    col = 0
    for b, add in raises:
        summands = _kernel_summands(*frames[b], add, u[:, col : col + 2 * add * add])
        sigma[:, slices[b], slices[b]] = summands / len(raises)
        col += 2 * add * add
    xm = (1.0 - delta) * hs + delta * sigma
    try:
        return _audit_approximants(xm, target, tol)
    except (StratumLabError, RuntimeError):
        # raise the error of the first failing row, the first error a
        # point-by-point construction would meet
        for k in range(len(xm)):
            _audit_approximants(xm[k : k + 1], target, tol)
        raise


def approach_state(
    y: DensityMatrix,
    target: StratumLabel,
    delta: float = FRONTIER_DELTA,
    seed: int = 0,
    index: int = 0,
) -> DensityMatrix:
    """One state of the target stratum within 2*delta of y.

    Requires target >= classify(y) per block (rank can only be raised by a
    small perturbation; lowering it is impossible nearby). Blocks whose rank
    must rise get an extra summand supported on their kernel, weight split
    evenly; the per-block ranks of the result are audited. This is
    _approach_stack on the stack of one point.
    """
    hs = y.matrix[None]
    base = _approach_base(hs, classify(y), y.tol, seed, [index])
    return _validated_states(_approach_stack(hs, base, target, delta), y.alg, y.tol)[0]
