"""Seeded random ensembles: states, unitaries, and approach sequences.

Randomness contract: streams._uniform_rows is the only reader of the
streams. It reads one row of uniform doubles per stream path, the first
doubles of numpy's Generator(PCG64(SeedSequence([seed, *path]))), and all
Gaussians are explicit transforms of the rows (Box-Muller, and its polar
form for complex ones), so golden outputs depend only on the uniform
stream. A Ginibre factor of shape (n, m) reads n m moduli, then n m phases.
Paths and rows, in order:

  (0, i)           sample_hs          2 n^2: the factor
  (1, i, attempt)  sample_rank        2 n r: the n x r factor
  (2, i)           sample_unitary     2 n^2: the factor
  (3, i)           sample_hermitian   2 n^2: the factor
  (4, i, attempt)  sample_algebra     2 n_b r_b per block b: its factor
  (5, i)           sequence_toward    2 r^2 of tau's factor, then per step
                                      d u1 and d u2 of its tangent normals
  (6, i)           approach_state     2 add^2 per raised block: its tau
  (7, t)           whitney's control  4 n^2 per plane matrix: u1 and u2 of
                                      its real, then imaginary part
  (8, i)           margin split       n: n_small small eigenvalues, then
                                      the large ones

A row's prefix is the shorter read, so frontier_matrix reads each path
once for all its labels, at its longest length (_stream_rows).

attempt counts the resamples of a rank audit, which one loop makes for
every rank-audited stack (_resampled). sample_unitary's index is
1000 + i for sequence i, 2000 + 16 i + b for block b of approximant i,
3000 + i for margin split i and i * blocks + b in sample_block_unitary.

Draws of one ensemble are (B, n, n) stacks, one row per draw, and every
row is bit for bit the matrix a lone draw gives (sample_hs, sample_rank,
sample_algebra and sample_unitary are one-draw stacks). Sequence steps and
approximants are one construction, a point plus delta times a state on its
kernel (sequence_toward and approach_state are the one-index stacks). Every
drawn state is validated at states.DEFAULT_TOL.

The Hilbert-Schmidt ensemble is rho = G G^dagger / Tr(G G^dagger) with G a
square complex Ginibre matrix; rank-constrained versions use rectangular G.
Haar unitaries come from the QR of a Ginibre matrix, R-diagonal phase fix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import StratumLabError
from .states import DEFAULT_TOL, AlgebraDescriptor, DensityMatrix, _gathered, _stack_of
from .states import _StateStack, _validated_stack, full_algebra, validate_density
from .strata import StratumLabel, _classified, _retract, _stack_decision, classify, tangent_basis
from .streams import _box_muller, _factor_doubles, _ginibre_stack, _gram_stack, _path_table
from .streams import _uniform_rows, _unitary_stack

MAX_RESAMPLE = 100

# step ratio and step count of an approach sequence
SEQUENCE_RATE = 0.5
SEQUENCE_LENGTH = 22
# step of an approximant: approach_state's default, and the frontier checks'
FRONTIER_DELTA = 4e-7


def _draws(alg: AlgebraDescriptor, ranks: tuple[int, ...] | None, seed: int, paths) -> np.ndarray:
    """The unvalidated (B, n, n) stack of Gram draws of alg, one per row of
    a (B, k) path table: block b's factor is n_b x ranks[b], or square with
    ranks=None."""
    shapes = list(zip(alg.block_sizes, alg.block_sizes if ranks is None else ranks))
    return _gram_stack(shapes, _uniform_rows(seed, paths, _factor_doubles(shapes)))


def _hs_stack(n: int, seed: int, indices) -> np.ndarray:
    """The unvalidated (B, n, n) stack of the matrices of
    sample_hs(n, seed, index), one per index."""
    return _draws(full_algebra(n), None, seed, _path_table((0, 0, 1), indices))


def sample_hs(n: int, seed: int, index: int = 0) -> DensityMatrix:
    """Hilbert-Schmidt ensemble draw on the states of M_n(C)."""
    return validate_density(_hs_stack(n, seed, [index])[0], full_algebra(n))


def _resampled_stack(alg: AlgebraDescriptor, seed: int, ranks, head: tuple, indices) -> _StateStack:
    """_resampled on attempt 0 of every index, drawn here."""
    ms = _draws(alg, ranks, seed, _path_table((*head, 0, 1, 0), indices))
    return _resampled(ms, alg, seed, ranks, head, indices)


def _resampled(ms: np.ndarray, alg: AlgebraDescriptor, seed: int, ranks, head: tuple, indices):
    """The validated stack of the draws of alg, one per index of the sequence
    indices: row b is the first draw of the (seed, *head, indices[b],
    attempt) streams, attempt = 0, 1, ..., whose per-block ranks are ranks
    (gray-zone protocol), or attempt 0 (the unvalidated stack ms) with
    ranks=None. Each attempt is validated as one stack, and only rows whose
    decision misses are redrawn, MAX_RESAMPLE tries in all."""
    todo, pieces = np.arange(len(indices)), []
    for attempt in range(MAX_RESAMPLE):
        if attempt:
            family = (*head, 0, 1, attempt)
            ms = _draws(alg, ranks, seed, _path_table(family, [indices[k] for k in todo]))
        got = _validated_stack(ms, alg, DEFAULT_TOL)
        if ranks is None:
            return got
        per_block, gray = _stack_decision(got.spectra, DEFAULT_TOL)
        pieces.append((todo, got))
        todo = todo[(per_block != ranks).any(axis=1) | ~np.isnan(gray).all(axis=(1, 2))]
        if not todo.size:
            return got if len(pieces) == 1 else _gathered(len(indices), pieces)
    raise RuntimeError(f"could not draw ranks {ranks} cleanly in {MAX_RESAMPLE} tries")


def sample_rank(n: int, r: int, seed: int, index: int = 0) -> DensityMatrix:
    """Random rank-r state of M_n(C) from an n x r Ginibre factor, its rank
    audited and the measure-zero failures resampled (_resampled_stack)."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    return _resampled_stack(full_algebra(n), seed, (r,), (1,), [index]).states()[0]


def sample_unitary(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a Ginibre matrix, with each
    column rephased by the sign of the corresponding R diagonal entry."""
    return _unitary_stack(_uniform_rows(seed, _path_table((2, 0, 1), [index]), 2 * n * n), n)[0]


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
    u = _uniform_rows(seed, _path_table((3, 0, 1), [index]), 2 * n * n)
    h = linalg.hermitian_part(_ginibre_stack(u, n, n)[0])
    return h / linalg.hs_norm(h)


def sample_algebra(
    alg: AlgebraDescriptor, seed: int, ranks: tuple[int, ...] | None = None, index: int = 0
) -> DensityMatrix:
    """Random state of a block-diagonal algebra.

    With ranks=None each block gets a full Ginibre factor (the HS ensemble of
    the algebra, block weights arising from the block traces). Otherwise
    block b gets an n_b x ranks[b] factor (zero when ranks[b] = 0) and the
    per-block ranks are audited as sample_rank's.
    """
    if ranks is not None:
        ranks = StratumLabel(alg, ranks).per_block
    return _resampled_stack(alg, seed, ranks, (4,), [index]).states()[0]


def _kernel_frames(ms: np.ndarray, label: StratumLabel) -> dict[int, np.ndarray]:
    """Per block b that label leaves rank-deficient, the kernel frames of
    block b of a matrix, or of each matrix of a (..., n, n) stack, of
    label's stratum: the block's first n_b - i_b gauge-fixed eigenvectors."""
    alg, frames = label.alg, {}
    for b, (sl, nb, ib) in enumerate(zip(alg.block_slices(), alg.block_sizes, label.per_block)):
        if ib == 0:
            frames[b] = np.broadcast_to(np.eye(nb, dtype=complex), ms[..., sl, sl].shape)
        elif ib < nb:
            frames[b] = linalg.eigh_fixed(ms[..., sl, sl])[1][..., : nb - ib]
    return frames


def _kernel_mixture(alg: AlgebraDescriptor, frames, rotations, raises, u: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack of the trace-one states sigma on kernels, one
    per row of the uniforms u: per raised block (b, add), in order, weight
    1 / len(raises) on support tau support^dagger, with support the first add
    columns of the block's kernel frame rotated by the row's Haar unitary,
    and tau half a normalized Wishart (from the row's next 2 add^2 uniforms)
    plus half the normalized identity, so its least eigenvalue is >= 1/(2 add)."""
    sigma = np.zeros((len(u), alg.dim, alg.dim), dtype=complex)
    slices = alg.block_slices()
    col = 0
    for b, add in raises:
        support = frames[b] @ rotations[b][..., :add]
        tau = 0.5 * _gram_stack([(add, add)], u[:, col : col + 2 * add * add])
        tau = tau + 0.5 * np.eye(add) / add
        sigma[:, slices[b], slices[b]] = support @ tau @ support.conj().swapaxes(1, 2) / len(raises)
        col += 2 * add * add
    return sigma


def _audit(stack: _StateStack, target: StratumLabel) -> _StateStack:
    """Return a validated stack of constructed points, refusing them unless
    every point reads as target from its spectra (AmbiguousRank in the gray
    zone, else RuntimeError)."""
    got = _classified(stack.spectra, stack.tol)
    wrong = np.flatnonzero((got != target.per_block).any(axis=1))
    if wrong.size:
        raise RuntimeError(
            f"constructed point classifies as {tuple(got[wrong[0]].tolist())}, "
            f"wanted {target.per_block}"
        )
    return stack


def _mixed(hs: np.ndarray, sigma, delta, target: StratumLabel, tol: float, frames=False):
    """The validated stack (1 - delta) hs + delta sigma, audited to classify
    as target: the one step of approach_state and (with frames) of the x_k."""
    stack = _validated_stack((1.0 - delta) * hs + delta * sigma, target.alg, tol, frames)
    return _audit(stack, target)


def _first_failure(build, rows: int):
    """build(slice(None)), the construction of all rows at once. When it
    fails, rerun build(slice(k, k + 1)) row by row and raise the first
    failing row's error, the first error a row-by-row construction meets."""
    try:
        return build(slice(None))
    except (StratumLabError, RuntimeError, ValueError):
        for k in range(rows):
            build(slice(k, k + 1))
        raise


# row families (streams._path_table): block b's approximant rotations are
# (2, 2000 + b, 16)
_SOURCE, _TAU = (4, 0, 1, 0), (6, 0, 1)


def _stream_rows(reads, seed: int, indices) -> dict:
    """The indices' rows of each family of reads (dicts family: doubles),
    each family drawn once, to its longest read."""
    longest = {f: max(read.get(f, 0) for read in reads) for read in reads for f in read}
    return {
        f: _uniform_rows(seed, _path_table(f, indices), length) for f, length in longest.items()
        if length
    }


def _approach_steps(
    y: DensityMatrix, sigma, h, deltas: np.ndarray, label_i: StratumLabel, label_j: StratumLabel
) -> tuple[_StateStack, _StateStack]:
    """The validated stacks of the x_k (with validation's frames) and the y_k
    of the steps of sizes deltas along the unit tangent directions h, each
    check run once on all steps.

    Each y_k retracts y + s h_k, halving s from delta_k / 2 until the point
    lies within delta_k of y, 30 tries per step. A step whose truncation
    leaves the stratum's domain (an eigenvalue that must stay positive went
    negative) is shrunk like any overshoot.
    """
    xs = _mixed(y.matrix, sigma, deltas[:, None, None], label_j, y.tol, True)
    del sigma  # not held through the retractions
    steps = 0.5 * deltas
    todo, ys, w = np.arange(len(deltas)), np.empty_like(xs.hs), np.empty_like(xs.w)
    for _ in range(30):
        ms, lead = _retract(y.matrix + steps[todo, None, None] * h[todo], label_i, y.tol)
        done = lead > 0
        close = linalg.hs_norm(ms.hs - y.matrix) <= deltas[todo[done]]
        ys[todo[done][close]], w[todo[done][close]] = ms.hs[close], ms.w[close]
        done[done] = close
        todo = todo[~done]
        if not todo.size:
            break
        steps[todo] *= 0.5
    else:
        raise RuntimeError("tangent retraction kept overshooting the step budget")
    # a one-block stack: w is its per-block spectrum
    return xs, _audit(_StateStack(ys, label_i.alg, y.tol, w), label_i)


def _sequence_base(y: DensityMatrix, j: int, rate: float):
    """Check sequence_toward's arguments; return what every sequence toward
    y shares: y's label, the target label, y's kernel frames and its tangent
    basis."""
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
    label_j = StratumLabel(alg=y.alg, per_block=(j,))
    return label_i, label_j, _kernel_frames(y.matrix, label_i), tangent_basis(y, label=label_i)


def _sequence_stacks(
    y: DensityMatrix, j: int, base, rate: float, length: int, seed: int, indices
) -> tuple[_StateStack, _StateStack]:
    """The validated stacks of the T length x_k and y_k of sequence_toward
    at a sequence of T indices, index-major, from y's _sequence_base."""
    label_i, label_j, frames, basis = base
    n, r, d, m = y.dim, j - label_i.total, len(basis), y.dim - label_i.total
    # tau's uniforms, then per step the d uniforms u1 and the d uniforms u2
    # of its Box-Muller Gaussians
    u = _uniform_rows(seed, _path_table((5, 0, 1), indices), 2 * r * r + 2 * length * d)
    rotations = _uniform_rows(seed, _path_table((2, 1000, 1), indices), 2 * m * m)
    sigma = _kernel_mixture(y.alg, frames, {0: _unitary_stack(rotations, m)}, [(0, r)], u)
    steps = u[:, 2 * r * r :].reshape(-1, 2, d)
    # handed over contiguous, as a step-by-step draw hands them
    coeffs = _box_muller(np.ascontiguousarray(steps[:, 0]), np.ascontiguousarray(steps[:, 1]))
    # one vector-matrix product per step, as tensordot forms a single step
    # (a (T length, d) @ (d, n n) product rounds differently)
    h = (coeffs[:, None, :] @ basis.reshape(d, n * n)).reshape(-1, n, n)
    del steps, coeffs  # not held through the build
    h = h / linalg.hs_norm(h)[:, None, None]
    # each step's sigma, gathered only for the build that reads it
    trial = np.arange(len(h)) // length
    deltas = np.tile([rate**k for k in range(1, length + 1)], len(indices))
    return _first_failure(
        lambda k: _approach_steps(y, sigma[trial[k]], h[k], deltas[k], label_i, label_j), len(h)
    )


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

    This is the [index] call of _sequence_stacks, which builds the steps of
    many indices as one stack: per index one draw of every step's Gaussians
    from its (seed, 5, index) stream, then one rank audit, validation and
    retraction per stack (retried only for the steps that overshoot). So
    the pairs are a step-by-step construction's, bit for bit, and the error
    is the first failing index's first failing step's, in the order of its
    checks: x_k's validation and audit, the retraction of y_k, y_k's audit.
    """
    xs, ys = _sequence_stacks(y, j, _sequence_base(y, j, rate), rate, length, seed, [index])
    return list(zip(xs.states(), ys.states()))


def _raises(label: StratumLabel, target: StratumLabel) -> list[tuple[int, int]]:
    """(block, rank added) of each block label's approximants toward target raise."""
    pairs = enumerate(zip(label.per_block, target.per_block))
    return [(b, jb - ib) for b, (ib, jb) in pairs if jb > ib]


def _approach_reads(label: StratumLabel, target: StratumLabel) -> dict:
    """The doubles that approximants of label's points toward target read:
    rotation factors and taus."""
    pairs = enumerate(zip(label.alg.block_sizes, label.per_block))
    reads = {(2, 2000 + b, 16): _factor_doubles([(nb - ib, nb - ib)]) for b, (nb, ib) in pairs}
    reads[_TAU] = _factor_doubles((add, add) for _, add in _raises(label, target))
    return reads


def _approach_base(hs: np.ndarray, label: StratumLabel, tol: float, rows: dict):
    """What the approximants of a validated (B, n, n) stack of points of
    label's stratum share, whatever the target, from their rows: (label,
    tol, frames, rotations, tau rows), per block that is not full the
    kernel frames and the Haar rotations of its rotation rows."""
    frames = _kernel_frames(hs, label)
    rotations = {b: _unitary_stack(rows[2, 2000 + b, 16], f.shape[-1]) for b, f in frames.items()}
    return label, tol, frames, rotations, rows.get(_TAU)


def _approach_stack(points: _StateStack, base, target: StratumLabel, delta: float) -> _StateStack:
    """The validated stack of the approach_state approximants of the rows of
    points, from their _approach_base; points itself at their label.

    Each row reads the uniforms of every raised block's tau, in block
    order, from its (6, index) row; sigma comes from stacked products, and
    one validation and audit run on the stack. So every row is
    approach_state's, bit for bit, and when rows fail the error is the one
    of the first failing row.
    """
    label, tol, frames, rotations, u = base
    if target.alg != label.alg:
        raise ValueError("target label belongs to a different algebra")
    if any(jb < ib for ib, jb in zip(label.per_block, target.per_block)):
        raise ValueError(
            "target drops some block rank; no nearby state can reach it "
            f"({label.per_block} -> {target.per_block})"
        )
    raises = _raises(label, target)
    if not raises:
        return points
    sigma = _kernel_mixture(label.alg, frames, rotations, raises, u)
    return _first_failure(lambda k: _mixed(points.hs[k], sigma[k], delta, target, tol), len(sigma))


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
    label = classify(y)
    rows = _stream_rows([_approach_reads(label, target)], seed, [index])
    base = _approach_base(y.matrix[None], label, y.tol, rows)
    return _approach_stack(_stack_of(y), base, target, delta).states()[0]
