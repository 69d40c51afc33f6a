"""Seeded random ensembles: states, unitaries, and approach sequences.

Randomness contract: _uniform_rows is the only reader of the streams. It
reads one row of uniform doubles per stream path, the first doubles of
numpy's Generator(PCG64(SeedSequence([seed, *path]))), and all Gaussians
are explicit transforms of the rows (Box-Muller, and its polar form for
complex ones), so golden outputs depend only on the uniform stream. Seed
and path entries are non-negative integers of any size. The stream format
has two readers behind _uniform_rows, numpy's generator for calls of
fewer than STREAM_PORT_ROWS rows and a bit-exact numpy port of
SeedSequence and PCG64 for whole ensembles (in chunks of
STREAM_CHUNK_ROWS rows), and tests hold the port to numpy's own generator. A Ginibre
factor of shape (n, m) reads n m moduli, then n m phases. Paths and rows,
in order:

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

attempt counts the resamples of a rank audit, which one loop makes for
every rank-audited stack (_resampled_stack). sample_unitary's index is
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

import functools
import itertools
import operator

import numpy as np

from . import linalg
from .errors import StratumLabError
from .states import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    DensityMatrix,
    _validate_with_spectra,
    _validated_states,
    full_algebra,
    validate_density,
)
from .strata import StratumLabel, _classified, _retract_with_spectra, _stack_decision, classify
from .strata import tangent_basis

MAX_RESAMPLE = 100

# step ratio and step count of an approach sequence
SEQUENCE_RATE = 0.5
SEQUENCE_LENGTH = 22
# step of an approximant: approach_state's default, and the frontier checks'
FRONTIER_DELTA = 4e-7

# calls of fewer rows read one numpy generator per row, 14-18 us each on a
# 2-core x86 host; the port below costs about 55 ns per double, so it wins on
# many short rows (1000 x 8: 0.88 against 15.6 ms) and loses on long ones
# (25 x 618: 0.78 against 0.45 ms; 1 row: 160-215 us; timeit, best of 5-7)
STREAM_PORT_ROWS = 12
# rows per call of the port: bounds its (rows, length) uint64 temporaries,
# which for a whole 10,000-draw ensemble would raise the peak memory
STREAM_CHUNK_ROWS = 1024

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# PCG64's LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The uint32 constants init mult^k, k = 0 .. calls, of a SeedSequence
    hash: call k reads constants k and k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# SeedSequence's generate_state hash: 8 calls make 4 uint64 words
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Gaussians sqrt(-2 ln(1-u1)) cos(2 pi u2) from two uniform arrays."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


def _polar_normal(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Complex Gaussians sqrt(-ln(1-u1)) exp(2 pi i u2) from two uniform
    arrays: independent N(0,1) real and imaginary parts."""
    radius = np.sqrt(-np.log1p(-u1))
    return radius * np.exp(2j * np.pi * u2)


def _entry(value) -> int:
    """An entropy entry as a Python int, refused as SeedSequence refuses it:
    TypeError for a non-integer, ValueError for a negative integer."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return value


def _words(value) -> list[int]:
    """The uint32 words SeedSequence makes of one entropy entry, least
    significant first."""
    value = _entry(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _entropy_words(seed: int, paths: list) -> tuple[np.ndarray, np.ndarray]:
    """The (B, W) uint32 entropy words of SeedSequence([seed, *paths[b]]),
    zero padded to W >= 4 columns, and the (B,) word count of each row, for
    a list of B >= 1 paths."""
    head = _words(seed)
    try:
        table = np.array(paths)
    except ValueError:  # paths of unequal lengths
        table = np.array(())
    if table.ndim == 2 and (
        table.size == 0
        or table.dtype.kind in "iu" and table.min() >= 0 and table.max() <= _MASK32
    ):
        # every entry is one word
        tails = table.astype(np.uint32)
        counts = np.full(len(paths), len(head) + tails.shape[1])
    else:
        rows = [[w for entry in path for w in _words(entry)] for path in paths]
        tails = np.zeros((len(rows), max(map(len, rows))), dtype=np.uint32)
        for b, row in enumerate(rows):
            tails[b, : len(row)] = row
        counts = len(head) + np.array([len(row) for row in rows])
    words = np.zeros((len(paths), max(4, len(head) + tails.shape[1])), dtype=np.uint32)
    words[:, : len(head)] = head
    words[:, len(head) : len(head) + tails.shape[1]] = tails
    return words, counts


def _hashmix(value: np.ndarray, consts: np.ndarray, calls: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of value by the numbered calls, one per column:
    call k xors constant k, then multiplies by constant k + 1."""
    value = (value ^ consts[calls]) * consts[calls + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return r ^ (r >> np.uint32(16))


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a_hi 2^64 + a_lo)(b_hi 2^64 + b_lo) mod 2^128 on broadcast uint64
    halves, the high half of a_lo b_lo through 32-bit limbs; in place where
    it can, which keeps the full-size temporaries few."""
    limb, shift = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a_lo & limb, a_lo >> shift, b_lo & limb, b_lo >> shift
    p01, p10 = a0 * b1, a1 * b0
    mid = a0 * b0
    mid >>= shift
    mid += p01 & limb
    mid += p10 & limb
    mid >>= shift
    p01 >>= shift
    p10 >>= shift
    hi = a1 * b1
    for part in (p01, p10, mid, a_lo * b_hi, a_hi * b_lo):
        hi += part
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a_hi 2^64 + a_lo) + (b_hi 2^64 + b_lo) mod 2^128 on uint64 halves,
    written into a's halves."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo
    return a_hi, a_lo


@functools.lru_cache(maxsize=64)
def _jump_tables(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 high and low halves of the (2, length) table of M^(k + 1)
    and 1 + M + ... + M^k mod 2^128, k = 1 .. length: from a state t, the
    LCG's (k + 1)-th step is the first times t plus the second times inc."""
    power, geometric, table = _PCG_MULT, 1, ([], [])
    for _ in range(length):
        geometric = (geometric + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        table[0].append(power)
        table[1].append(geometric)
    table = np.array(table, dtype=object)
    halves = (table >> 64).astype(np.uint64), (table & _MASK64).astype(np.uint64)
    for half in halves:
        half.flags.writeable = False  # shared by every call of this length
    return halves


def _pcg64_rows(words: np.ndarray, counts: np.ndarray, length: int) -> np.ndarray:
    """Generator(PCG64(SeedSequence(entropy))).random(length) for each row's
    entropy words[b, :counts[b]], all rows at once (O'Neill, HMC-CS-2014-0905;
    numpy NEP 19).

    SeedSequence hashes a 4-word pool. Its hash constants do not depend on
    the data, so the three destinations of one source word mix at once, and
    words past the fourth reach the third loop only in rows that have them.
    PCG64 steps its 128-bit LCG state s -> M s + inc before each output, so
    every output's state is one multiply-add from the seeding state by the
    jump tables: no loop over the outputs.
    """
    # INIT_A, MULT_A: 4 calls fill the pool, 12 mix it, 4 per further word
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * words.shape[1])
    cols = np.arange(4)
    pool = _hashmix(words[:, :4], consts, cols)
    for src in range(4):
        # calls 4 + 3 src .. 6 + 3 src mix word src into the others, in order
        calls = 4 + 3 * src + cols - (cols >= src)
        mixed = _mix(pool, _hashmix(pool[:, src, None], consts, calls))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(4, words.shape[1]):
        mixed = _mix(pool, _hashmix(words[:, src, None], consts, 4 * src + cols))
        pool = np.where((counts > src)[:, None], mixed, pool)
    # generate_state(4, uint64): 8 words cycling the pool, little-endian pairs
    state = _hashmix(np.tile(pool, 2), _HASH_B, np.arange(8)).astype(np.uint64)
    s = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    # PCG64's seeding: inc = 2 (s2 2^64 + s3) + 1; the state is 0, steps,
    # adds s0 2^64 + s1 and steps, which is one step from t = s0:s1 + inc
    one = np.uint64(1)
    inc_hi = (s[:, 2, None] << one) | (s[:, 3, None] >> np.uint64(63))
    inc_lo = (s[:, 3, None] << one) | one
    t_hi, t_lo = _add128(s[:, 0, None], s[:, 1, None], inc_hi, inc_lo)
    (a_hi, g_hi), (a_lo, g_lo) = _jump_tables(length)
    hi, lo = _add128(*_mul128(t_hi, t_lo, a_hi, a_lo), *_mul128(inc_hi, inc_lo, g_hi, g_lo))
    # XSL-RR output, then the top 53 bits as a double
    rot = hi >> np.uint64(58)
    hi ^= lo
    lo = hi << ((np.uint64(64) - rot) & np.uint64(63))
    hi >>= rot
    hi |= lo
    hi >>= np.uint64(11)
    return hi * (1.0 / 9007199254740992.0)


def _uniform_rows(seed: int, paths, length: int) -> np.ndarray:
    """The (B, length) array of one row of uniforms per stream path: row b
    is the first length doubles of the PCG64 generator seeded by
    SeedSequence([seed, *paths[b]]).

    Two routes read the same streams, bit for bit. Below STREAM_PORT_ROWS
    paths, one numpy generator per row, which is cheaper than the port's
    fixed cost. From there on, _pcg64_rows on chunks of STREAM_CHUNK_ROWS
    rows, so that its (rows, length) temporaries stay small whatever the
    ensemble size. Both refuse a seed or path entry that is not a
    non-negative integer before any draw (TypeError, ValueError), as
    SeedSequence does.
    """
    paths = iter(paths)
    first = list(itertools.islice(paths, STREAM_CHUNK_ROWS))
    if len(first) < STREAM_PORT_ROWS:
        entropy = [[_entry(seed), *map(_entry, path)] for path in first]
        # one generator alive at a time: a stack of them costs kilobytes per draw
        rows = (
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(e))).random(length)
            for e in entropy
        )
        return np.fromiter(rows, dtype=(float, length))
    # every chunk's entropy words, so that a bad entry refuses before a draw
    chunks = [_entropy_words(seed, first)]
    while chunk := list(itertools.islice(paths, STREAM_CHUNK_ROWS)):
        chunks.append(_entropy_words(seed, chunk))
    out = np.empty((sum(len(words) for words, _ in chunks), length))
    at = 0
    # the LCG and the hash wrap around by design
    with np.errstate(over="ignore"):
        for words, counts in chunks:
            out[at : at + len(words)] = _pcg64_rows(words, counts, length)
            at += len(words)
    return out


def _ginibre_stack(u: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (B, n, m) complex Ginibre matrices of the first 2 n m uniforms of
    each row of u, moduli then phases, each handed over contiguous."""
    size = n * m
    return _polar_normal(
        np.ascontiguousarray(u[:, :size]).reshape(len(u), n, m),
        np.ascontiguousarray(u[:, size : 2 * size]).reshape(len(u), n, m),
    )


def _gram_stack(shapes, u: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack of trace-one block-diagonal matrices
    sum_b g_b g_b^dagger / trace, one per row of a (B, length) uniform
    array u.

    Block b's factor g_b of shape shapes[b] = (n_b, r_b) is the Ginibre
    matrix of the next 2 n_b r_b uniforms of its row (moduli, then phases);
    r_b = 0 leaves the block zero. Each trace sums the complex diagonal (a
    sum of its real parts rounds differently), so every row is the
    per-draw matrix.
    """
    n = sum(nb for nb, _ in shapes)
    m = np.zeros((len(u), n, n), dtype=complex)
    at = col = 0
    for nb, r in shapes:
        g = _ginibre_stack(u[:, col:], nb, r)
        m[:, at : at + nb, at : at + nb] = g @ g.conj().swapaxes(1, 2)
        at += nb
        col += 2 * nb * r
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def _draws(alg: AlgebraDescriptor, ranks: tuple[int, ...] | None, seed: int, paths) -> np.ndarray:
    """The unvalidated (B, n, n) stack of Gram draws of alg, one per stream
    path: block b's factor is n_b x ranks[b], or square with ranks=None."""
    shapes = list(zip(alg.block_sizes, alg.block_sizes if ranks is None else ranks))
    return _gram_stack(shapes, _uniform_rows(seed, paths, 2 * sum(nb * r for nb, r in shapes)))


def _hs_stack(n: int, seed: int, indices) -> np.ndarray:
    """The unvalidated (B, n, n) stack of the matrices of
    sample_hs(n, seed, index), one per index."""
    return _draws(full_algebra(n), None, seed, ((0, index) for index in indices))


def sample_hs(n: int, seed: int, index: int = 0) -> DensityMatrix:
    """Hilbert-Schmidt ensemble draw on the states of M_n(C)."""
    return validate_density(_hs_stack(n, seed, [index])[0], full_algebra(n))


def _resampled_stack(alg: AlgebraDescriptor, seed: int, ranks, head: tuple, indices):
    """The validated (B, n, n) stack of the draws of alg, one per index of
    the sequence indices, and its (B, n) eigvalsh from _validate_with_spectra.
    Row b is the first draw of the (seed, *head, indices[b], attempt) streams,
    attempt = 0, 1, ..., whose per-block ranks are ranks (gray-zone protocol),
    or attempt 0 with ranks=None. Each attempt is drawn and validated as one
    stack; only rows whose decision misses are redrawn, MAX_RESAMPLE tries in all."""
    todo = np.arange(len(indices))
    for attempt in range(MAX_RESAMPLE):
        paths = [(*head, indices[k], attempt) for k in todo]
        ms, spectra = _validate_with_spectra(_draws(alg, ranks, seed, paths), alg, DEFAULT_TOL)
        if ranks is None:
            return ms, spectra
        if attempt:
            hs[todo], w[todo] = ms, spectra
        else:
            hs, w = ms.copy(), spectra
        got, gray = _stack_decision(ms, alg, DEFAULT_TOL, spectra)
        todo = todo[(got != ranks).any(axis=1) | ~np.isnan(gray).all(axis=(1, 2))]
        if not todo.size:
            hs.flags.writeable = False
            return hs, w
    raise RuntimeError(f"could not draw ranks {ranks} cleanly in {MAX_RESAMPLE} tries")


def sample_rank(n: int, r: int, seed: int, index: int = 0) -> DensityMatrix:
    """Random rank-r state of M_n(C) from an n x r Ginibre factor, its rank
    audited and the measure-zero failures resampled (_resampled_stack)."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    alg = full_algebra(n)
    return _validated_states(*_resampled_stack(alg, seed, (r,), (1,), [index]), alg, DEFAULT_TOL)[0]


def _unitary_stack(n: int, seed: int, indices) -> np.ndarray:
    """The (B, n, n) stack of sample_unitary(n, seed, index), one per index:
    one stacked QR of the Ginibre matrices of the (2, index) rows."""
    g = _ginibre_stack(_uniform_rows(seed, ((2, index) for index in indices), 2 * n * n), n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def sample_unitary(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a Ginibre matrix, with each
    column rephased by the sign of the corresponding R diagonal entry."""
    return _unitary_stack(n, seed, [index])[0]


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
    h = linalg.hermitian_part(_ginibre_stack(_uniform_rows(seed, [(3, index)], 2 * n * n), n, n)[0])
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
    hs, w = _resampled_stack(alg, seed, ranks, (4,), [index])
    return _validated_states(hs, w, alg, DEFAULT_TOL)[0]


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


def _audit(xs: np.ndarray, spectra: np.ndarray, target: StratumLabel, tol: float):
    """Return a validated (B, n, n) stack of constructed points and the spectra
    _validate_with_spectra gave it, refusing them unless every point reads as
    target from them (AmbiguousRank in the gray zone, else RuntimeError)."""
    got = _classified(xs, target.alg, tol, spectra)
    wrong = np.flatnonzero((got != target.per_block).any(axis=1))
    if wrong.size:
        raise RuntimeError(
            f"constructed point classifies as {tuple(got[wrong[0]].tolist())}, "
            f"wanted {target.per_block}"
        )
    return xs, spectra


def _mixed(hs: np.ndarray, sigma, delta, target: StratumLabel, tol: float):
    """The validated stack (1 - delta) hs + delta sigma and its spectra, audited
    to classify as target: the one step of sequence_toward's x_k and approach_state."""
    xs, spectra = _validate_with_spectra((1.0 - delta) * hs + delta * sigma, target.alg, tol)
    return _audit(xs, spectra, target, tol)


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


def _approach_steps(
    y: DensityMatrix, sigma, h, deltas: np.ndarray, label_i: StratumLabel, label_j: StratumLabel
) -> tuple[tuple, tuple]:
    """The validated stacks of the x_k and the y_k of the steps of sizes
    deltas along the unit tangent directions h, each check run once on all
    steps, as (stack, spectra) pairs.

    Each y_k retracts y + s h_k, halving s from delta_k / 2 until the point
    lies within delta_k of y, 30 tries per step. A step whose truncation
    leaves the stratum's domain (an eigenvalue that must stay positive went
    negative) is shrunk like any overshoot.
    """
    tol = y.tol
    xs = _mixed(y.matrix, sigma, deltas[:, None, None], label_j, tol)
    ys = np.empty_like(xs[0])
    spectra = np.empty(xs[1].shape)
    steps = 0.5 * deltas
    todo = np.arange(len(deltas))
    for _ in range(30):
        hs = y.matrix + steps[todo, None, None] * h[todo]
        ms, w, lead = _retract_with_spectra(hs, label_i, tol)
        done = lead > 0
        close = linalg.hs_norm(ms - y.matrix) <= deltas[todo[done]]
        ys[todo[done][close]] = ms[close]
        spectra[todo[done][close]] = w[close]
        done[done] = close
        todo = todo[~done]
        if not todo.size:
            break
        steps[todo] *= 0.5
    else:
        raise RuntimeError("tangent retraction kept overshooting the step budget")
    ys.flags.writeable = False
    return xs, _audit(ys, spectra, label_i, tol)


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
) -> tuple[tuple, tuple]:
    """The validated (T length, n, n) stacks of the x_k and the y_k of
    sequence_toward at a sequence of T indices, index-major, from y's
    _sequence_base, each with its (T length, n) spectra."""
    label_i, label_j, frames, basis = base
    n, r, d = y.dim, j - label_i.total, len(basis)
    # tau's uniforms, then per step the d uniforms u1 and the d uniforms u2
    # of its Box-Muller Gaussians
    u = _uniform_rows(seed, [(5, index) for index in indices], 2 * r * r + 2 * length * d)
    rotations = _unitary_stack(n - label_i.total, seed, [1000 + index for index in indices])
    sigma = _kernel_mixture(y.alg, frames, {0: rotations}, [(0, r)], u)
    steps = u[:, 2 * r * r :].reshape(-1, 2, d)
    # handed over contiguous, as a step-by-step draw hands them
    coeffs = _box_muller(np.ascontiguousarray(steps[:, 0]), np.ascontiguousarray(steps[:, 1]))
    # one vector-matrix product per step, as tensordot forms a single step
    # (a (T length, d) @ (d, n n) product rounds differently)
    h = (coeffs[:, None, :] @ basis.reshape(d, n * n)).reshape(-1, n, n)
    h = h / linalg.hs_norm(h)[:, None, None]
    sigma = np.repeat(sigma, length, axis=0)
    deltas = np.tile([rate**k for k in range(1, length + 1)], len(indices))
    return _first_failure(
        lambda k: _approach_steps(y, sigma[k], h[k], deltas[k], label_i, label_j), len(h)
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
    pairs = _sequence_stacks(y, j, _sequence_base(y, j, rate), rate, length, seed, [index])
    return list(zip(*(_validated_states(*pair, y.alg, y.tol) for pair in pairs)))


def _approach_base(hs: np.ndarray, label: StratumLabel, tol: float, seed: int, indices):
    """What the approximants of a validated (B, n, n) stack of points of
    label's stratum share, whatever the target (row b is approach_state's
    point at index indices[b]): (label, tol, seed, indices, frames,
    rotations), per block that is not full the rows' kernel frames and Haar
    rotations sample_unitary(n_b - i_b, seed, 2000 + 16 index + b)."""
    frames = _kernel_frames(hs, label)
    rotations = {
        b: _unitary_stack(f.shape[-1], seed, [2000 + 16 * index + b for index in indices])
        for b, f in frames.items()
    }
    return label, tol, seed, tuple(indices), frames, rotations


def _approach_stack(hs: np.ndarray, base, target: StratumLabel, delta: float) -> tuple:
    """The validated stack of the approach_state approximants of the rows of
    hs and its spectra, from their _approach_base; hs, None at their label.

    Each row draws the uniforms of every raised block's tau, in block
    order, from its (seed, 6, index) stream at once; sigma comes from
    stacked products, and one validation and audit run on the stack. So
    every row is approach_state's, bit for bit, and when rows fail the error
    is the one of the first failing row.
    """
    label, tol, seed, indices, frames, rotations = base
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
        return hs, None
    length = 2 * sum(add * add for _, add in raises)
    u = _uniform_rows(seed, ((6, index) for index in indices), length)
    sigma = _kernel_mixture(label.alg, frames, rotations, raises, u)
    return _first_failure(lambda k: _mixed(hs[k], sigma[k], delta, target, tol), len(hs))


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
    xs, spectra = _approach_stack(hs, base, target, delta)
    return y if spectra is None else _validated_states(xs, spectra, y.alg, y.tol)[0]
