"""Seeded uniform streams: the package's own bit-exact port of numpy's
SeedSequence and PCG64 (O'Neill, HMC-CS-2014-0905; numpy NEP 19).

_uniform_rows(seed, paths, length) is the only reader of the streams: row b
is the first length doubles of Generator(PCG64(SeedSequence([seed,
*paths[b]]))). The paths are one (B, k) integer table, which _path_table
builds from a row family and an index array: family (head, at, stride,
*tail) at index i is the path (head, at + stride i, *tail). Seed and path
entries are non-negative integers of any size (a table of Python ints
holds those past int64). The port has two evaluators: Python ints per row
for calls of fewer than STREAM_PORT_ROWS rows, numpy arrays for whole
ensembles (in chunks of STREAM_CHUNK_ROWS rows). No module of the package
loads numpy.random; the tests hold both evaluators to numpy's own generator.
A row's first l doubles are the same for any read of length L >= l. The
Gaussians of the rows are Box-Muller transforms (polar for complex ones).
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

# calls of fewer rows take the Python-int evaluator, 13-20 us a row of 2-18
# doubles and 25-35 us a row of 72 on a 2-core x86 host; the array evaluator
# costs 160-350 us a call, so it wins from 12-16 rows of 2-18 doubles and 9-10
# of 72 (process time, median of 11 alternating rounds, two host loads)
STREAM_PORT_ROWS = 12
# rows per call of the array evaluator: bounds its (rows, length) uint64
# temporaries, which for a whole 10,000-draw ensemble would raise the peak
# memory
STREAM_CHUNK_ROWS = 1024

_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# PCG64's LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# SeedSequence's hash constants: INIT_A, MULT_A of the pool, INIT_B, MULT_B
# of generate_state
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
# the output's uint64 shift counts, made once: a one-row call costs about ten
# array operations, and making each count would add a third to them
_SHIFTS = {k: np.uint64(k) for k in (11, 58, 63, 64)}


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, calls: int) -> tuple[int, ...]:
    """The uint32 constants init mult^k, k = 0 .. calls, of a SeedSequence
    hash: call k xors constant k, then multiplies by constant k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


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


def _entropy_words(seed: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, W) uint32 entropy words of SeedSequence([seed, *table[b]]),
    zero padded to W >= 4 columns, and the (B,) word count of each row, for
    a (B, k) table of B >= 1 paths."""
    head = _words(seed)
    if table.dtype.kind in "iu" and (
        table.size == 0 or table.min() >= 0 and table.max() <= _MASK32
    ):
        # every entry is one word
        tails = table
        counts = np.full(len(table), len(head) + tails.shape[1])
    else:
        rows = [[w for entry in path for w in _words(entry)] for path in table.tolist()]
        tails = np.zeros((len(rows), max(map(len, rows))), dtype=np.uint32)
        for b, row in enumerate(rows):
            tails[b, : len(row)] = row
        counts = len(head) + np.array([len(row) for row in rows])
    words = np.zeros((len(table), max(4, len(head) + tails.shape[1])), dtype=np.uint32)
    words[:, : len(head)] = head
    words[:, len(head) : len(head) + tails.shape[1]] = tails
    return words, counts


def _path_table(family: tuple, indices) -> np.ndarray:
    """The (B, k) table of the stream paths of a row family (head, at,
    stride, *tail) at a sequence of B indices (a range, a list or an
    integer array): row b is the path (head, at + stride indices[b],
    *tail). An int64 table when the indices fit in one word, else a table
    of Python ints, exact at any size; a non-integer index is refused here
    (TypeError), a negative path entry by _uniform_rows (ValueError)."""
    head, at, stride, *tail = family
    if isinstance(indices, range):
        index = np.arange(indices.start, indices.stop, indices.step)
    else:
        index = np.asarray(indices)
    if not index.size or (
        index.dtype.kind in "iu" and -_MASK32 <= index.min() <= index.max() <= _MASK32
    ):
        column = at + stride * index.astype(np.int64)
    else:
        column = np.empty(len(index), dtype=object)
        column[:] = [at + stride * operator.index(i) for i in indices]
    table = np.empty((len(column), 2 + len(tail)), dtype=column.dtype)
    table[:, 0] = head
    table[:, 1] = column
    table[:, 2:] = tail
    return table


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
    it can, and each full-size temporary dropped once added, which keeps
    the temporaries alive at once few."""
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
    hi += p01
    hi += p10
    hi += mid
    del p01, p10, mid
    hi += a_lo * b_hi
    hi += a_hi * b_lo
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a_hi 2^64 + a_lo) + (b_hi 2^64 + b_lo) mod 2^128 on uint64 halves,
    written into a's halves."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo
    return a_hi, a_lo


def _jump_columns(length: int) -> tuple[int, int]:
    """M^(k + 1) and 1 + M + ... + M^k mod 2^128, k = 1 .. length, each
    packed into one int, the k-th in its 320-bit slot k - 1: from a state t,
    the LCG's (k + 1)-th step is the first times t plus the second times inc.
    So power t + geometric inc holds every such step of one row, each slot
    below 2^258 and read by _slot_halves."""
    power, geometric, packed = _PCG_MULT, 1, [0, 0]
    for k in range(length):
        geometric = (geometric + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        packed[0] |= power << 320 * k
        packed[1] |= geometric << 320 * k
    return tuple(packed)


# the Python-int evaluator's tables, made once per length
_jump_tables = functools.lru_cache(maxsize=64)(_jump_columns)


@functools.lru_cache(maxsize=64)
def _jump_halves(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (2, length) uint64 high and low halves of the jump
    tables, for the array evaluator: made once per length, as building them
    on every call fragments the heap of a long run, and without keeping the
    packed ints, which it does not read."""
    halves = _slot_halves(_jump_columns(length), length)
    for half in halves:
        half.flags.writeable = False
    return halves


def _slot_halves(packed, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The (len(packed), length) uint64 high and low halves of the value mod
    2^128 of each 320-bit slot of each of a sequence of packed ints, as new
    arrays."""
    buffer = b"".join(value.to_bytes(40 * length, "little") for value in packed)
    words = np.frombuffer(buffer, dtype="<u8").reshape(len(packed), length, 5)
    return words[..., 1].copy(), words[..., 0].copy()


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's outputs at the LCG states hi 2^64 + lo (uint64 halves) as
    doubles: the XSL-RR output, then its top 53 bits; works in hi and lo,
    so that no third full-size array is made."""
    rot = hi >> _SHIFTS[58]
    hi ^= lo
    np.left_shift(hi, (_SHIFTS[64] - rot) & _SHIFTS[63], out=lo)
    hi >>= rot
    hi |= lo
    hi >>= _SHIFTS[11]
    return hi * (1.0 / 9007199254740992.0)


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
    # 4 calls fill the pool, 12 mix it, 4 per further word
    consts = np.array(_hash_constants(*_HASH_A, 4 * words.shape[1]), dtype=np.uint32)
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
    consts = np.array(_hash_constants(*_HASH_B, 8), dtype=np.uint32)
    state = _hashmix(np.tile(pool, 2), consts, np.arange(8)).astype(np.uint64)
    s = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    # PCG64's seeding: inc = 2 (s2 2^64 + s3) + 1; the state is 0, steps,
    # adds s0 2^64 + s1 and steps, which is one step from t = s0:s1 + inc
    one = np.uint64(1)
    inc_hi = (s[:, 2, None] << one) | (s[:, 3, None] >> np.uint64(63))
    inc_lo = (s[:, 3, None] << one) | one
    t_hi, t_lo = _add128(s[:, 0, None], s[:, 1, None], inc_hi, inc_lo)
    (a_hi, g_hi), (a_lo, g_lo) = _jump_halves(length)
    hi, lo = _add128(*_mul128(t_hi, t_lo, a_hi, a_lo), *_mul128(inc_hi, inc_lo, g_hi, g_lo))
    return _doubles(hi, lo)


@functools.lru_cache(maxsize=16)
def _seeding_calls(words: int) -> tuple[tuple, tuple]:
    """The hash calls of SeedSequence's pool for a given number (>= 4) of
    entropy words, as (word, xor constant, multiplier) for the 4 that fill
    the pool, then (source, destination, xor constant, multiplier) for the
    mixes: each pool word into the others, in order, then every further
    word (source >= 4) into all four."""
    a = _hash_constants(*_HASH_A, 4 * words)
    order = [(src, dst) for src in range(words) for dst in range(4) if dst != src]
    fill = tuple((k, a[k], a[k + 1]) for k in range(4))
    return fill, tuple((src, dst, a[k], a[k + 1]) for k, (src, dst) in enumerate(order, start=4))


# generate_state(4, uint64)'s calls: pool word, xor constant, multiplier, and
# the bit of (s2 2^64 + s3) 2^128 + s0 2^64 + s1 its output lands at, its
# uint64 pairs being little-endian
_GENERATE_CALLS = tuple(
    (k % 4, b0, b1, 32 * (k ^ 2))
    for k, (b0, b1) in enumerate(itertools.pairwise(_hash_constants(*_HASH_B, 8)))
)


def _pcg64_seeding(words: list[int]) -> tuple[int, int]:
    """_pcg64_rows's seeding of one row in Python ints, where the 128-bit
    LCG is native: the state t one step before the first output's and the
    increment inc of PCG64(SeedSequence(entropy)), for the entropy's uint32
    words."""
    words = words + [0] * (4 - len(words))
    fill, mixes = _seeding_calls(len(words))
    pool = []
    for k, xor, mult in fill:
        h = (words[k] ^ xor) * mult & _MASK32
        pool.append(h ^ h >> 16)
    pool += words[4:]
    for src, dst, xor, mult in mixes:
        h = (pool[src] ^ xor) * mult & _MASK32
        r = (pool[dst] * 0xCA01F9DD - (h ^ h >> 16) * 0x4973F715) & _MASK32
        pool[dst] = r ^ r >> 16
    s = 0
    for k, xor, mult, bit in _GENERATE_CALLS:
        h = (pool[k] ^ xor) * mult & _MASK32
        s |= (h ^ h >> 16) << bit
    inc = (s >> 128 << 1 | 1) & _MASK128
    return (s + inc) & _MASK128, inc


def _uniform_rows(seed: int, paths: np.ndarray, length: int) -> np.ndarray:
    """The (B, length) array of one row of uniforms per row of a (B, k)
    table of stream paths (_path_table's): row b is the first length
    doubles of the PCG64 generator seeded by SeedSequence([seed,
    *paths[b]]).

    Two evaluators of one port read the same streams, bit for bit. Below
    STREAM_PORT_ROWS paths, each row is seeded in Python ints (from the
    table's .tolist() rows) and all its outputs' states are one product
    pair of the packed jump tables, which costs least per call. From there
    on, _pcg64_rows on chunks of STREAM_CHUNK_ROWS rows of the table's
    entropy words, so that its (rows, length) temporaries stay small
    whatever the ensemble size; an integer table whose entries are each one
    word is read as it is, entries of 2^32 or more are split into words.
    Both refuse a seed or path entry that is not a non-negative integer
    before any draw (TypeError, ValueError), as SeedSequence does.
    """
    table = np.asarray(paths)
    if len(table) < STREAM_PORT_ROWS:
        head = _words(seed)
        rows = [head + [w for entry in path for w in _words(entry)] for path in table.tolist()]
        power, geometric = _jump_tables(length)
        states = [power * t + geometric * inc for t, inc in map(_pcg64_seeding, rows)]
        return _doubles(*_slot_halves(states, length))
    # every row's entropy words, so that a bad entry refuses before a draw
    words, counts = _entropy_words(seed, table)
    out = np.empty((len(table), length))
    # the LCG and the hash wrap around by design
    with np.errstate(over="ignore"):
        for at in range(0, len(table), STREAM_CHUNK_ROWS):
            rows = slice(at, at + STREAM_CHUNK_ROWS)
            out[rows] = _pcg64_rows(words[rows], counts[rows], length)
    return out


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Gaussians sqrt(-2 ln(1-u1)) cos(2 pi u2) from two uniform arrays."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


def _polar_normal(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Complex Gaussians sqrt(-ln(1-u1)) exp(2 pi i u2) from two uniform
    arrays: independent N(0,1) real and imaginary parts."""
    radius = np.sqrt(-np.log1p(-u1))
    return radius * np.exp(2j * np.pi * u2)


def _ginibre_stack(u: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (B, n, m) complex Ginibre matrices of the first 2 n m uniforms of
    each row of u, moduli then phases, each handed over contiguous."""
    size = n * m
    return _polar_normal(
        np.ascontiguousarray(u[:, :size]).reshape(len(u), n, m),
        np.ascontiguousarray(u[:, size : 2 * size]).reshape(len(u), n, m),
    )


def _unitary_stack(u: np.ndarray, n: int) -> np.ndarray:
    """The (B, n, n) Haar unitaries of the rows u (sample_unitary's of the
    (2, index) rows): one stacked QR of the Ginibre matrices of each row's
    first 2 n^2 uniforms."""
    q, r = np.linalg.qr(_ginibre_stack(u, n, n))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


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


def _factor_doubles(shapes) -> int:
    """The doubles a row of Ginibre factors of shapes (n, m) reads: 2 n m each."""
    return 2 * sum(n * m for n, m in shapes)
