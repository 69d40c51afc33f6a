import hashlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratumlab import (
    AlgebraDescriptor,
    approach_state,
    classify,
    frontier_leq,
    full_algebra,
    linalg,
    sample_algebra,
    sample_block_unitary,
    sample_hermitian,
    sample_hs,
    sample_rank,
    sample_unitary,
    sequence_toward,
    validate_density,
)
from stratumlab import sampler, streams
from stratumlab.sampler import (
    MAX_RESAMPLE,
    _box_muller,
    _draws,
    _ginibre_stack,
    _hs_stack,
    _unitary_stack,
)
from stratumlab.streams import _polar_normal
from stratumlab.streams import STREAM_CHUNK_ROWS, STREAM_PORT_ROWS, _path_table, _uniform_rows
from stratumlab.strata import StratumLabel
from stratumlab.whitney import enumerate_labels

# frozen fingerprints: any change to the generator wiring or the
# uniform-to-normal transform must show up here as a deliberate break
GOLDEN_HS3_SEED42 = "c4a583ee44d019105eee94877fef324d36df9383ac58019a5383dfa0b5b90f1d"
GOLDEN_U4_SEED7 = "636271597de3f7f371bef8fa8fb00cc4c353747b30920e688c05b826b35b513c"
# approach_state from a sample_algebra draw of every label to every label
# strictly above it, at three deltas (seed 0)
GOLDEN_APPROACH = {
    (1, 2): "cb93befcca02c9bc99c6dff9d322fd3af7aa89c82fbbf140827f00e7281f8e02",
    (2, 2): "31b5e767c62cbed34a471f4a632d8e9a570262e1cfcf284dcfe32d76ab7e89e8",
    (1, 1, 2): "11d606154040f134aaacfecb8c28e57d2c0f169af287eca56f72c727adbef3f1",
}


def _sha(m):
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()


def test_sample_hs_reproducible_and_golden():
    a = sample_hs(3, seed=42)
    b = sample_hs(3, seed=42)
    npt.assert_array_equal(a.matrix, b.matrix)
    assert _sha(a.matrix) == GOLDEN_HS3_SEED42
    assert _sha(sample_hs(3, seed=43).matrix) != GOLDEN_HS3_SEED42
    assert _sha(sample_hs(3, seed=42, index=1).matrix) != GOLDEN_HS3_SEED42


def test_sample_unitary_golden_and_unitary():
    u = sample_unitary(4, seed=7)
    assert _sha(u) == GOLDEN_U4_SEED7
    npt.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-12)


def test_streams_are_independent_per_purpose():
    # the same (seed, index) must not leak between sampler entry points
    a = sample_hs(3, seed=5, index=2).matrix
    b = sample_hermitian(3, seed=5, index=2)
    c = sample_unitary(3, seed=5, index=2)
    assert _sha(a) != _sha(b)
    assert _sha(b) != _sha(c)


def _stream(seed, *path):
    """The generator of one stream path, built here rather than by the
    sampler, so the references below do not lean on the code they check."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def _ginibre(rng, n, m):
    """n x m complex Ginibre matrix in polar form: n m moduli, then n m
    phases."""
    u1, u2 = rng.random((n, m)), rng.random((n, m))
    return np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def test_standard_normal_moments():
    rng = _stream(0, 99)
    x = _box_muller(rng.random(200_000), rng.random(200_000))
    assert abs(float(np.mean(x))) < 0.01
    assert abs(float(np.std(x)) - 1.0) < 0.01


def test_complex_normal_moments():
    rng = _stream(0, 98)
    z = _polar_normal(rng.random(200_000), rng.random(200_000))
    assert abs(float(np.mean(z.real))) < 0.01
    assert abs(float(np.mean(z.imag))) < 0.01
    assert abs(float(np.mean(np.abs(z) ** 2)) - 1.0) < 0.02


def test_ginibre_shape():
    g = _ginibre_stack(_uniform_rows(0, [(97,), (96,)], 30), 3, 5)
    assert g.shape == (2, 3, 5)
    assert np.iscomplexobj(g)
    assert np.array_equal(g[1], _ginibre(_stream(0, 96), 3, 5))


def _reference_hs_matrix(n, seed, index):
    """The per-draw construction of sample_hs's matrix that _hs_stack replaced."""
    g = _ginibre(_stream(seed, 0, index), n, n)
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def _reference_rank_matrix(n, r, seed, index, attempt):
    """The per-draw construction of sample_rank's matrix number attempt."""
    g = _ginibre(_stream(seed, 1, index, attempt), n, r)
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def _reference_algebra_matrix(alg, seed, ranks, index, attempt):
    """The per-draw construction of sample_algebra's matrix number attempt,
    which the stacked _draws replaced."""
    rng = _stream(seed, 4, index, attempt)
    blocks = []
    for b, nb in enumerate(alg.block_sizes):
        r = nb if ranks is None else ranks[b]
        if r == 0:
            blocks.append(np.zeros((nb, nb), dtype=complex))
            continue
        g = _ginibre(rng, nb, r)
        blocks.append(g @ g.conj().T)
    m = linalg.block_embed(blocks)
    return m / float(np.trace(m).real)


def _reference_unitary(n, seed, index):
    """The per-draw construction of sample_unitary: QR of one Ginibre
    matrix, each column rephased by its R diagonal entry."""
    q, r = np.linalg.qr(_ginibre(_stream(seed, 2, index), n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("seed", (0, 20201104))
def test_stacked_draws_match_per_draw_loops(seed):
    indices = range(7, 107)
    for n in range(1, 7):
        hs = _hs_stack(n, seed, indices)
        for m, index in zip(hs, indices):
            assert np.array_equal(m, _reference_hs_matrix(n, seed, index))
    cases = [(sizes, None) for sizes in ((1,), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1), (2, 3))]
    cases += [((1, 2), (0, 2)), ((1, 1, 2), (1, 0, 1)), ((2, 3), (1, 2)), ((1, 1, 1, 1), (0, 1, 1, 0))]
    for sizes, ranks in cases:
        alg = AlgebraDescriptor(sizes)
        for attempt in (0, 3):
            ms = _draws(alg, ranks, seed, [(4, index, attempt) for index in indices])
            for m, index in zip(ms, indices):
                assert np.array_equal(m, _reference_algebra_matrix(alg, seed, ranks, index, attempt))
    # the (1, index, attempt) streams: every draw here is clean at attempt 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for index in indices[::5]:
                want = _reference_rank_matrix(n, r, seed, index, 0)
                want = validate_density(want, full_algebra(n)).matrix
                assert np.array_equal(sample_rank(n, r, seed, index).matrix, want)


@pytest.mark.parametrize("seed", (0, 20201104))
def test_uniform_rows_are_the_per_path_streams(seed):
    # tables of paths of one to four entries
    for paths in ([(3,), (0,)], [(1, 4), (6, 0)], [(1, 7, 0), (4, 9, 3)], [(4, 2, 1, 5)]):
        for length in (1, 8, 33):
            u = _uniform_rows(seed, np.array(paths), length)
            assert u.shape == (len(paths), length)
            for row, path in zip(u, paths):
                assert np.array_equal(row, _stream(seed, *path).random(length))
    assert _uniform_rows(seed, _path_table((4, 0, 1, 0), []), 6).shape == (0, 6)


def _random_paths(rng, rows, ragged):
    """A (rows, k) table of stream paths: of 0 to 5 entries, about a third
    of them >= 2^32, so that rows have ragged word counts, or
    (ragged=False) of three entries below 2^32."""
    if not ragged:
        return rng.integers(0, 2**32, (rows, 3))
    big = lambda: 2**32 + int(rng.integers(0, 2**40))
    width = int(rng.integers(0, 6))
    return np.array(
        [[big() if rng.random() < 0.3 else int(rng.integers(0, 50)) for _ in range(width)]
         for _ in range(rows)]
    ).reshape(rows, width)


def _tables(max_entry, max_width, **rows):
    """Hypothesis strategy: (rows, k) tables of Python ints (numpy would
    make floats of a list mixing entries below and from 2^63), stream paths
    of k <= max_width entries up to max_entry."""
    return st.integers(min_value=0, max_value=max_width).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(min_value=0, max_value=max_entry), min_size=k, max_size=k),
            **rows,
        ).map(lambda paths: np.array(paths, dtype=object).reshape(len(paths), k))
    )


# one row and just below the crossover between the two evaluators (Python
# ints), at it, and across a chunk boundary of the array evaluator
@pytest.mark.parametrize(
    "rows", (1, STREAM_PORT_ROWS - 1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS + 1)
)
@pytest.mark.parametrize("length", (1, 8, 33, 128))
def test_uniform_rows_routes_are_the_numpy_streams(rows, length):
    rng = np.random.default_rng(1000 * rows + length)
    # seeds of two and three words; paths given as generators
    seed = 2**32 + int(rng.integers(0, 2**62)) * int(rng.integers(1, 2**8))
    for ragged in (True, False):
        paths = _random_paths(rng, rows, ragged)
        u = _uniform_rows(seed, paths, length)
        assert u.shape == (rows, length)
        for row, path in zip(u, paths.tolist()):
            assert np.array_equal(row, _stream(seed, *path).random(length))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**80),
    _tables(2**70, 5, min_size=STREAM_PORT_ROWS, max_size=3 * STREAM_PORT_ROWS),
    st.sampled_from((1, 8, 33, 128)),
)
def test_uniform_rows_port_is_the_numpy_streams(seed, paths, length):
    u = _uniform_rows(seed, paths, length)
    for row, path in zip(u, paths.tolist()):
        assert np.array_equal(row, _stream(seed, *path).random(length))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**80),
    _tables(2**70, 7, max_size=STREAM_PORT_ROWS - 1),
    st.integers(min_value=0, max_value=200),
)
def test_uniform_rows_python_int_evaluator_is_the_numpy_streams(seed, paths, length):
    # seeds and entries of one to three words, paths of up to 7 entries (so
    # pools mixing up to 21 words), any row length from 0
    u = _uniform_rows(seed, paths, length)
    assert u.shape == (len(paths), length)
    for row, path in zip(u, paths.tolist()):
        assert np.array_equal(row, _stream(seed, *path).random(length))


# either side of the crossover between the two evaluators and of a chunk
# boundary of the array evaluator
@pytest.mark.parametrize(
    "rows",
    (1, STREAM_PORT_ROWS - 1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS, STREAM_CHUNK_ROWS + 1),
)
def test_uniform_rows_prefix_is_the_shorter_read(rows):
    # each double comes from its own LCG state: a row's first l doubles are
    # the same for every read of length L >= l, so frontier_matrix reads
    # each path once, to its longest length, and hands every consumer its
    # prefix
    seed, paths = 20201104, [(5, t) for t in range(rows)]
    longest = 130 if rows > STREAM_PORT_ROWS else 618
    u = _uniform_rows(seed, paths, longest)
    for length in (0, 1, 2, 18, 90, longest - 1, longest):
        short = _uniform_rows(seed, paths, length)
        assert np.array_equal(u[:, :length].view(np.uint64), short.view(np.uint64))
    # a read of fewer rows takes the other evaluator; its rows are the same
    if rows > 1:
        assert np.array_equal(_uniform_rows(seed, paths[-1:], 90), u[-1:, :90])


def _refuse_any_draw(monkeypatch):
    """Make both evaluators fail the test if a row is seeded, so that a
    refusal is seen to come before any draw."""
    def drawn(*args):
        raise AssertionError("a row was drawn before the refusal")
    monkeypatch.setattr(streams, "_pcg64_seeding", drawn)
    monkeypatch.setattr(streams, "_pcg64_rows", drawn)


# the bad entry last: in the one row, below the crossover, and in the second
# chunk of the array evaluator
@pytest.mark.parametrize("rows", (1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS + 1))
def test_uniform_rows_refuse_non_integer_entries(rows, monkeypatch):
    _refuse_any_draw(monkeypatch)
    good = [(4, k, 0) for k in range(rows - 1)]
    for seed, last in ((1.5, (4, 0, 0)), (np.float64(2.0), (4, 0, 0)), (3, (4, 2.5, 0))):
        with pytest.raises(TypeError):
            _uniform_rows(seed, good + [last], 8)
    # a seed is no longer truncated to its integer part
    with pytest.raises(TypeError):
        sample_hs(2, 1.5)


@pytest.mark.parametrize("rows", (1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS + 1))
def test_uniform_rows_refuse_negative_entries(rows, monkeypatch):
    _refuse_any_draw(monkeypatch)
    good = [(4, k, 0) for k in range(rows - 1)]
    for seed, last in ((-1, (4, 0, 0)), (3, (4, -2**40, 0)), (3, (np.int64(-1), 0, 0))):
        with pytest.raises(ValueError, match="non-negative integer"):
            _uniform_rows(seed, good + [last], 8)


@pytest.mark.parametrize("rows", (1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS + 1))
def test_uniform_rows_tables_refuse_bad_entries(rows, monkeypatch):
    # int64 tables and tables of Python ints, on both evaluators: a negative
    # entry is a ValueError, a non-integer one a TypeError, before any draw
    _refuse_any_draw(monkeypatch)
    good = _path_table((4, 0, 1, 0), range(rows - 1))
    for last, error in (
        ([4, -1, 0], ValueError),
        ([4, 2**70, -2**40], ValueError),
        ([4, 2.0, 0], TypeError),
        ([4, 2**70, 0.5], TypeError),
    ):
        # an int64, object, float64 and object table
        with pytest.raises(error):
            _uniform_rows(3, np.concatenate([good, np.array([last])]), 8)
    # a non-integer index is refused as the table is built, a negative path
    # entry by the read
    with pytest.raises(TypeError):
        _path_table((4, 0, 1, 0), list(range(rows - 1)) + [1.5])
    with pytest.raises(ValueError, match="non-negative integer"):
        _uniform_rows(3, _path_table((2, 1000, 1), list(range(rows - 1)) + [-1001]), 8)


@pytest.mark.parametrize("rows", (1, STREAM_PORT_ROWS, STREAM_CHUNK_ROWS + 1))
def test_path_table_rows_are_the_family_paths(rows):
    # (head, at, stride, *tail) at index i is (head, at + stride i, *tail):
    # int64 for indices of a word, Python ints beyond, exactly
    for family in ((0, 0, 1), (4, 0, 1, 3), (2, 2000 + 2, 16)):
        head, at, stride, *tail = family
        for indices in (range(rows), np.arange(5, 5 + rows), [2**64 + k for k in range(rows)],
                        [2**62] + list(range(rows - 1))):
            table = _path_table(family, indices)
            want = [(head, at + stride * int(i), *tail) for i in indices]
            assert table.shape == (rows, 2 + len(tail))
            assert list(map(tuple, table.tolist())) == want
            assert table.dtype == (np.int64 if max(want)[1] <= 2**33 else object)
    u = _uniform_rows(3, _path_table((2, 1000, 1), [2**64] * rows), 5)
    assert np.array_equal(u[-1], _stream(3, 2, 2**64 + 1000).random(5))


def test_uniform_rows_array_evaluator_temporaries_stay_few():
    # whitney's longest call: the traced peak counts the (rows, length)
    # arrays alive at once, the returned doubles included; each full-size
    # temporary is dropped once added, so fewer than nine are ever alive
    paths = [(5, t) for t in range(25)]
    _uniform_rows(0, paths, 618)
    tracemalloc.start()
    try:
        _uniform_rows(0, paths, 618)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 25 * 618 * 8


@pytest.mark.parametrize("seed", (0, 20201104))
def test_unitary_stack_rows_are_the_per_index_draws(seed):
    # the index families of the sequences, the approximants' blocks, the
    # margin splits and plain draws
    families = [range(5)]
    families += [[1000 + i for i in range(5)], [3000 + i for i in range(5)]]
    families += [[2000 + 16 * i + b for i in range(4) for b in range(3)]]
    for n in range(1, 7):
        for indices in families:
            rows = _uniform_rows(seed, [(2, index) for index in indices], 2 * n * n)
            us = _unitary_stack(rows, n)
            assert us.shape == (len(indices), n, n)
            for u, index in zip(us, indices):
                assert np.array_equal(u, _reference_unitary(n, seed, index))
                assert np.array_equal(u, sample_unitary(n, seed, index))


def test_sample_hs_is_valid_full_rank():
    for n in (2, 3, 5):
        rho = sample_hs(n, seed=8)
        assert rho.alg == full_algebra(n)
        assert classify(rho).total == n


def test_sample_hs_concentrates_on_top_stratum():
    full = sum(classify(sample_hs(3, seed=9, index=s)).total == 3 for s in range(2000))
    assert full == 2000


def test_sample_rank():
    for n in (2, 4):
        for r in range(1, n + 1):
            rho = sample_rank(n, r, seed=10, index=r)
            assert classify(rho).per_block == (r,)
    with pytest.raises(ValueError):
        sample_rank(3, 0, seed=10)
    with pytest.raises(ValueError):
        sample_rank(3, 4, seed=10)


def test_sample_block_unitary():
    alg = AlgebraDescriptor((1, 2, 3))
    u = sample_block_unitary(alg, seed=11)
    npt.assert_allclose(u.conj().T @ u, np.eye(6), rtol=0, atol=1e-12)
    assert linalg.off_block_magnitude(u, alg.block_sizes) == 0.0


def test_sample_hermitian_unit_norm():
    h = sample_hermitian(4, seed=12)
    npt.assert_array_equal(h, h.conj().T)
    assert linalg.hs_norm(h) == pytest.approx(1.0, abs=1e-12)
    # the (3, index) stream
    want = linalg.hermitian_part(_ginibre(_stream(12, 3, 0), 4, 4))
    assert np.array_equal(h, want / linalg.hs_norm(want))


def test_sample_algebra():
    alg = AlgebraDescriptor((1, 2))
    rho = sample_algebra(alg, seed=13)
    assert rho.alg == alg
    assert linalg.off_block_magnitude(rho.matrix, alg.block_sizes) == 0.0
    assert classify(rho).per_block == (1, 2)
    pinned = sample_algebra(alg, seed=13, ranks=(1, 1))
    assert classify(pinned).per_block == (1, 1)
    with pytest.raises(ValueError):
        sample_algebra(alg, seed=13, ranks=(0, 0))


def test_sequence_toward_geometry():
    y = sample_rank(3, 1, seed=14)
    seq = sequence_toward(y, 2, rate=0.5, length=12, seed=14)
    assert len(seq) == 12
    prev = None
    for k, (x, yk) in enumerate(seq, start=1):
        assert classify(x).per_block == (2,)
        assert classify(yk).per_block == (1,)
        d = linalg.hs_norm(x.matrix - y.matrix)
        delta = 0.5**k
        assert d <= 2.0 * delta + 1e-12
        if prev is not None:
            assert d < prev
        prev = d
        assert linalg.hs_norm(yk.matrix - y.matrix) <= delta + 1e-12
    # the terminal point is genuinely close
    assert prev <= 2.0 * 0.5**12


def test_sequence_toward_rejects_bad_targets():
    y = sample_rank(3, 2, seed=15)
    with pytest.raises(ValueError):
        sequence_toward(y, 2, seed=15)  # target must exceed the base rank
    with pytest.raises(ValueError):
        sequence_toward(y, 4, seed=15)
    alg = AlgebraDescriptor((1, 2))
    rho = sample_algebra(alg, seed=15)
    with pytest.raises(ValueError):
        sequence_toward(rho, 3, seed=15)  # single-block only


def test_approach_state():
    alg = AlgebraDescriptor((1, 2))
    y = sample_algebra(alg, seed=16, ranks=(1, 1))
    target = StratumLabel(alg, (1, 2))
    x = approach_state(y, target, delta=4e-7, seed=16)
    assert classify(x).per_block == (1, 2)
    # x = (1-d) y + d sigma, so ||x - y|| = d ||sigma - y|| <= 2 d
    assert linalg.hs_norm(x.matrix - y.matrix) <= 2 * 4e-7
    # no raise needed: the same label returns y itself
    same = approach_state(y, StratumLabel(alg, (1, 1)), seed=16)
    npt.assert_array_equal(same.matrix, y.matrix)
    with pytest.raises(ValueError):
        approach_state(y, StratumLabel(alg, (0, 1)), seed=16)


def test_sequence_toward_label():
    # a geometric sequence of deltas toward a multi-block label reaches the
    # target stratum every time, and its distances to y fall strictly
    alg = AlgebraDescriptor((1, 2))
    y = sample_algebra(alg, seed=17, ranks=(1, 1))
    target = StratumLabel(alg, (1, 2))
    dists = []
    for k in range(1, 9):
        xk = approach_state(y, target, delta=0.5**k, seed=17, index=k)
        assert classify(xk).per_block == (1, 2)
        dists.append(linalg.hs_norm(xk.matrix - y.matrix))
    assert all(b < a for a, b in zip(dists[:-1], dists[1:]))


@pytest.mark.parametrize("sizes", list(GOLDEN_APPROACH))
def test_approach_state_golden(sizes):
    alg = AlgebraDescriptor(sizes)
    labels = enumerate_labels(alg)
    digest = hashlib.sha256()
    for s, source in enumerate(labels):
        y = sample_algebra(alg, seed=0, ranks=source.per_block, index=s)
        for t, target in enumerate(labels):
            if target == source or not frontier_leq(source, target):
                continue
            for k, delta in enumerate((0.25, 1e-3, 4e-7)):
                x = approach_state(y, target, delta=delta, seed=0, index=t * 3 + k)
                digest.update(x.matrix.tobytes())
    assert digest.hexdigest() == GOLDEN_APPROACH[sizes]


def test_validation_of_returned_samples():
    # every sampler output passes strict re-validation
    for n in (2, 4):
        rho = sample_hs(n, seed=18)
        validate_density(rho.matrix, rho.alg, rho.tol)
    rho = sample_rank(4, 2, seed=18)
    validate_density(rho.matrix, rho.alg, rho.tol)


def _refuse_first_ranks(monkeypatch, times):
    """Make the sampler's rank decision leave every row undecided (a
    gray-zone eigenvalue) in its first `times` calls, in place of any
    earlier patch; return the list that records every call's spectra."""
    monkeypatch.undo()
    original = sampler._stack_decision
    seen = []

    def patched(spectra, tol):
        seen.append(spectra)
        ranks, gray = original(spectra, tol)
        if len(seen) <= times:
            gray = np.full(gray.shape, 5 * tol)
        return ranks, gray

    monkeypatch.setattr(sampler, "_stack_decision", patched)
    return seen


def test_an_ambiguous_first_draw_resamples_from_the_next_attempt(monkeypatch):
    n, r, seed, index = 4, 2, 31, 5
    seen = _refuse_first_ranks(monkeypatch, 1)
    got = sample_rank(n, r, seed, index).matrix
    assert len(seen) == 2
    draws = [_reference_rank_matrix(n, r, seed, index, k) for k in (0, 1)]
    draws = [validate_density(m, full_algebra(n)).matrix for m in draws]
    assert not np.array_equal(got, draws[0])
    assert np.array_equal(got, draws[1])

    alg, ranks = AlgebraDescriptor((1, 3)), (1, 2)
    seen = _refuse_first_ranks(monkeypatch, 1)
    got = sample_algebra(alg, seed, ranks=ranks, index=index).matrix
    assert len(seen) == 2
    draws = [_reference_algebra_matrix(alg, seed, ranks, index, k) for k in (0, 1)]
    draws = [validate_density(m, alg).matrix for m in draws]
    assert not np.array_equal(got, draws[0])
    assert np.array_equal(got, draws[1])


def test_resampling_gives_up_after_max_resample_attempts(monkeypatch):
    for draw in (
        lambda: sample_rank(3, 2, seed=32),
        lambda: sample_algebra(AlgebraDescriptor((2, 2)), 32, ranks=(1, 2)),
    ):
        seen = _refuse_first_ranks(monkeypatch, float("inf"))
        with pytest.raises(RuntimeError, match=f"in {MAX_RESAMPLE} tries"):
            draw()
        assert len(seen) == MAX_RESAMPLE
