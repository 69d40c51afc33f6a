"""The (B, n, n) state core against per-state references.

validate_stack, classify_stack, orbit_signature_stack and orbit_dim_stack
must give, matrix by matrix, exactly what the per-state functions give, and
those must agree with the loop implementations they replaced (kept below as
references). The same holds for the stacked primitives of the Whitney
suite: eigh_fixed and hs_norm on stacks, tangent_basis_stack,
retract_stack, secant_direction_stack and gap_line_space_stack; and for the
split and join stacks of the join suite.
"""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratumlab import (
    AlgebraDescriptor,
    StratumLabel,
    classify,
    cone_state,
    classify_stack,
    contour_quadrature,
    enumerate_labels,
    frontier_check,
    frontier_leq,
    frontier_matrix,
    full_algebra,
    isotropy_dim,
    linalg,
    maximally_mixed,
    orbit_dim,
    orbit_dim_stack,
    orbit_signature,
    orbit_signature_stack,
    sample_algebra,
    sample_block_unitary,
    sample_unitary,
    small_spectral_projector,
    stratum_dim_label,
    tangent_basis,
    validate_density,
    validate_stack,
)
from stratumlab.errors import (
    AmbiguousClustering,
    AmbiguousRank,
    CoincidentPoints,
    EigenvalueOnContour,
    ValidationError,
)
from stratumlab.fileio import canonical_json
from stratumlab.orbits import DEFAULT_CLUSTER_TOL, _clusters, _type_counts
from stratumlab.joins import (
    WEIGHT_DROP_TOL,
    _join_stack,
    _split_stack,
    convex_split,
    join_piece_label,
    join_state,
    summand_algebras,
)
from stratumlab.sampler import (
    FRONTIER_DELTA,
    _approach_base,
    _approach_reads,
    _approach_stack,
    _hs_stack,
    _resampled_stack,
    approach_state,
)
from stratumlab.states import DEFAULT_TOL, _validated_stack
from stratumlab.streams import STREAM_CHUNK_ROWS, _uniform_rows
from stratumlab.strata import (
    _tangent_template,
    rank_from_eigenvalues,
    retract_stack,
    retract_to_stratum,
    tangent_basis_stack,
)
from stratumlab.verify import (
    DEFAULT_FRONTIER_ALGEBRAS,
    TETRAHEDRON,
    TETRAHEDRON_SPLIT,
    suite_frontier,
    suite_join,
    suite_orbit_census,
    suite_projector_equiv,
    suite_whitney,
)
from stratumlab import charts, sampler, verify
from stratumlab.whitney import (
    _frontier_sources,
    gap_line_space,
    gap_line_space_stack,
    secant_direction,
    secant_direction_stack,
)

ALGEBRAS = ((2,), (3,), (1, 2), (2, 2), (1, 1, 1, 1))


def _reference_multiplicities(w, cluster_tol):
    """The per-block single-linkage loop orbit_signature used to run."""
    w = np.sort(np.asarray(w, dtype=float))
    sizes = [1]
    boundary_gaps = []
    for a, b in zip(w[:-1], w[1:]):
        gap = b - a
        if gap <= cluster_tol:
            sizes[-1] += 1
        else:
            sizes.append(1)
            boundary_gaps.append(gap)
    for gap in boundary_gaps:
        if gap < 10.0 * cluster_tol:
            raise AmbiguousClustering(gap, cluster_tol)
    return tuple(sorted(sizes, reverse=True))


def _anti_hermitian_basis(n):
    """Real orthonormal basis of the anti-Hermitian n x n matrices."""
    out = []
    for d in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[d, d] = 1j
        out.append(m)
    for d in range(n):
        for e in range(d + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[d, e], m[e, d] = 1.0, -1.0
            out.append(m / np.sqrt(2.0))
            m = np.zeros((n, n), dtype=complex)
            m[d, e], m[e, d] = 1j, 1j
            out.append(m / np.sqrt(2.0))
    return out


def _reference_orbit_dim(rho, tol=1e-9):
    """Rank of X -> [X, rho] built column by column over the real basis of
    the block-diagonal anti-Hermitian matrices, as orbit_dim used to."""
    n = rho.dim
    columns = []
    at = 0
    for nb in rho.alg.block_sizes:
        for x_block in _anti_hermitian_basis(nb):
            x = np.zeros((n, n), dtype=complex)
            x[at : at + nb, at : at + nb] = x_block
            c = x @ rho.matrix - rho.matrix @ x
            columns.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
        at += nb
    sv = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
    return rank_from_eigenvalues(sv, tol)


def _clustered(alg, seed, index):
    """A state whose blocks have repeated eigenvalues (and one empty block
    when there are several), rotated by a random block unitary."""
    rng = np.random.default_rng([seed, index])
    blocks = []
    for b, n in enumerate(alg.block_sizes):
        if alg.num_blocks > 1 and b == index % alg.num_blocks:
            blocks.append(np.zeros(n))
            continue
        levels = rng.choice([0.0, 1.0, 2.0], size=n)
        levels[rng.integers(n)] = 3.0  # no block is all zero
        blocks.append(levels)
    d = np.concatenate(blocks)
    u = sample_block_unitary(alg, seed, index)
    m = (u * (d / d.sum())) @ u.conj().T
    return linalg.hermitian_part(m)


def _matrices(alg):
    out = [np.array(sample_algebra(alg, 3, index=s).matrix) for s in range(12)]
    out += [
        np.array(sample_algebra(alg, 3, ranks=tuple(max(1, n - 1) for n in alg.block_sizes),
                                index=s).matrix)
        for s in range(4)
    ]
    out += [_clustered(alg, 5, s) for s in range(8)]
    out.append(np.array(maximally_mixed(alg).matrix))
    return np.array(out)


@pytest.mark.parametrize("sizes", ALGEBRAS)
def test_stack_matches_per_state(sizes):
    alg = AlgebraDescriptor(sizes)
    ms = _matrices(alg)
    hs = validate_stack(ms, alg)
    assert not hs.flags.writeable
    ranks = classify_stack(hs, alg)
    sigs = orbit_signature_stack(hs, alg)
    dims = orbit_dim_stack(hs, alg)
    assert ranks.shape == (len(ms), alg.num_blocks)
    for b, m in enumerate(ms):
        rho = validate_density(m, alg)
        # bit-equal to the per-state wrapper and to the old Hermitization
        assert np.array_equal(hs[b], rho.matrix)
        assert np.array_equal(hs[b], linalg.as_hermitian(m))
        old_ranks = tuple(
            rank_from_eigenvalues(np.linalg.eigvalsh(block), rho.tol) for block in rho.blocks()
        )
        assert tuple(ranks[b]) == classify(rho).per_block == old_ranks
        old_sig = tuple(
            _reference_multiplicities(np.linalg.eigvalsh(block), 1e-8) for block in rho.blocks()
        )
        assert sigs[b] == orbit_signature(rho)
        assert sigs[b].per_block == old_sig
        assert dims[b] == orbit_dim(rho) == _reference_orbit_dim(rho)
        assert dims[b] + sum(m * m for p in old_sig for m in p) == alg.unitary_group_dim


@st.composite
def near_degenerate_states(draw):
    """A state of a direct sum of total size 2 to 6 (blocks in random order)
    whose block of size >= 2 has one eigenvalue pair 10^U(-12, -5) apart,
    across the gray zone (tol/10, 10 tol) of the orbit map's values; the
    other eigenvalues are random, some zero; rotated by a block unitary."""
    pair_size = draw(st.integers(2, 6))
    rest = []
    for size in draw(st.lists(st.integers(1, 4), max_size=4)):
        if pair_size + sum(rest) + size <= 6:
            rest.append(size)
    at = draw(st.integers(0, len(rest)))
    alg = AlgebraDescriptor(tuple(rest[:at] + [pair_size] + rest[at:]))
    levels = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=alg.dim, max_size=alg.dim)))
    first = sum(rest[:at]) + draw(st.integers(0, pair_size - 2))
    levels[first : first + 2] = draw(st.floats(0.05, 1.0))
    levels /= levels.sum()
    gap = 10.0 ** draw(st.floats(-12.0, -5.0))
    levels[first : first + 2] += (-gap / 2, gap / 2)
    u = sample_block_unitary(alg, draw(st.integers(0, 2**31 - 1)))
    return validate_density((u * levels) @ u.conj().T, alg)


def _dim_or_refusal(route, rho):
    try:
        return route(rho)
    except AmbiguousRank:
        return "refused"


@settings(max_examples=150, deadline=None)
@given(near_degenerate_states())
def test_orbit_map_eigenvalues_match_the_svd_oracle(rho):
    # |eigvalsh| of the Hermitian orbit map against the SVD of the real map
    assert _dim_or_refusal(orbit_dim, rho) == _dim_or_refusal(_reference_orbit_dim, rho)


def test_stack_of_none_and_shape_errors():
    alg = AlgebraDescriptor((1, 2))
    empty = validate_stack(np.zeros((0, 3, 3)), alg)
    assert empty.shape == (0, 3, 3)
    assert classify_stack(empty, alg).shape == (0, 2)
    assert orbit_signature_stack(empty, alg) == []
    assert orbit_dim_stack(empty, alg).shape == (0,)
    with pytest.raises(ValueError):
        validate_stack(np.zeros((3, 3)), alg)
    with pytest.raises(ValueError):
        validate_stack(np.zeros((2, 2, 2)), alg)


def _first_error(ms, alg, tols):
    """What a per-state validate_density loop over the stack, at each
    matrix's own tol, raises first."""
    for m, tol in zip(ms, tols):
        try:
            validate_density(m, alg, tol)
        except ValidationError as exc:
            return type(exc), exc.magnitude
    return None


def _bad(kind, good):
    m = np.array(good, dtype=complex)
    if kind == "asym":
        m[0, -1] += 3e-6
    elif kind == "nan":
        m[-1, -1] = np.nan
    elif kind == "inf":
        m[0, 0] = np.inf
    elif kind == "offblock":
        m[0, -1] += 2e-6
        m[-1, 0] += 2e-6
    elif kind == "trace":
        m *= 1.25
    elif kind == "mild-trace":
        m *= 1.0 + 1e-7
    elif kind == "negative":
        w, v = np.linalg.eigh(m)
        w[-1] += w[0] + 1e-3
        w[0] = -1e-3
        m = (v * w) @ v.conj().T
    return m


@pytest.mark.parametrize("sizes", ((3,), (1, 2), (2, 2)))
def test_validate_stack_raises_the_loops_first_error(sizes):
    alg = AlgebraDescriptor(sizes)
    good = [np.array(sample_algebra(alg, 11, index=s).matrix) for s in range(6)]
    kinds = ["asym", "nan", "inf", "trace", "mild-trace", "negative"]
    if alg.num_blocks > 1:
        kinds.append("offblock")
    # one tol for the stack, then per-matrix tols under which the mild
    # violations (trace off by 1e-7, off-block entries of 2e-6) pass on the
    # odd rows only
    row_tols = np.where(np.arange(len(good)) % 2, 1e-5, 1e-9)
    cases = 0
    for tol in (1e-9, row_tols):
        for first in kinds:
            for second in kinds:
                for at, later in ((1, 4), (3, 2), (0, 5), (1, 3)):
                    ms = list(good)
                    ms[at] = _bad(first, good[at])
                    ms[later] = _bad(second, good[later])
                    expected = _first_error(ms, alg, np.broadcast_to(tol, len(ms)))
                    cases += 1
                    if expected is None:
                        validate_stack(np.array(ms), alg, tol)
                        continue
                    with pytest.raises(ValidationError) as exc:
                        validate_stack(np.array(ms), alg, tol)
                    assert type(exc.value) is expected[0]
                    if expected[1] is None:
                        assert exc.value.magnitude is None
                    else:
                        assert exc.value.magnitude == expected[1]
    assert cases == 2 * 4 * len(kinds) ** 2


def test_stack_refusals_name_the_loops_first_value():
    # a block-by-block scan would meet the third state's first block first;
    # the per-state loop meets the second state's second block
    alg = AlgebraDescriptor((1, 2))
    clean = np.diag([0.5, 0.3, 0.2]).astype(complex)
    gray_late = np.diag([0.6, 0.4 - 5e-9, 5e-9]).astype(complex)
    gray_early = np.diag([3e-9, 0.5, 0.5 - 3e-9]).astype(complex)
    hs = validate_stack(np.array([clean, gray_late, gray_early]), alg)
    with pytest.raises(AmbiguousRank) as exc:
        classify_stack(hs, alg)
    assert exc.value.value == pytest.approx(5e-9)

    alg = AlgebraDescriptor((2, 2))
    clean = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    near_late = np.diag([0.3, 0.2, 0.25 + 2.5e-8, 0.25 - 2.5e-8]).astype(complex)
    near_early = np.diag([0.25 + 3e-8, 0.25 - 3e-8, 0.3, 0.2]).astype(complex)
    hs = validate_stack(np.array([clean, near_late, near_early]), alg)
    with pytest.raises(AmbiguousClustering) as exc:
        orbit_signature_stack(hs, alg)
    assert exc.value.gap == pytest.approx(5e-8, rel=1e-6)


@pytest.mark.parametrize("sizes", ((2,), (1, 2), (1, 1, 1)))
def test_frontier_shared_sources_match_per_pair_draws(sizes):
    alg = AlgebraDescriptor(sizes)
    table = frontier_matrix(alg, samples=3, seed=9)
    labels = enumerate_labels(alg)
    expected, reachable, mismatches = [], [], []
    for a in labels:
        e_row, r_row = [], []
        for b in labels:
            rep = frontier_check(a, b, samples=3, seed=9)
            e_row.append(rep.expected)
            r_row.append(rep.reachable)
            if not rep.matches:
                mismatches.append({"source": a.per_block, "target": b.per_block})
        expected.append(e_row)
        reachable.append(r_row)
    assert table == {
        "alg": list(sizes),
        "labels": [list(l.per_block) for l in labels],
        "expected": expected,
        "reachable": reachable,
        "equal": not mismatches,
        "mismatches": mismatches,
    }


@pytest.mark.parametrize("seed", (0, 20201104))
def test_approach_stack_rows_match_approach_state(seed):
    cases = 0
    for sizes in DEFAULT_FRONTIER_ALGEBRAS:
        alg = AlgebraDescriptor(sizes)
        # every label's sources and approximants from one draw of each row,
        # to the longest prefix any label reads; each approach_state draws
        # exactly its own
        labels = enumerate_labels(alg)
        for a, (points, base) in zip(labels, _frontier_sources(labels, 3, seed)):
            ys = [sample_algebra(alg, seed, ranks=a.per_block, index=s) for s in range(3)]
            for b in labels:
                if not frontier_leq(a, b):
                    continue
                xs = _approach_stack(points, base, b, FRONTIER_DELTA).hs
                for s, y in enumerate(ys):
                    x = approach_state(y, b, FRONTIER_DELTA, seed, s)
                    assert np.array_equal(xs[s], x.matrix)
                    cases += 1
    assert cases == 291


def test_frontier_sources_are_the_sample_algebra_draws(monkeypatch):
    def draws(i):
        return np.array([sample_algebra(i.alg, 4, ranks=i.per_block, index=s).matrix
                         for s in range(15)])

    labels = [StratumLabel(AlgebraDescriptor(sizes), ranks)
              for sizes, ranks in (((1, 2), (1, 1)), ((3,), (2,)), ((2, 2), (0, 2)))]
    for i in labels:
        assert np.array_equal(next(_frontier_sources([i], 15, 4))[0].hs, draws(i))
    # a point whose ranks the per-row decision leaves undecided is redrawn
    # alone, from attempt 1, and is still the sample_algebra draw
    i = labels[0]

    def attempt(s, k):
        """The record of point s's validated draw number k."""
        return _validated_stack(sampler._draws(i.alg, i.per_block, 4, [(4, s, k)]), i.alg, 1e-9)

    # the decision sees the per-block spectra: point 5's attempt 0 is the
    # row whose spectra are those of that draw
    decide, undecided = sampler._stack_decision, attempt(5, 0).spectra

    def undecided_at_5(spectra, tol):
        ranks, gray = decide(spectra, tol)
        rows = np.all([(w == v).all(axis=1) for w, v in zip(spectra, undecided)], axis=0)
        gray[rows, 0, 0] = tol
        return ranks, gray

    monkeypatch.setattr(sampler, "_stack_decision", undecided_at_5)
    want = draws(i)
    assert np.array_equal(want[5], attempt(5, 1).hs[0])
    assert np.array_equal(next(_frontier_sources([i], 15, 4))[0].hs, want)


def test_frontier_sources_resample_only_the_rows_that_miss(monkeypatch):
    # in one stack, point 3's attempt 0 has an eigenvalue in the gray zone
    # and point 7's is off rank: every attempt-0 stream is read once, attempt
    # 1 only for those two points, and each point is sample_algebra's
    i = StratumLabel(AlgebraDescriptor((1, 2)), (1, 1))
    gray = np.diag([0.5, 5e-9, 0.5 - 5e-9]).astype(complex)
    with pytest.raises(AmbiguousRank):
        classify(validate_density(gray, i.alg))
    # point s's attempt-0 draw, by its bits, and what replaces it
    swap = {sampler._draws(i.alg, i.per_block, 4, [(4, s, 0)])[0].tobytes(): m
            for s, m in ((3, gray), (7, maximally_mixed(i.alg).matrix))}
    real_rows, real_validated, reads = sampler._uniform_rows, sampler._validated_stack, []

    def recorded(seed, paths, length):
        reads.extend(tuple(p) for p in paths.tolist() if p[0] == 4)
        return real_rows(seed, paths, length)

    def missing_at_3_and_7(ms, alg, tol, *args):
        # attempt 0 of points 3 and 7, whichever route drew it
        ms = np.array([swap.get(m.tobytes(), m) for m in ms])
        return real_validated(ms, alg, tol, *args)

    monkeypatch.setattr(sampler, "_uniform_rows", recorded)
    monkeypatch.setattr(sampler, "_validated_stack", missing_at_3_and_7)
    hs = next(_frontier_sources([i], 15, 4))[0].hs
    assert sorted(reads) == sorted([(4, s, 0) for s in range(15)] + [(4, 3, 1), (4, 7, 1)])
    want = [sample_algebra(i.alg, 4, ranks=i.per_block, index=s).matrix for s in range(15)]
    assert np.array_equal(hs, want)


@pytest.mark.parametrize("sizes, ranks", (((3,), (2,)), ((4,), (4,)), ((1, 2), (1, 1))))
def test_frontier_source_spectra_are_block_eigvalsh(monkeypatch, sizes, ranks):
    # the sources carry their rank decisions' per-block spectra (for one
    # block validation's eigvalsh), resampled rows included: the bits
    # block_eigvalsh gives the assembled stack
    i = StratumLabel(AlgebraDescriptor(sizes), ranks)
    decide, calls, eigvalsh, rows = sampler._stack_decision, [], np.linalg.eigvalsh, Counter()

    def rows_2_and_5_miss_once(spectra, tol):
        ranks, gray = decide(spectra, tol)
        if not calls:
            gray[[2, 5], 0, 0] = tol
        calls.append(len(spectra[0]))
        return ranks, gray

    def counted(a, *args, **kwargs):
        rows[a.shape[-1]] += len(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(sampler, "_stack_decision", rows_2_and_5_miss_once)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    points, _ = next(_frontier_sources([i], 15, 4))
    spectra = points.spectra
    assert calls == [15, 2]
    # each of the 15 + 2 drawn matrices is decomposed once by validation
    # and, for a direct sum, each of its blocks once by its rank decision
    # (a 1 x 1 block's eigenvalue is read off its diagonal, by no solver)
    drawn = [i.alg.dim] + ([nb for nb in sizes if nb > 1] if len(sizes) > 1 else [])
    assert rows == Counter(drawn * 17)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    want = linalg.block_eigvalsh(points.hs, i.alg.block_sizes)
    assert len(spectra) == len(want)
    assert all(np.array_equal(w, v) for w, v in zip(spectra, want))


@pytest.mark.parametrize("sizes, ranks", (((3,), (2,)), ((1, 2), (1, 1)), ((2, 2), (1, 2))))
def test_state_stack_record_invariants(monkeypatch, sizes, ranks):
    # records from one validation, from a resample loop whose rows 2 and 5
    # are redrawn (gathered from two attempts), and from a convex split
    # (one tolerance per row)
    alg = AlgebraDescriptor(sizes)
    decide, calls = sampler._stack_decision, []

    def rows_2_and_5_miss_once(spectra, tol):
        got, gray = decide(spectra, tol)
        if not calls:
            gray[[2, 5], 0, 0] = tol
        calls.append(len(spectra[0]))
        return got, gray

    monkeypatch.setattr(sampler, "_stack_decision", rows_2_and_5_miss_once)
    drawn = sampler._draws(alg, ranks, 4, [(4, s, 0) for s in range(15)])
    resampled = _resampled_stack(alg, 4, ranks, (4,), range(15))
    assert calls == [15, 2]
    records = [_validated_stack(drawn, alg, 1e-9), resampled, resampled[[6, 2, 5]]]
    if len(sizes) > 1:
        records += _split_stack(records[0].hs, alg, (1, 1))[1]
    eigvalsh = np.linalg.eigvalsh
    # the resample loop's rank decisions leave the per-block spectra: reading
    # them (or a selection of rows) decomposes nothing
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    for stack in records[1:3]:
        assert len(stack.spectra) == len(sizes)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for stack in records:
        blocks = stack.alg.block_sizes
        assert np.array_equal(stack.w, eigvalsh(stack.hs))
        assert np.array_equal(validate_stack(stack.hs, stack.alg, stack.tol), stack.hs)
        if len(blocks) == 1:
            assert len(stack.spectra) == 1 and stack.spectra[0] is stack.w
        else:
            want = linalg.block_eigvalsh(stack.hs, blocks)
            first = stack.spectra
            # computed once: a second read decomposes nothing
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            assert stack.spectra is first and all(a is b for a, b in zip(stack.spectra, first))
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert len(first) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(first, want))
        for a in (stack.hs, stack.w, *stack.spectra):
            assert not a.flags.writeable
        tols = np.broadcast_to(stack.tol, len(stack.hs))
        for b, rho in enumerate(stack.states()):
            # each row a state view carrying its tol and validation's spectrum row
            assert rho.alg == stack.alg and rho.tol == tols[b]
            assert np.shares_memory(rho.matrix, stack.hs)
            assert np.shares_memory(rho.eigenvalues(), stack.w)
            assert np.array_equal(rho.matrix, stack.hs[b])
            assert np.array_equal(rho.eigenvalues(), stack.w[b])
            again = validate_density(rho.matrix, rho.alg, rho.tol)
            assert np.array_equal(rho.eigenvalues(), again.eigenvalues())
    # the resampled rows are the second attempt's, the others the first's
    assert not np.array_equal(resampled.hs[[2, 5]], records[0].hs[[2, 5]])
    first = np.delete(records[0].hs, [2, 5], axis=0)
    assert np.array_equal(np.delete(resampled.hs, [2, 5], axis=0), first)


def _reference_frontier_witnesses(i, j, samples, seed):
    """Per point: the distance of approach_state from it, or the
    Eckart-Young floor from its blocks' own eigvalsh."""
    distances, floors = [], []
    for s in range(samples):
        y = sample_algebra(i.alg, seed, ranks=i.per_block, index=s)
        if frontier_leq(i, j):
            x = approach_state(y, j, FRONTIER_DELTA, seed, s)
            distances.append(linalg.hs_norm(x.matrix - y.matrix))
            continue
        floor_sq = 0.0
        for block, ib, jb in zip(y.blocks(), i.per_block, j.per_block):
            if jb < ib:
                w = np.linalg.eigvalsh(block)
                floor_sq += float(np.sum(np.sort(w[w > 10.0 * y.tol])[: ib - jb] ** 2))
        floors.append(float(np.sqrt(floor_sq)))
    return max(distances, default=0.0), min(floors, default=0.0)


@pytest.mark.parametrize("sizes", ((3,), (4,), (1, 2), (2, 2)))
def test_frontier_check_witnesses_match_per_state_derivation(sizes):
    alg = AlgebraDescriptor(sizes)
    for a in enumerate_labels(alg):
        for b in enumerate_labels(alg):
            rep = frontier_check(a, b, samples=3, seed=41)
            want = _reference_frontier_witnesses(a, b, 3, 41)
            assert (rep.max_distance, rep.min_floor) == want
            assert (rep.max_distance > 0.0) == (frontier_leq(a, b) and a != b)
            assert (rep.min_floor > 0.0) == (not frontier_leq(a, b))


def _first_row_error(points, label, target):
    """The error a row-by-row construction meets first, as (type, message)."""
    for k in range(len(points.hs)):
        rows = sampler._stream_rows([_approach_reads(label, target)], 5, [k])
        base = _approach_base(points.hs[k : k + 1], label, 1e-9, rows)
        try:
            _approach_stack(points[k : k + 1], base, target, FRONTIER_DELTA)
        except Exception as exc:
            return type(exc), str(exc)
    return None


def test_approach_stack_raises_the_loops_first_error():
    alg = AlgebraDescriptor((3,))
    label, target = StratumLabel(alg, (1,)), StratumLabel(alg, (2,))
    good = sample_algebra(alg, 5, ranks=(1,)).matrix
    # labelled rank 1 but of rank 2: raising its "kernel" gives rank 3
    wrong_rank = sample_algebra(alg, 5, ranks=(2,)).matrix
    # an eigenvalue of 3e-9 stays in the gray zone of the approximant
    gray = np.diag([0.0, 3e-9, 1.0 - 3e-9]).astype(complex)
    for rows, kind in (
        ((good, wrong_rank, gray), RuntimeError),
        ((good, gray, wrong_rank), AmbiguousRank),
    ):
        points = _validated_stack(np.array(rows), alg, 1e-9)
        want = _first_row_error(points, label, target)
        assert want is not None and want[0] is kind
        drawn = sampler._stream_rows([_approach_reads(label, target)], 5, range(len(rows)))
        base = _approach_base(points.hs, label, 1e-9, drawn)
        with pytest.raises(kind) as exc:
            _approach_stack(points, base, target, FRONTIER_DELTA)
        assert str(exc.value) == want[1]


@pytest.mark.parametrize("sizes", ALGEBRAS)
def test_eigh_fixed_stack_matches_per_matrix(sizes):
    ms = _matrices(AlgebraDescriptor(sizes))  # clustered spectra included
    w, v = linalg.eigh_fixed(ms)
    assert w.shape == ms.shape[:2] and v.shape == ms.shape
    for b, m in enumerate(ms):
        wb, vb = linalg.eigh_fixed(m)
        assert np.array_equal(w[b], wb)
        assert np.array_equal(v[b], vb)
    # a (2, B/2, n, n) stack is the same matrices again
    half = len(ms) // 2
    w4, v4 = linalg.eigh_fixed(ms[: 2 * half].reshape((2, half) + ms.shape[1:]))
    assert np.array_equal(w4.reshape(w[: 2 * half].shape), w[: 2 * half])
    assert np.array_equal(v4.reshape(v[: 2 * half].shape), v[: 2 * half])


def test_hs_norm_stack_matches_per_matrix():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        a = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        norms = linalg.hs_norm(a)
        assert norms.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert norms[idx] == linalg.hs_norm(a[idx]) == np.linalg.norm(a[idx])
        real = np.ascontiguousarray(a.real)
        real_norms = linalg.hs_norm(real)
        for idx in np.ndindex(3, 4):
            assert real_norms[idx] == linalg.hs_norm(real[idx]) == np.linalg.norm(real[idx])
        # a transposed view is normed in memory order, as np.linalg.norm does
        assert linalg.hs_norm(a[0, 0].T) == np.linalg.norm(a[0, 0].T)
    assert linalg.hs_norm(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


def _reference_tangent_basis(rho, label):
    """The per-state frame tangent_basis used to build: the identity with
    each occupied block's eigenframe in place."""
    frame = np.eye(rho.dim, dtype=complex)
    for sl, ib in zip(rho.alg.block_slices(), label.per_block):
        if ib >= 1:
            frame[sl, sl] = linalg.eigh_fixed(rho.matrix[sl, sl])[1]
    template = _tangent_template(rho.alg.block_sizes, label.per_block)
    return frame @ template @ frame.conj().T


STRATA = (
    ((1, 2), (1, 1)),
    ((1, 2), (0, 2)),
    ((1, 2), (1, 2)),
    ((2, 2), (1, 2)),
    ((2, 2), (2, 1)),
    ((2, 2), (1, 0)),
)


@pytest.mark.parametrize("sizes,ranks", STRATA)
def test_tangent_basis_stack_matches_per_state(sizes, ranks):
    alg = AlgebraDescriptor(sizes)
    label = StratumLabel(alg, ranks)
    states = [sample_algebra(alg, 23, ranks=ranks, index=s) for s in range(6)]
    bases = tangent_basis_stack(np.array([rho.matrix for rho in states]), label)
    assert bases.shape == (6, stratum_dim_label(label), alg.dim, alg.dim)
    for b, rho in enumerate(states):
        assert np.array_equal(bases[b], tangent_basis(rho, label=label))
        assert np.array_equal(bases[b], _reference_tangent_basis(rho, label))


@pytest.mark.parametrize(
    "sizes", [(n,) for n in range(1, 7)] + [(1, 2), (2, 2), (1, 1, 2), (2, 3), (1, 1, 1, 1)]
)
def test_tangent_basis_stack_is_the_template_product(sizes):
    # every label, on stacks of 0, 1 and 88 points, against W T W^dagger
    # formed per point and per template matrix; (1) and single occupied
    # blocks of (1, 1, 1, 1) have d = 0. The two ways of grouping the
    # products may round differently under another BLAS kernel, so they
    # are held within 1e-15 here and bit for bit by the goldens
    alg = AlgebraDescriptor(sizes)
    for ranks in itertools.product(*(range(nb + 1) for nb in sizes)):
        if not any(ranks):
            continue
        label = StratumLabel(alg, ranks)
        hs = sampler._resampled_stack(alg, 47, ranks, (4,), range(88)).hs
        frame = np.zeros_like(hs)
        for sl, nb, ib in zip(alg.block_slices(), sizes, ranks):
            frame[:, sl, sl] = linalg.eigh_fixed(hs[:, sl, sl])[1] if ib else np.eye(nb)
        template = _tangent_template(sizes, ranks)
        want = frame[:, None] @ template @ frame.conj().swapaxes(1, 2)[:, None]
        for b in (0, 1, 88):
            got = tangent_basis_stack(hs[:b], label)
            assert got.shape == (b, stratum_dim_label(label), alg.dim, alg.dim)
            assert np.abs(got - want[:b]).max(initial=0.0) <= 1e-15


def _reference_retract(h, label, tol=1e-9):
    """The per-block loop retract_to_stratum used to run."""
    blocks = linalg.block_extract(np.asarray(h, dtype=complex), label.alg.block_sizes)
    rebuilt = []
    for block, ib in zip(blocks, label.per_block):
        if ib == 0:
            rebuilt.append(np.zeros_like(block))
            continue
        w, v = linalg.eigh_fixed(block)
        top_w = w[block.shape[0] - ib :]
        top_v = v[:, block.shape[0] - ib :]
        if top_w[0] <= 0:
            raise ValueError(
                f"cannot retract: leading block eigenvalue {top_w[0]:.3e} is not positive"
            )
        rebuilt.append((top_v * top_w) @ top_v.conj().T)
    m = linalg.block_embed(rebuilt)
    m = m / float(np.trace(m).real)
    return validate_density(linalg.hermitian_part(m), label.alg, tol)


@pytest.mark.parametrize(
    "sizes,ranks", (((3,), (1,)), ((3,), (2,)), ((4,), (2,))) + STRATA
)
def test_retract_stack_matches_per_matrix(sizes, ranks):
    # steps from y along random Hermitian directions, from 1/64 up to 2:
    # the long ones drive kept eigenvalues negative, the items a sequence
    # would retry at half the step
    alg = AlgebraDescriptor(sizes)
    label = StratumLabel(alg, ranks)
    y = sample_algebra(alg, 21, ranks=ranks)
    rng = np.random.default_rng(21)
    hs = []
    for s in range(32):
        g = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
        h = linalg.hermitian_part(g)
        hs.append(y.matrix + 2.0 ** (s % 8 - 6) * h / np.linalg.norm(h))
    hs.append(-y.matrix - 0.1 * np.eye(alg.dim))  # every block negative definite
    ms, lead = retract_stack(np.array(hs), label)
    assert not ms.flags.writeable
    assert lead.shape == (len(hs),)
    kept = 0
    for b, h in enumerate(hs):
        if lead[b] > 0:
            assert np.array_equal(ms[kept], retract_to_stratum(h, label).matrix)
            assert np.array_equal(ms[kept], _reference_retract(h, label).matrix)
            kept += 1
        else:
            with pytest.raises(ValueError) as got:
                retract_to_stratum(h, label)
            with pytest.raises(ValueError) as want:
                _reference_retract(h, label)
            assert str(got.value) == str(want.value)
            assert f"{lead[b]:.3e}" in str(got.value)
    assert kept == len(ms)
    assert 0 < kept < len(hs)


def _reference_gap(v, basis):
    """The one-item projection gap_line_space used to compute."""
    flat = np.asarray(v, dtype=complex).ravel()
    stacked = np.asarray(basis, dtype=complex).reshape(-1, flat.size)
    coeffs = (stacked.conj() @ flat).real
    return float(np.linalg.norm(flat - coeffs @ stacked))


@pytest.mark.parametrize("sizes,ranks", (((3,), (2,)), ((4,), (3,))) + STRATA)
def test_secant_and_gap_stacks_match_per_item(sizes, ranks):
    alg = AlgebraDescriptor(sizes)
    label = StratumLabel(alg, ranks)
    xs = np.array([sample_algebra(alg, 25, ranks=ranks, index=s).matrix for s in range(5)])
    ys = np.array([sample_algebra(alg, 26, index=s).matrix for s in range(5)])
    y = ys[0]
    # per item, the moving base then the fixed base, as the Whitney estimate
    # pairs them
    bases = np.stack([ys, np.broadcast_to(y, ys.shape)], axis=1)
    secants = secant_direction_stack(xs[:, None], bases)
    tangent = tangent_basis_stack(xs, label)
    gaps = gap_line_space_stack(secants, tangent[:, None])
    assert gaps.shape == (5, 2)
    for b in range(5):
        for c, base in enumerate((ys[b], y)):
            secant = secant_direction(xs[b], base)
            assert np.array_equal(secants[b, c], secant)
            gap = gap_line_space(secant, tangent[b])
            assert gaps[b, c] == gap == _reference_gap(secant, tangent[b])
            assert gap_line_space(secant, list(tangent[b])) == gap
    # the empty basis leaves the whole secant
    assert gap_line_space(secants[0, 0], []) == linalg.hs_norm(secants[0, 0])


def test_secant_stack_names_the_first_coincident_pair():
    xs = np.array([np.diag([0.5, 0.5]), np.diag([0.6, 0.4]), np.diag([0.7, 0.3])]).astype(complex)
    ys = xs.copy()
    ys[0] = np.diag([0.4, 0.6])
    ys[1] += 2e-15  # coincides within the default 1e-14
    with pytest.raises(CoincidentPoints) as exc:
        secant_direction_stack(xs, ys)
    with pytest.raises(CoincidentPoints) as first:
        secant_direction(xs[1], ys[1])
    assert str(exc.value) == str(first.value)
    assert str(exc.value) != "points coincide within 0.000e+00"


def _reference_convex_split(rho, split):
    """The per-summand loop convex_split used to run: weights, components
    (None when dropped) and the tolerances they were validated with."""
    weights, components, tols = [], [], []
    blocks = rho.blocks()
    at = 0
    for sub in summand_algebras(rho.alg, split):
        sub_blocks = blocks[at : at + sub.num_blocks]
        at += sub.num_blocks
        w = sum(max(float(np.trace(b).real), 0.0) for b in sub_blocks)
        if w <= WEIGHT_DROP_TOL:
            weights.append(0.0)
            components.append(None)
            tols.append(None)
            continue
        comp_tol = max(rho.tol, 2.0 * rho.tol / w)
        components.append(validate_density(linalg.block_embed(sub_blocks) / w, sub, comp_tol))
        weights.append(w)
        tols.append(comp_tol)
    return weights, components, tols


def _reference_join_state(alg, split, weights, components, tol=1e-9):
    """The per-block assembly join_state used to run."""
    blocks = []
    for w, comp, sub in zip(weights, components, summand_algebras(alg, split)):
        if comp is None:
            blocks.extend(np.zeros((n, n), dtype=complex) for n in sub.block_sizes)
        else:
            blocks.extend(w * b for b in comp.blocks())
    return validate_density(linalg.block_embed(blocks), alg, tol)


@pytest.mark.parametrize(
    "sizes, split, rank_draws",
    (
        ((1, 2), (1, 1), (None, (0, 2), (1, 0))),
        ((1, 1, 1, 1), (2, 2), (None, (1, 1, 0, 0), (0, 0, 1, 0))),
        ((1, 1, 1, 1), (1, 2, 1), (None, (0, 1, 0, 1))),
        ((2, 3), (1, 1), (None, (1, 2), (0, 3))),
        ((1, 1, 2), (2, 1), (None, (1, 0, 0))),
    ),
)
def test_split_and_join_stacks_match_per_state(sizes, split, rank_draws):
    alg = AlgebraDescriptor(sizes)
    ms = [sampler._draws(alg, ranks, 21, [(4, s, 0) for s in range(12)]) for ranks in rank_draws]
    # a weight under the drop tolerance, and one just above it whose
    # component tolerance 2 tol / w is far looser than tol
    for weight in (1e-13, 1e-6):
        d = np.full(alg.dim, weight / (alg.dim - alg.block_sizes[0]))
        d[: alg.block_sizes[0]] = (1.0 - weight) / alg.block_sizes[0]
        ms.append(np.diag(d).astype(complex)[None])
    hs = validate_stack(np.concatenate(ms), alg)
    weights, comps = _split_stack(hs, alg, split, 1e-9)
    back = _join_stack(weights, [c.hs for c in comps], alg, 1e-9).hs
    assert not back.flags.writeable
    # summand j's stack holds the components of the rows of positive weight
    assert [len(c.hs) for c in comps] == np.count_nonzero(weights, axis=0).tolist()
    dropped = 0
    for b, h in enumerate(hs):
        rho = validate_density(h, alg)
        p = convex_split(rho, split=split)
        ref_weights, ref_comps, ref_tols = _reference_convex_split(rho, split)
        assert weights[b].tolist() == list(p.weights) == ref_weights
        for j, (comp, ref) in enumerate(zip(p.components, ref_comps)):
            if ref is None:
                assert comp is None and weights[b, j] == 0.0
                dropped += 1
                continue
            k = np.count_nonzero(weights[:b, j])
            assert np.array_equal(comps[j].hs[k], comp.matrix)
            assert np.array_equal(comps[j].hs[k], ref.matrix)
            assert comps[j].tol[k] == comp.tol == ref_tols[j]
        assert np.array_equal(back[b], join_state(p).matrix)
        ref_back = _reference_join_state(alg, split, ref_weights, ref_comps)
        assert np.array_equal(back[b], ref_back.matrix)
    assert dropped >= 13  # every zero-rank draw and the sub-WEIGHT_DROP_TOL weight


def _reference_tetrahedron_loop(hs):
    """The per-state loop the tetrahedron piece census ran on its samples."""
    for rho in _validated_stack(hs, TETRAHEDRON, DEFAULT_TOL).states():
        lab = join_piece_label(convex_split(rho, split=TETRAHEDRON_SPLIT))
        if lab.piece_name not in verify.EXPECTED_TETRAHEDRON_PIECES:
            raise AssertionError(f"sample landed in unknown piece {lab.piece_name}")


# diagonals of tetrahedron states: a component whose second entry is in the
# gray zone of its tolerance max(tol, 2 tol / w), in the first summand, in
# both (where the first summand's value must be named), and in neither
GRAY_FIRST = (0.5 - 5e-9, 5e-9, 0.25, 0.25)
GRAY_BOTH = (0.5 - 5e-9, 5e-9, 0.5 - 1e-8, 1e-8)
R1_S2 = (1 / 3, 0.0, 1 / 3, 1 / 3)
R2_S1 = (0.25, 0.25, 0.5, 0.0)
# at weight 1e-3 the second entry is 5e-9 of the component: clear of the
# component's gray zone, though inside the gray zone of tol itself
LOOSE = (1e-3 - 5e-12, 5e-12, 0.5, 0.5 - 1e-3)


@pytest.mark.parametrize("seed", (0, 20201104))
def test_tetrahedron_pieces_are_the_per_state_labels(seed):
    drawn = sampler._resampled_stack(TETRAHEDRON, seed, None, (4,), range(5000, 5200)).hs
    edges = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.7, 0.3), (0.3, 0.0, 0.7, 0.0), R1_S2, R2_S1]
    edges += [LOOSE, (1.0 - 1e-13, 0.0, 1e-13, 0.0), (0.5, 0.5 - 1e-6, 1e-6, 0.0)]
    hs = validate_stack(np.concatenate([drawn, [np.diag(d) for d in edges]]), TETRAHEDRON)
    names, ranks = verify._tetrahedron_pieces(hs)
    assert len(names) == len(hs) and ranks.shape == (len(hs), 2)
    rhos = _validated_stack(hs, TETRAHEDRON, DEFAULT_TOL).states()
    for b, rho in enumerate(rhos):
        lab = join_piece_label(convex_split(rho, split=TETRAHEDRON_SPLIT))
        assert names[b] == lab.piece_name
        assert ranks[b][list(lab.support)].tolist() == list(lab.factor_ranks)
        assert not ranks[b][[not on for on in lab.support]].any()
    assert set(names[len(drawn) :]) == {"R1", "S2", "R1xS1xI", "R1xS2xI", "R2xS1xI"}
    # LOOSE: rank 1 at its component's tolerance, a refusal at tol itself
    assert ranks[len(drawn) + 5].tolist() == [1, 2]
    with pytest.raises(AmbiguousRank):
        classify(validate_density(np.diag([1.0 - 5e-9, 5e-9]), AlgebraDescriptor((1, 1))))


@pytest.mark.parametrize(
    "rows, error",
    (
        ([R1_S2, GRAY_FIRST], AssertionError),
        ([GRAY_FIRST, R1_S2], AmbiguousRank),
        ([R2_S1, R1_S2], AssertionError),
        ([R1_S2, R2_S1], AssertionError),
        ([GRAY_BOTH, GRAY_FIRST], AmbiguousRank),
        ([LOOSE, R2_S1, GRAY_BOTH], AssertionError),
        (["drawn"], AssertionError),
    ),
)
def test_tetrahedron_piece_census_raises_the_loops_first_error(monkeypatch, rows, error):
    # R1xS2xI and R2xS1xI taken out of the table; the drawn samples land in
    # R2xS2xI, which the last case takes out instead
    drawn = sampler._resampled_stack(TETRAHEDRON, 0, None, (4,), range(5000, 5200)).hs
    pieces = dict(verify.EXPECTED_TETRAHEDRON_PIECES)
    for name in ("R2xS2xI",) if rows == ["drawn"] else ("R1xS2xI", "R2xS1xI"):
        del pieces[name]
    monkeypatch.setattr(verify, "EXPECTED_TETRAHEDRON_PIECES", pieces)
    made = [np.diag(d) for d in rows if d != "drawn"]
    hs = validate_stack(np.concatenate([drawn[:3], made]), TETRAHEDRON) if made else drawn
    with pytest.raises(error) as loop_error:
        _reference_tetrahedron_loop(hs)
    stack = _validated_stack(hs, TETRAHEDRON, DEFAULT_TOL)
    monkeypatch.setattr(verify, "_resampled_stack", lambda *args: stack)
    with pytest.raises(error) as stack_error:
        verify._tetrahedron_piece_census(0, len(hs))
    assert str(stack_error.value) == str(loop_error.value)


@pytest.mark.parametrize(
    "suite, kwargs, seed, digest",
    (
        (suite_orbit_census, {"draws": 2000}, 0,
         "b30458d4d71223bcc7be3db85cb7def94297d0d7f2700586aba669d0a417e758"),
        (suite_orbit_census, {"draws": 2000}, 20201104,
         "f761940120c53ae23383a29a851ce900da4b85d8621b8dadc25f0eed8daaa6f6"),
        (suite_join, {"samples": 200}, 0,
         "86bd0d6454bb787da41a036fd4c366ba1c571bcd52c37d22ab7c3f0037f52b72"),
        (suite_join, {"samples": 200}, 20201104,
         "16d3d015bde476685efb5697ec61ef2017ce5b3f0560f5d04470a2389cf6582b"),
        (suite_frontier, {"samples": 15}, 0,
         "bb0c12038ba064f1987e2998d865a81cbe81d71a5fd0ed0aa96974d2ba02ef19"),
        (suite_frontier, {"samples": 15}, 20201104,
         "21f7676c1cff336e5058ed0b38e048eea71b4fd450886cebf1ad388bc882e90c"),
        (suite_projector_equiv, {"samples": 500, "nodes": 64}, 0,
         "d10c2afc8697aa217b92c81c192fdc08d38f5119fc729006044a27517f9ce933"),
        (suite_projector_equiv, {"samples": 500, "nodes": 64}, 20201104,
         "d16af3bcd8fe6753ddd041ac57f085e95f3239c86cd634175e27036ecc6664b8"),
        # an odd node count: the halved rule is not a slice of the full one
        (suite_projector_equiv, {"samples": 60, "nodes": 17}, 5,
         "2d9be4bee2d441cce4fd975728403ec80017839584101622f9acd7f5da85b08a"),
        # 50 trials: the sequence draws go through the stream port
        (suite_whitney, {"max_dim": 4, "trials": 50}, 0,
         "ba98a0bd5287842d4bdf789914f32f565f05add5089f3bce9e1c005556099419"),
        (suite_whitney, {"max_dim": 4, "trials": 50}, 20201104,
         "f5929e801c40d9fe06698c61d7375044965210ee585c90dcc395ca19ab5bb72c"),
    ),
)
def test_stacked_suites_golden(suite, kwargs, seed, digest):
    # computed from the per-draw census, the per-state join round trips, the
    # per-state frontier approximants, the per-sample projector routes and
    # the per-trial approach sequences
    report = suite(seed=seed, **kwargs)
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest


def _reference_projector_equiv(samples, seed, nodes):
    # the sample-by-sample loop the stacked suite replaced: one draw, one
    # eigen route and two quadratures per sample, each a B = 1 call
    radius, (low, high) = verify.CONTOUR_RADIUS, verify.LARGE_BAND
    err_proj = np.zeros((samples, 2))
    err_part = np.zeros((samples, 2))
    halved = nodes // 2
    for s in range(samples):
        n = 2 + s % 5
        n_small = 1 + s % (n - 1)
        u = _uniform_rows(seed, [(8, s)], n)[0]
        w = np.concatenate([u[:n_small] * verify.SMALL_BAND, low + u[n_small:] * (high - low)])
        v = sample_unitary(n, seed, 3000 + s)
        g = v @ np.diag(w) @ v.conj().T
        p_eig, part_eig = small_spectral_projector(g, radius)
        for c, node_count in enumerate((halved, nodes)):
            p_c, s_c = contour_quadrature(g, radius, node_count)
            err_proj[s, c] = linalg.hs_norm(p_c - p_eig)
            err_part[s, c] = linalg.hs_norm(s_c - part_eig)
    ratio_proj = float(np.median(err_proj[:, 0]) / max(np.median(err_proj[:, 1]), 1e-16))
    ratio_part = float(np.median(err_part[:, 0]) / max(np.median(err_part[:, 1]), 1e-16))
    max_err = float(max(err_proj[:, 1].max(), err_part[:, 1].max()))
    return {
        "suite": "projector-equiv",
        "samples": samples,
        "seed": seed,
        "nodes": nodes,
        "halved_nodes": halved,
        "contour_radius": radius,
        "max_error_full_nodes": max_err,
        "median_error_halved_projector": float(np.median(err_proj[:, 0])),
        "median_error_full_projector": float(np.median(err_proj[:, 1])),
        "error_ratio_projector": ratio_proj,
        "error_ratio_small_part": ratio_part,
        "passed": bool(max_err <= 1e-8 and ratio_proj >= 10.0 and ratio_part >= 10.0),
    }


def test_projector_equiv_median_is_numpys():
    # the suite's medians, bit for bit, NaN included, of odd and even counts
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5, 60, 61, 300):
        x = rng.random(n) * 10.0 ** rng.integers(-18, 3, n)
        assert np.float64(verify._median(x)).tobytes() == np.median(x).tobytes()
        x[n // 2] = np.nan
        assert np.isnan(verify._median(x))


@pytest.mark.parametrize("seed", (0, 20201104))
@pytest.mark.parametrize("samples, nodes", ((200, 16), (200, 17), (200, 64), (3, 17)))
def test_projector_equiv_is_the_per_sample_loop(samples, nodes, seed):
    # the host-independent twin of the projector-equiv goldens
    report = suite_projector_equiv(samples, seed, nodes)
    assert canonical_json(report) == canonical_json(_reference_projector_equiv(samples, seed, nodes))


@pytest.mark.parametrize(
    "guard, small_band, large_band, route",
    (
        # both guards refuse the same samples: the eigen route's error first
        (0.5, 0.15, (0.4, 1.0), "split threshold"),
        # only the contour guard sees small eigenvalues near -0.25
        (0.2, -0.5, (0.4, 1.0), "contour radius"),
        # each guard refuses samples the other passes
        (0.2, -0.5, (0.28, 1.0), None),
    ),
)
def test_projector_equiv_raises_the_loops_first_refusal(
    monkeypatch, guard, small_band, large_band, route
):
    monkeypatch.setattr(charts, "CONTOUR_GUARD", guard)
    monkeypatch.setattr(verify, "SMALL_BAND", small_band)
    monkeypatch.setattr(verify, "LARGE_BAND", large_band)
    with pytest.raises(EigenvalueOnContour) as loop_error:
        _reference_projector_equiv(60, 0, 16)
    with pytest.raises(EigenvalueOnContour) as stack_error:
        suite_projector_equiv(60, 0, 16)
    assert str(stack_error.value) == str(loop_error.value)
    assert route is None or route in str(loop_error.value)


def _reference_orbit_census(draws, seed):
    # the whole-stack census the chunked suite replaced: all draws of an
    # algebra and its constructed states drawn, validated, given signatures
    # and orbit dimensions at once
    m2, cm2 = full_algebra(2), AlgebraDescriptor((1, 2))
    table = (
        (m2, validate_stack(_hs_stack(2, seed, range(draws)), m2), [maximally_mixed(m2)],
         ((1, 1),), ((2,),), 2),
        (cm2, _resampled_stack(cm2, seed, None, (4,), range(draws)).hs,
         [maximally_mixed(cm2), cone_state(0.5, (0.0, 0.0, 0.0))], ((1,), (1, 1)), ((1,), (2,)),
         None),
    )
    reports = []
    for alg, drawn, constructed, generic, other, generic_dim in table:
        hs = np.concatenate([drawn, [c.matrix for c in constructed]])
        sigs = orbit_signature_stack(hs, alg)
        dims = orbit_dim_stack(hs, alg).tolist()
        counts = {}
        for sig in sigs:
            counts[sig.per_block] = counts.get(sig.per_block, 0) + 1
        consistent = all(
            d + isotropy_dim(s) == alg.unitary_group_dim for s, d in zip(sigs, dims)
        )
        generic_fraction = counts.get(generic, 0) / draws
        report = {
            "alg": list(alg.block_sizes),
            "signatures": {str(list(map(list, k))): v for k, v in sorted(counts.items())},
            "distinct": len(counts),
            "dimension_identity_holds": consistent,
            "generic_fraction": generic_fraction,
        }
        ok = set(counts) == {generic, other} and consistent and generic_fraction >= 0.999
        if generic_dim is not None:
            report["generic_orbit_dim"] = sorted(set(dims[: min(draws, 50)]))
            ok = ok and report["generic_orbit_dim"] == [generic_dim]
        report["passed"] = bool(ok)
        reports.append(report)
    return {
        "suite": "orbit-census",
        "draws": draws,
        "seed": seed,
        "cluster_tol": DEFAULT_CLUSTER_TOL,
        "censuses": reports,
        "passed": all(r["passed"] for r in reports),
    }


# one chunk exactly, the constructed states alone past it, and two chunks
# plus one draw
@pytest.mark.parametrize(
    "draws", (STREAM_CHUNK_ROWS, STREAM_CHUNK_ROWS + 1, 2 * STREAM_CHUNK_ROWS + 1)
)
def test_orbit_census_chunks_are_the_whole_stack(draws):
    report = suite_orbit_census(draws=draws, seed=0)
    assert canonical_json(report) == canonical_json(_reference_orbit_census(draws, 0))


def test_orbit_census_decomposes_each_m2_draw_once(monkeypatch):
    # validation's spectra give the M_2 draws their signatures; the 2 x 2
    # decompositions left are those validations (draws + the constructed
    # state) and the M_2 block of each C (+) M_2 row (draws + 2)
    real, shapes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        shapes.extend([np.shape(a)[-2:]] * int(np.prod(np.shape(a)[:-2], dtype=int)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    suite_orbit_census(draws=300, seed=0)
    assert shapes.count((2, 2)) == 300 + 1 + 300 + 2


@pytest.mark.parametrize("sizes", ((1, 3), (2, 2)))
def test_orbit_type_counts_are_the_per_row_tally(sizes):
    # the census tally (codes, one bincount of the pairs) against a Counter
    # of the per-row signatures and orbit dimensions, on clustered states
    # (C (+) M_3: a 1 x 1 block and several orbit types), plain draws and
    # the maximally mixed state
    alg = AlgebraDescriptor(sizes)
    ms = [_clustered(alg, 7, s) for s in range(24)]
    ms += [sample_algebra(alg, 7, index=s).matrix for s in range(4)]
    stack = _validated_stack(np.array(ms + [maximally_mixed(alg).matrix]), alg, DEFAULT_TOL)
    codes, signatures = _clusters(stack.spectra, alg, DEFAULT_CLUSTER_TOL)
    dims = orbit_dim_stack(stack.hs, alg)
    sigs = orbit_signature_stack(stack.hs, alg)
    want = Counter(zip(sigs, dims.tolist()))
    assert len(set(sigs)) >= 3
    assert _type_counts(codes, signatures, dims, alg) == want
    # the codes expand to the per-row signatures, distinct ones in order of
    # their first row
    assert [signatures[code] for code in codes.tolist()] == sigs
    assert signatures == list(dict.fromkeys(sigs))


def test_orbit_type_codes_raise_the_stacks_ambiguous_clustering():
    # two rows with gaps in (cluster_tol, 10 cluster_tol): the census's
    # clustering names the first, as orbit_signature_stack does
    alg = AlgebraDescriptor((1, 3))
    rows = [np.diag([0.2, 0.4, 0.4, 0.0]), np.diag([0.1, 0.3, 0.3, 0.3])]
    rows += [np.diag([0.2, 0.4 - 2.5e-8, 0.4 + 2.5e-8, 0.0])]
    rows += [np.diag([0.1, 0.3 - 1.5e-8, 0.3 + 1.5e-8, 0.3])]
    stack = _validated_stack(np.array(rows, dtype=complex), alg, DEFAULT_TOL)
    with pytest.raises(AmbiguousClustering) as per_stack:
        orbit_signature_stack(stack.hs, alg)
    with pytest.raises(AmbiguousClustering) as census:
        _clusters(stack.spectra, alg, DEFAULT_CLUSTER_TOL)
    assert str(census.value) == str(per_stack.value)
    assert census.value.gap == per_stack.value.gap == pytest.approx(5e-8)
