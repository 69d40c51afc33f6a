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

import numpy as np
import pytest

from stratumlab import (
    AlgebraDescriptor,
    StratumLabel,
    classify,
    classify_stack,
    contour_quadrature,
    enumerate_labels,
    frontier_check,
    frontier_leq,
    frontier_matrix,
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
from stratumlab.joins import (
    WEIGHT_DROP_TOL,
    _join_stack,
    _split_stack,
    convex_split,
    join_state,
    summand_algebras,
)
from stratumlab.sampler import (
    FRONTIER_DELTA,
    _algebra_stack,
    _approach_base,
    _approach_stack,
    _uniform_rows,
    approach_state,
)
from stratumlab.strata import (
    _tangent_template,
    rank_from_eigenvalues,
    retract_stack,
    retract_to_stratum,
    tangent_basis_stack,
)
from stratumlab.verify import (
    DEFAULT_FRONTIER_ALGEBRAS,
    suite_frontier,
    suite_join,
    suite_orbit_census,
    suite_projector_equiv,
)
from stratumlab import charts, verify, whitney
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
        for a in enumerate_labels(alg):
            hs, base, _ = _frontier_sources(a, 3, seed)
            ys = [sample_algebra(alg, seed, ranks=a.per_block, index=s) for s in range(3)]
            for b in enumerate_labels(alg):
                if not frontier_leq(a, b):
                    continue
                xs = _approach_stack(hs, base, b, FRONTIER_DELTA)
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
        assert np.array_equal(_frontier_sources(i, 15, 4)[0], draws(i))
    stack = whitney._algebra_stack
    i = labels[0]
    # a point off rank i at attempt 0 is redrawn alone, by the resample loop
    off = stack(i.alg, 4, i.per_block, range(15), 0).copy()
    off[3] = maximally_mixed(i.alg).matrix
    monkeypatch.setattr(whitney, "_algebra_stack", lambda *args: off)
    assert np.array_equal(_frontier_sources(i, 15, 4)[0], draws(i))
    # every point is redrawn when the stacked validation or audit refuses
    off[5] = np.nan
    assert np.array_equal(_frontier_sources(i, 15, 4)[0], draws(i))
    monkeypatch.setattr(whitney, "_algebra_stack", stack)

    def refuse(*args):
        raise AmbiguousRank(1e-7, 1e-7)

    monkeypatch.setattr(whitney, "classify_stack", refuse)
    assert np.array_equal(_frontier_sources(i, 15, 4)[0], draws(i))


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


def _first_row_error(hs, label, target):
    """The error a row-by-row construction meets first, as (type, message)."""
    for k in range(len(hs)):
        base = _approach_base(hs[k : k + 1], label, 1e-9, 5, [k])
        try:
            _approach_stack(hs[k : k + 1], base, target, FRONTIER_DELTA)
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
        hs = validate_stack(np.array(rows), alg)
        want = _first_row_error(hs, label, target)
        assert want is not None and want[0] is kind
        base = _approach_base(hs, label, 1e-9, 5, range(len(hs)))
        with pytest.raises(kind) as exc:
            _approach_stack(hs, base, target, FRONTIER_DELTA)
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
    ms = [_algebra_stack(alg, 21, ranks, range(12), 0) for ranks in rank_draws]
    # a weight under the drop tolerance, and one just above it whose
    # component tolerance 2 tol / w is far looser than tol
    for weight in (1e-13, 1e-6):
        d = np.full(alg.dim, weight / (alg.dim - alg.block_sizes[0]))
        d[: alg.block_sizes[0]] = (1.0 - weight) / alg.block_sizes[0]
        ms.append(np.diag(d).astype(complex)[None])
    hs = validate_stack(np.concatenate(ms), alg)
    weights, comps, tols = _split_stack(hs, alg, split, 1e-9)
    back = _join_stack(weights, comps, alg, 1e-9)
    assert not back.flags.writeable
    dropped = 0
    for b, h in enumerate(hs):
        rho = validate_density(h, alg)
        p = convex_split(rho, split=split)
        ref_weights, ref_comps, ref_tols = _reference_convex_split(rho, split)
        assert weights[b].tolist() == list(p.weights) == ref_weights
        for j, (comp, ref) in enumerate(zip(p.components, ref_comps)):
            if ref is None:
                assert comp is None and not comps[j][b].any()
                dropped += 1
                continue
            assert np.array_equal(comps[j][b], comp.matrix)
            assert np.array_equal(comps[j][b], ref.matrix)
            assert tols[b, j] == comp.tol == ref_tols[j]
        assert np.array_equal(back[b], join_state(p).matrix)
        ref_back = _reference_join_state(alg, split, ref_weights, ref_comps)
        assert np.array_equal(back[b], ref_back.matrix)
    assert dropped >= 13  # every zero-rank draw and the sub-WEIGHT_DROP_TOL weight


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
    ),
)
def test_stacked_suites_golden(suite, kwargs, seed, digest):
    # computed from the per-draw census, the per-state join round trips, the
    # per-state frontier approximants and the per-sample projector routes
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
