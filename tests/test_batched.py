"""The (B, n, n) state core against per-state references.

validate_stack, classify_stack, orbit_signature_stack and orbit_dim_stack
must give, matrix by matrix, exactly what the per-state functions give, and
those must agree with the loop implementations they replaced (kept below as
references). The same holds for the stacked primitives of the Whitney
suite: eigh_fixed and hs_norm on stacks, tangent_basis_stack,
retract_stack, secant_direction_stack and gap_line_space_stack.
"""

import numpy as np
import pytest

from stratumlab import (
    AlgebraDescriptor,
    StratumLabel,
    classify,
    classify_stack,
    enumerate_labels,
    frontier_check,
    frontier_matrix,
    linalg,
    maximally_mixed,
    orbit_dim,
    orbit_dim_stack,
    orbit_signature,
    orbit_signature_stack,
    sample_algebra,
    sample_block_unitary,
    stratum_dim_label,
    tangent_basis,
    validate_density,
    validate_stack,
)
from stratumlab.errors import (
    AmbiguousClustering,
    AmbiguousRank,
    CoincidentPoints,
    ValidationError,
)
from stratumlab.strata import (
    _tangent_template,
    rank_from_eigenvalues,
    retract_stack,
    retract_to_stratum,
    tangent_basis_stack,
)
from stratumlab.whitney import (
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


def _first_error(ms, alg):
    """What a per-state validate_density loop over the stack raises first."""
    for m in ms:
        try:
            validate_density(m, alg)
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
    kinds = ["asym", "nan", "inf", "trace", "negative"]
    if alg.num_blocks > 1:
        kinds.append("offblock")
    cases = 0
    for first in kinds:
        for second in kinds:
            for at, later in ((1, 4), (3, 2), (0, 5)):
                ms = list(good)
                ms[at] = _bad(first, good[at])
                ms[later] = _bad(second, good[later])
                expected = _first_error(ms, alg)
                assert expected is not None
                with pytest.raises(ValidationError) as exc:
                    validate_stack(np.array(ms), alg)
                assert type(exc.value) is expected[0]
                if expected[1] is None:
                    assert exc.value.magnitude is None
                else:
                    assert exc.value.magnitude == expected[1]
                cases += 1
    assert cases == 3 * len(kinds) ** 2


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
