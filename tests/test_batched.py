"""The (B, n, n) state core against per-state references.

validate_stack, classify_stack, orbit_signature_stack and orbit_dim_stack
must give, matrix by matrix, exactly what the per-state functions give, and
those must agree with the loop implementations they replaced (kept below as
references).
"""

import numpy as np
import pytest

from stratumlab import (
    AlgebraDescriptor,
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
    validate_density,
    validate_stack,
)
from stratumlab.errors import AmbiguousClustering, AmbiguousRank, ValidationError
from stratumlab.strata import rank_from_eigenvalues

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
