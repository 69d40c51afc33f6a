import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import (
    AlgebraDescriptor,
    StratumLabel,
    classify,
    frontier_leq,
    full_algebra,
    numerical_rank,
    retract_to_stratum,
    sample_algebra,
    sample_rank,
    stratum_dim,
    stratum_dim_label,
    tangent_basis,
    validate_density,
)
from stratumlab import linalg
from stratumlab.errors import AmbiguousRank
from stratumlab.strata import _contrast_coefficients, rank_from_eigenvalues


def test_rank_gray_zone_protocol():
    tol = 1e-9
    assert rank_from_eigenvalues(np.array([0.5, 0.5, 1e-12]), tol) == 2
    assert rank_from_eigenvalues(np.array([0.4, 0.3, 0.3]), tol) == 3
    # exactly tol/10 and 10*tol sit on the boundary, outside the open zone;
    # the lower edge counts as zero, the upper edge counts toward the rank
    assert rank_from_eigenvalues(np.array([0.5, 1e-10]), tol) == 1
    assert rank_from_eigenvalues(np.array([0.5, 1e-8]), tol) == 2
    with pytest.raises(AmbiguousRank) as err:
        rank_from_eigenvalues(np.array([0.5, 5e-9]), tol)
    assert err.value.value == pytest.approx(5e-9)
    with pytest.raises(ValueError):
        rank_from_eigenvalues(np.array([0.5]), 0.0)


def test_rank_refuses_tolerances_that_decide_nothing():
    # at tol = inf every eigenvalue would count as zero
    w = np.array([0.5, 0.3, 0.2])
    for tol in (np.inf, np.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            rank_from_eigenvalues(w, tol)
    assert rank_from_eigenvalues(w, 1e-9) == 3


def test_numerical_rank_and_classify():
    alg = AlgebraDescriptor((1, 2))
    rho = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex), alg)
    assert numerical_rank(rho) == 2
    assert classify(rho).per_block == (1, 1)
    full = validate_density(np.diag([0.2, 0.3, 0.5]).astype(complex), alg)
    assert classify(full).per_block == (1, 2)


def test_stratum_label_validation():
    alg = AlgebraDescriptor((1, 2))
    assert StratumLabel(alg, (0, 2)).total == 2
    with pytest.raises(ValueError):
        StratumLabel(alg, (1,))
    with pytest.raises(ValueError):
        StratumLabel(alg, (2, 1))
    with pytest.raises(ValueError):
        StratumLabel(alg, (0, 0))


def test_stratum_dim_table():
    # n^2 - (n - i)^2 - 1, frozen for the small cases used everywhere
    expected = {
        (2, 1): 2,
        (2, 2): 3,
        (3, 1): 4,
        (3, 2): 7,
        (3, 3): 8,
        (4, 1): 6,
        (4, 4): 15,
        (5, 3): 20,
    }
    for (n, i), d in expected.items():
        assert stratum_dim(n, i) == d
        assert stratum_dim(n, i) == n * n - (n - i) * (n - i) - 1
    with pytest.raises(ValueError):
        stratum_dim(3, 0)
    with pytest.raises(ValueError):
        stratum_dim(3, 4)


def test_stratum_dim_label_direct_sum():
    alg = AlgebraDescriptor((1, 2))
    assert stratum_dim_label(StratumLabel(alg, (1, 1))) == 3
    assert stratum_dim_label(StratumLabel(alg, (1, 2))) == 4
    assert stratum_dim_label(StratumLabel(alg, (0, 1))) == 2
    # single block reduces to the closed form
    m3 = full_algebra(3)
    for i in (1, 2, 3):
        assert stratum_dim_label(StratumLabel(m3, (i,))) == stratum_dim(3, i)


def test_frontier_leq_order():
    alg = AlgebraDescriptor((1, 1))
    a = StratumLabel(alg, (1, 0))
    b = StratumLabel(alg, (0, 1))
    both = StratumLabel(alg, (1, 1))
    assert frontier_leq(a, both) and frontier_leq(b, both)
    assert not frontier_leq(a, b) and not frontier_leq(b, a)
    assert frontier_leq(a, a)
    m2 = full_algebra(2)
    with pytest.raises(ValueError):
        frontier_leq(a, StratumLabel(m2, (1,)))


def _check_tangent_space(rho, basis, label):
    n = rho.dim
    gram = np.zeros((len(basis), len(basis)))
    for a, ha in enumerate(basis):
        npt.assert_allclose(ha, ha.conj().T, atol=1e-13)
        assert abs(np.trace(ha).real) < 1e-12
        assert linalg.off_block_magnitude(ha, rho.alg.block_sizes) < 1e-13
        for b, hb in enumerate(basis):
            gram[a, b] = linalg.hs_inner(ha, hb)
    npt.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
    # compression to the kernel vanishes
    if rho.alg.num_blocks == 1 and n - label.total:
        k = linalg.eigh_fixed(rho.matrix)[1][:, : n - label.total]
        for ha in basis:
            assert np.max(np.abs(k.conj().T @ ha @ k)) < 1e-12


def test_tangent_basis_dimension_and_orthonormality():
    for n, r in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 4)):
        rho = sample_rank(n, r, seed=31, index=n * 10 + r)
        label = classify(rho)
        basis = tangent_basis(rho)
        assert len(basis) == stratum_dim_label(label)
        _check_tangent_space(rho, basis, label)
    alg = AlgebraDescriptor((1, 2))
    rho = sample_algebra(alg, seed=32, ranks=(1, 1))
    basis = tangent_basis(rho)
    assert len(basis) == 3
    _check_tangent_space(rho, basis, classify(rho))


def _reference_tangent_basis(rho, label):
    """The list-of-outer-products construction tangent_basis replaced, kept
    as the reference the stacked template is checked against."""
    n = rho.dim
    basis, range_projectors, occupied = [], [], []
    at = 0
    for nb, ib in zip(rho.alg.block_sizes, label.per_block):
        if ib >= 1:
            _, v = linalg.eigh_fixed(rho.matrix[at : at + nb, at : at + nb])
            vr = np.zeros((n, ib), dtype=complex)
            vr[at : at + nb, :] = v[:, nb - ib :]
            vk = np.zeros((n, nb - ib), dtype=complex)
            vk[at : at + nb, :] = v[:, : nb - ib]
            pairs = [(vr[:, r], vk[:, q]) for r in range(ib) for q in range(nb - ib)]
            pairs += [(vr[:, r], vr[:, s]) for r in range(ib) for s in range(r + 1, ib)]
            for a, b in pairs:
                outer = np.outer(a, b.conj())
                basis.append((outer + outer.conj().T) / np.sqrt(2.0))
                basis.append((1j * outer - 1j * outer.conj().T) / np.sqrt(2.0))
            for a in range(1, ib):
                d = sum(np.outer(vr[:, c], vr[:, c].conj()) for c in range(a))
                d = d - a * np.outer(vr[:, a], vr[:, a].conj())
                basis.append(d / np.sqrt(a * (a + 1)))
            range_projectors.append(vr @ vr.conj().T)
            occupied.append(ib)
        at += nb
    if len(occupied) > 1:
        contrasts = _contrast_coefficients(np.sqrt(np.asarray(occupied, dtype=float)))
        units = [p / np.sqrt(i) for p, i in zip(range_projectors, occupied)]
        for a in range(contrasts.shape[1]):
            basis.append(sum(contrasts[b, a] * units[b] for b in range(len(units))))
    return basis


def _real_span_projector(basis):
    """Orthogonal projector onto the real span of Hermitian matrices, each
    flattened to its real and imaginary parts."""
    rows = np.array([np.concatenate([h.real.ravel(), h.imag.ravel()]) for h in basis])
    q, _ = np.linalg.qr(rows.T)
    return q @ q.T


STACKED_CASES = (
    ((1, 2), (1, 1)),
    ((2, 2), (1, 2)),  # contrast directions between two occupied blocks
    ((1, 1, 1, 1), (1, 0, 1, 1)),
    ((3,), (1,)),
    ((4,), (2,)),
    ((2, 3), (2, 1)),
)


def test_tangent_basis_stacked_matches_reference():
    for sizes, ranks in STACKED_CASES:
        alg = AlgebraDescriptor(sizes)
        label = StratumLabel(alg, ranks)
        rho = sample_algebra(alg, seed=39, ranks=ranks)
        basis = tangent_basis(rho, label=label)
        n = alg.dim
        assert isinstance(basis, np.ndarray)
        assert basis.shape == (stratum_dim_label(label), n, n)
        gram = np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2])).real
        npt.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
        _check_tangent_space(rho, basis, label)
        reference = _reference_tangent_basis(rho, label)
        assert len(reference) == len(basis)
        diff = _real_span_projector(basis) - _real_span_projector(reference)
        assert np.max(np.abs(diff)) <= 1e-12


def test_tangent_directions_are_velocities():
    # moving along a tangent direction leaves the stratum only at second
    # order; a kernel-weight direction leaves at first order
    alg = full_algebra(3)
    rho = validate_density(np.diag([0.6, 0.4, 0.0]).astype(complex), alg)
    label = classify(rho)
    assert stratum_dim_label(label) == 7
    basis = tangent_basis(rho)
    assert len(basis) == 7
    steps = (1e-3, 5e-4, 2.5e-4)
    for h in basis:
        ratios = []
        for s in steps:
            stepped = rho.matrix + s * h
            retracted = retract_to_stratum(stepped, label)
            # remove the trace renormalization before measuring the gap
            scale = float(np.trace(stepped).real)
            err = linalg.hs_norm(retracted.matrix * scale - stepped)
            ratios.append(err / s**2)
        assert max(ratios) < 50.0  # bounded ratio means O(s^2)
    normal = np.diag([-0.5, -0.5, 1.0]).astype(complex)
    normal /= linalg.hs_norm(normal)
    for s in steps:
        stepped = rho.matrix + s * normal
        retracted = retract_to_stratum(stepped, label)
        scale = float(np.trace(stepped).real)
        err = linalg.hs_norm(retracted.matrix * scale - stepped)
        assert err > 0.5 * s  # first-order departure


def test_retract_to_stratum():
    alg = full_algebra(3)
    label = StratumLabel(alg, (2,))
    h = np.diag([0.5, 0.4, 0.2]).astype(complex)
    rho = retract_to_stratum(h, label)
    assert classify(rho).per_block == (2,)
    w = np.sort(rho.eigenvalues())
    npt.assert_allclose(w, [0.0, 0.4 / 0.9, 0.5 / 0.9], atol=1e-12)
    with pytest.raises(ValueError):
        retract_to_stratum(np.diag([-1.0, -2.0, -3.0]).astype(complex), label)
    # zero-rank blocks are zeroed out
    alg2 = AlgebraDescriptor((1, 2))
    label2 = StratumLabel(alg2, (0, 2))
    rho2 = retract_to_stratum(np.diag([0.3, 0.4, 0.3]).astype(complex), label2)
    assert rho2.matrix[0, 0] == 0.0
    npt.assert_allclose(np.trace(rho2.matrix).real, 1.0, atol=1e-14)
