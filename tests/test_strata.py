import hashlib
import itertools

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
    tangent_basis_stack,
    validate_density,
)
from stratumlab import linalg
from stratumlab.errors import AmbiguousRank
from stratumlab.strata import _tangent_template, rank_from_eigenvalues


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
    npt.assert_allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-12)
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
        # orthonormal complement of the block weights sqrt(i_b): the trailing
        # columns of a complete QR of their direction
        weights = np.sqrt(np.asarray(occupied, dtype=float))[:, None]
        contrasts = np.linalg.qr(weights, mode="complete")[0][:, 1:]
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
    ((1, 1, 2), (1, 1, 2)),  # three occupied blocks of unequal rank
    ((1, 2, 3), (1, 1, 2)),
)


def _assert_matches_reference(rho, basis, label):
    n = rho.dim
    assert isinstance(basis, np.ndarray)
    assert basis.shape == (stratum_dim_label(label), n, n)
    gram = np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2])).real
    npt.assert_allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-12)
    _check_tangent_space(rho, basis, label)
    reference = _reference_tangent_basis(rho, label)
    assert len(reference) == len(basis)
    diff = _real_span_projector(basis) - _real_span_projector(reference)
    assert np.max(np.abs(diff)) <= 1e-12


def test_tangent_basis_stacked_matches_reference():
    for sizes, ranks in STACKED_CASES:
        alg = AlgebraDescriptor(sizes)
        label = StratumLabel(alg, ranks)
        rho = sample_algebra(alg, seed=39, ranks=ranks)
        _assert_matches_reference(rho, tangent_basis(rho, label=label), label)


def test_every_multi_block_label_matches_reference():
    # the labels whose trace-free diagonal directions span several blocks
    for sizes in ((1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1), (2, 3), (3, 3)):
        alg = AlgebraDescriptor(sizes)
        for ranks in itertools.product(*(range(nb + 1) for nb in sizes)):
            if sum(1 for i in ranks if i) < 2:
                continue
            label = StratumLabel(alg, ranks)
            states = [sample_algebra(alg, seed=41, ranks=ranks, index=k) for k in range(2)]
            bases = tangent_basis_stack(np.array([rho.matrix for rho in states]), label)
            for rho, basis in zip(states, bases):
                _assert_matches_reference(rho, basis, label)


# sha256 of _tangent_template((n,), (i,)).tobytes(), recorded before the
# diagonal directions of all blocks became one Helmert family
SINGLE_BLOCK_TEMPLATE_SHA256 = {
    (1, 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 1): "25d6a1a476d1e676229485ff515744a8c42df1ebff2a25b824741821976b006d",
    (2, 2): "7b9d77cd49bf67fd5855fe77f4bb8fc11b49acfce9068206056e9105740119d6",
    (3, 1): "01d19efce3b8d498a7d39c7bd48edecc770506dac6aaf513f8402f700e478e09",
    (3, 2): "87429cbb90eb6eb25f09903a0a4e3bf834940e4fca1644154b584a4db05df005",
    (3, 3): "21a5090e7efd84a68ed755547040a429ed5aaa8aa9b107858212b1cd7a9a8ad6",
    (4, 1): "2c7f722f8fb78fe2b5cb2819eaa8dde622f49d6ada07b06cf156c182ecc5e7e9",
    (4, 2): "4a05da9051b60f853ae2257e5649564e8fb45cdae3dab52bc69be4b035784a16",
    (4, 3): "3c6184122750a881ade8eeb37b230c2154b48229ba55333f359fa51a6efc3765",
    (4, 4): "916277ebe8e659bf89448ebd1be4aec5599841aed5fc541b3c5391acb55365f2",
    (5, 1): "c7df042ec5bf258a24ab7cc22d6160e79df8c3de8d9feec7d5a5671973499e7b",
    (5, 2): "6d4febd7924e7ecd686dc470c2a6aeedc6aa283fb7d7d4cb80b9d0a69a650a56",
    (5, 3): "c78738abf50126119caf624056bc36060ae82ea28d8dc864293605707046aa6d",
    (5, 4): "ef6e0dd60893dfe16ed78ef8cff9d669675394b3659cb344b08ffb4b07b92851",
    (5, 5): "6005902a452159284432adbb0b0121314aa9aa1b3927ec463351d6097cc523f8",
    (6, 1): "98b7ec556b00d4c7180b059ae95baca5cd2c3e33c189a2cf25d6b8f11b1f653e",
    (6, 2): "03de900d6e1c305d622090eb91cd44269aff621d1b291c0c080fc21715a473a4",
    (6, 3): "212ba9bfaf8d1e20dbf91406f56ec658f71707a727878703fde9edf8eeb1c70c",
    (6, 4): "76c28e3c4353676f8608ae0be94c7fd292f72597b1db750b930c833c99362c8a",
    (6, 5): "91ef2b1ab1e8acfe80a70e232a51bf6edbd7266dd915e06e306dc202edc51b00",
    (6, 6): "57b52c112cfc6f0dd7c64e6c0d2c506963e262843318288efdf722d1525d9719",
    (7, 1): "7217ca0a6c1fb9843d24a3f10c7f2a22b4cf04ebc52da7ae647bc212f4449654",
    (7, 2): "ccabebca02f8affd560a3a8d6621cbe1b9c8114e9c5db2ac7fb5e216779718b1",
    (7, 3): "75dbbe6036f911f4a0894bc11d8ec6c68d8c6887025572371fe03f6320b2dd62",
    (7, 4): "7722fbfd5994a56e97566600be2297acaf37da6b81e67314575efac115c27637",
    (7, 5): "f80c9576bfea0c76502d4c77bb0d694131f4d2f9ed93d4c4f2bc38f29a9704ce",
    (7, 6): "9f17c7f3cbc3ba59e260a2f5e0fc0de2ade0bcd35524a74d4e243177ba4df7dc",
    (7, 7): "a8891a7d07c88943fe4574475c72bd305b8cc517c50bcf5aaefd800b86a1be41",
    (8, 1): "e16ee54a37567b385b167355eee3816462d7f54aa2087aeec59af0772f15e3ca",
    (8, 2): "ba8d1755eea99708bdccdd6681a588c7de3e3422cf77d3398f4ca9d783316617",
    (8, 3): "76ea0dcf56fa986a07d50b2a9e19d7079ee96ef379babb8803abf4d967511596",
    (8, 4): "c958563ca2bb470016381c4e4c4502f3454256028a5138273c8b6f3b86d8c7de",
    (8, 5): "24c5959395ec48d3613a735ced60a926d3a6699795ceb29fc54f32e57fb26ae0",
    (8, 6): "2a6088b6c03040e7acff8b18bfb1eacb0abf4cb626d667d2f689b518b67f749d",
    (8, 7): "44aeaf395aad62f98ca1349e20c6fce5609f6169db6bdef0de8cb85478b3cc3c",
    (8, 8): "07a1e7fd58ece49e001047227df5acdd8a7e60f318ae3323399a544261a00c82",
}


def test_single_block_templates_golden():
    assert len(SINGLE_BLOCK_TEMPLATE_SHA256) == 36
    for (n, i), digest in SINGLE_BLOCK_TEMPLATE_SHA256.items():
        template = _tangent_template((n,), (i,))
        assert template.shape == (stratum_dim(n, i), n, n)
        assert hashlib.sha256(template.tobytes()).hexdigest() == digest, (n, i)


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
