import itertools

import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import (
    AlgebraDescriptor,
    OrbitSignature,
    adjoint_act,
    classify,
    cone_state,
    full_algebra,
    isotropy_dim,
    maximally_mixed,
    orbit_dim,
    orbit_signature,
    orbit_type_leq,
    sample_block_unitary,
    sample_hs,
    sample_unitary,
    validate_density,
)
from stratumlab.errors import AmbiguousClustering, DimensionTooLarge, NotInAlgebra, NotUnitary
from stratumlab.orbits import ORBIT_DIM_MAX_BLOCK, orbit_dim_stack, orbit_signature_stack

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


def _diag_state(entries, alg=None):
    entries = np.asarray(entries, dtype=float)
    return validate_density(np.diag(entries).astype(complex), alg or full_algebra(entries.size))


def _partitions(n):
    """All integer partitions of n, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _state_with_multiplicities(partition):
    """Diagonal state whose eigenvalue clusters are exactly the partition."""
    n = sum(partition)
    values = np.arange(1, len(partition) + 1, dtype=float)
    eigs = np.concatenate([np.full(m, v) for m, v in zip(partition, values)])
    return _diag_state(eigs / eigs.sum())


def test_signature_basics():
    assert orbit_signature(_diag_state([0.5, 0.3, 0.2])).per_block == ((1, 1, 1),)
    assert orbit_signature(_diag_state([0.4, 0.4, 0.2])).per_block == ((2, 1),)
    assert orbit_signature(maximally_mixed(full_algebra(3))).per_block == ((3,),)
    cone = cone_state(0.5, (0.0, 0.0, 0.0))
    assert orbit_signature(cone).per_block == ((1,), (2,))


def test_signature_validation():
    m3 = full_algebra(3)
    sig = OrbitSignature(m3, ((2, 1),))
    assert sig.per_block == ((2, 1),)
    with pytest.raises(ValueError):
        OrbitSignature(m3, ((1, 2),))  # not descending
    with pytest.raises(ValueError):
        OrbitSignature(m3, ((2, 2),))  # wrong total


def test_ambiguous_clustering():
    # the 5e-8 gap separates the values (gap > cluster_tol) but is inside
    # the 10x instability band, so the protocol refuses
    rho = _diag_state([0.5 + 2.5e-8, 0.5 - 2.5e-8])
    with pytest.raises(AmbiguousClustering):
        orbit_signature(rho, 1e-8)
    # a wider clustering tolerance resolves it by merging
    assert orbit_signature(rho, 1e-6).per_block == ((2,),)
    # a clearly separated pair stays two clusters
    assert orbit_signature(_diag_state([0.6, 0.4]), 1e-8).per_block == ((1, 1),)


def test_signature_refuses_tolerances_that_decide_nothing():
    # at NaN or -1 every eigenvalue would be its own cluster, at inf all
    # would merge
    rho = _diag_state([0.5, 0.25, 0.25])
    for tol in (np.nan, -1.0, np.inf, 0.0):
        with pytest.raises(ValueError, match="cluster_tol must be finite and positive"):
            orbit_signature(rho, tol)
        with pytest.raises(ValueError, match="cluster_tol must be finite and positive"):
            orbit_signature_stack(rho.matrix[None], rho.alg, tol)
    assert orbit_signature(rho, 1e-8).per_block == ((2, 1),)


def test_isotropy_dim():
    m3 = full_algebra(3)
    assert isotropy_dim(OrbitSignature(m3, ((1, 1, 1),))) == 3
    assert isotropy_dim(OrbitSignature(m3, ((2, 1),))) == 5
    assert isotropy_dim(OrbitSignature(m3, ((3,),))) == 9
    alg = AlgebraDescriptor((1, 2))
    assert isotropy_dim(OrbitSignature(alg, ((1,), (2,)))) == 5


def test_orbit_dim_reference_values():
    assert orbit_dim(_diag_state([0.7, 0.3])) == 2
    assert orbit_dim(maximally_mixed(full_algebra(2))) == 0
    assert orbit_dim(maximally_mixed(full_algebra(4))) == 0
    assert orbit_dim(_diag_state([0.5, 0.3, 0.2])) == 6


def test_orbit_dim_thresholds_at_the_states_own_tol():
    # the 1e-6 eigenvalue and the 1e-6 gap are zero at tol 1e-4, not at 1e-9
    m = np.diag([0.5, 0.5 - 1e-6, 1e-6]).astype(complex)
    for tol, ranks, dim, iso in ((1e-9, (3,), 6, 3), (1e-4, (2,), 4, 5)):
        rho = validate_density(m, full_algebra(3), tol)
        assert classify(rho).per_block == ranks
        assert orbit_dim(rho) == dim
        assert isotropy_dim(orbit_signature(rho, tol)) == iso
        assert dim + iso == rho.alg.unitary_group_dim


def test_orbit_dim_refuses_blocks_above_the_cap():
    n = ORBIT_DIM_MAX_BLOCK + 1
    with pytest.raises(DimensionTooLarge):
        orbit_dim(maximally_mixed(full_algebra(n)))
    alg = AlgebraDescriptor((1, n))
    with pytest.raises(DimensionTooLarge):
        orbit_dim_stack(maximally_mixed(alg).matrix[None], alg)


def test_orbit_plus_isotropy_is_group_dim():
    rng_states = [sample_hs(3, seed=60, index=s) for s in range(20)]
    rng_states += [
        maximally_mixed(full_algebra(3)),
        _diag_state([0.4, 0.4, 0.2]),
        cone_state(0.3, (0.1, 0.0, 0.2)),
    ]
    for rho in rng_states:
        sig = orbit_signature(rho)
        assert orbit_dim(rho) + isotropy_dim(sig) == rho.alg.unitary_group_dim


def test_adjoint_act():
    rho = _diag_state([0.6, 0.4])
    u = sample_unitary(2, seed=61)
    moved = adjoint_act(u, rho)
    npt.assert_allclose(moved.matrix, u @ rho.matrix @ u.conj().T, atol=1e-14)
    assert orbit_signature(moved).per_block == orbit_signature(rho).per_block
    with pytest.raises(NotUnitary):
        adjoint_act(np.diag([1.0, 2.0]).astype(complex), rho)
    alg = AlgebraDescriptor((1, 1))
    rho2 = validate_density(np.diag([0.6, 0.4]).astype(complex), alg)
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(NotInAlgebra):
        adjoint_act(had.astype(complex), rho2)
    ub = sample_block_unitary(alg, seed=62)
    assert adjoint_act(ub, rho2).alg == alg


def test_adjoint_act_takes_no_tolerance():
    # off-block and unitarity budgets are linalg.STRUCTURE_TOL; no keyword
    # can wave a non-unitary through
    with pytest.raises(TypeError):
        adjoint_act(np.diag([1.0, 2.0]).astype(complex), _diag_state([0.6, 0.4]), tol=np.inf)


def test_signature_census_matches_partition_count():
    for n in range(1, 7):
        seen = set()
        for part in _partitions(n):
            rho = _state_with_multiplicities(part)
            sig = orbit_signature(rho)
            assert sig.per_block == (tuple(part),)
            seen.add(sig.per_block)
        assert len(seen) == PARTITION_COUNTS[n]


def test_orbit_type_order():
    m2 = full_algebra(2)
    generic = OrbitSignature(m2, ((1, 1),))
    central = OrbitSignature(m2, ((2,),))
    assert orbit_type_leq(central, generic)
    assert not orbit_type_leq(generic, central)
    assert orbit_type_leq(generic, generic)

    m4 = full_algebra(4)
    top = OrbitSignature(m4, ((4,),))
    two_two = OrbitSignature(m4, ((2, 2),))
    three_one = OrbitSignature(m4, ((3, 1),))
    two_one_one = OrbitSignature(m4, ((2, 1, 1),))
    assert orbit_type_leq(top, two_two)
    assert orbit_type_leq(top, three_one)
    # (2,2) cannot merge into (3,1) or vice versa
    assert not orbit_type_leq(three_one, two_two)
    assert not orbit_type_leq(two_two, three_one)
    assert orbit_type_leq(three_one, two_one_one)
    assert orbit_type_leq(two_two, two_one_one)

    alg = AlgebraDescriptor((2, 2))
    a = OrbitSignature(alg, ((2,), (1, 1)))
    b = OrbitSignature(alg, ((1, 1), (1, 1)))
    assert orbit_type_leq(a, b)
    assert not orbit_type_leq(b, a)
    with pytest.raises(ValueError):
        orbit_type_leq(a, OrbitSignature(m4, ((4,),)))


def _merged_sums(parts):
    """The block sums, sorted descending, of every grouping of the parts
    into blocks: every set partition of the list, by brute force."""
    if not parts:
        return {()}
    first, out = parts[0], set()
    for sums in _merged_sums(parts[1:]):
        out.add(tuple(sorted(sums + (first,), reverse=True)))
        for k in range(len(sums)):
            out.add(tuple(sorted(sums[:k] + (sums[k] + first,) + sums[k + 1 :], reverse=True)))
    return out


def test_orbit_type_order_matches_brute_force():
    # a <= b iff some grouping of b's parts sums to a's parts
    checked = 0
    for n in range(1, 9):
        m = full_algebra(n)
        for pa, pb in itertools.product(_partitions(n), _partitions(n)):
            a, b = OrbitSignature(m, (pa,)), OrbitSignature(m, (pb,))
            assert orbit_type_leq(a, b) == (pa in _merged_sums(pb)), (pa, pb)
            checked += 1
    assert checked == 918  # the sum of p(n)^2 over n <= 8


def test_orbit_type_order_m7_needs_a_non_greedy_grouping():
    # 2 + 2 = 4 and 3 = 3, although the largest part 3 cannot go into the 4
    m7 = full_algebra(7)
    assert orbit_type_leq(OrbitSignature(m7, ((4, 3),)), OrbitSignature(m7, ((3, 2, 2),)))
    assert not orbit_type_leq(OrbitSignature(m7, ((3, 2, 2),)), OrbitSignature(m7, ((4, 3),)))


def test_orbit_type_order_is_isotropy_monotone():
    # smaller orbit type means larger stabilizer
    m4 = full_algebra(4)
    sigs = [OrbitSignature(m4, (tuple(p),)) for p in _partitions(4)]
    for a, b in itertools.product(sigs, sigs):
        if orbit_type_leq(a, b):
            assert isotropy_dim(a) >= isotropy_dim(b)
