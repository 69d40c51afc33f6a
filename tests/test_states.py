import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import (
    AlgebraDescriptor,
    DensityMatrix,
    bloch_matrix,
    bloch_state,
    commutative_algebra,
    cone_algebra,
    cone_matrix,
    cone_state,
    full_algebra,
    is_psd_eigen,
    is_psd_sylvester,
    is_pure,
    maximally_mixed,
    simplex_state,
    validate_density,
)
from stratumlab.states import validate_stack
from stratumlab.errors import (
    DimensionTooLarge,
    NotBlockDiagonal,
    NotFinite,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)


def test_algebra_descriptor_basics():
    alg = AlgebraDescriptor((1, 2, 3))
    assert alg.dim == 6
    assert alg.num_blocks == 3
    assert alg.unitary_group_dim == 1 + 4 + 9
    assert [s.indices(6) for s in alg.block_slices()] == [(0, 1, 1), (1, 3, 1), (3, 6, 1)]
    assert alg.contains(np.diag([1, 2, 3, 4, 5, 6.0]))
    leaky = np.zeros((6, 6))
    leaky[0, 5] = 1.0
    assert not alg.contains(leaky)
    with pytest.raises(ValueError):
        AlgebraDescriptor(())
    with pytest.raises(ValueError):
        AlgebraDescriptor((2, 0))


def test_density_matrix_only_via_validate():
    with pytest.raises(TypeError):
        DensityMatrix(alg=full_algebra(2), matrix=np.eye(2) / 2)
    rho = validate_density(np.eye(2, dtype=complex) / 2, full_algebra(2))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.3


def test_validate_density_error_paths():
    alg = full_algebra(2)
    with pytest.raises(ValueError):
        validate_density(np.eye(3) / 3, alg)
    nh = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(NotHermitian):
        validate_density(nh, alg)
    two = AlgebraDescriptor((1, 1))
    off = np.array([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(NotBlockDiagonal) as err:
        validate_density(off, two)
    assert err.value.magnitude == pytest.approx(0.1)
    with pytest.raises(TraceNotOne) as err:
        validate_density(np.eye(2) * 0.6, alg)
    assert err.value.magnitude == pytest.approx(0.2)
    with pytest.raises(NotPositive) as err:
        validate_density(np.diag([1.25, -0.25]), alg)
    assert err.value.magnitude == pytest.approx(0.25)
    with pytest.raises(NotFinite):
        validate_density(np.diag([np.nan, 0.5]), alg)


def test_validate_density_hermitizes_roundoff():
    m = np.array([[0.5, 0.25 + 1e-14j], [0.25 - 2e-14j, 0.5]])
    rho = validate_density(m, full_algebra(2))
    npt.assert_array_equal(rho.matrix, rho.matrix.conj().T)


def test_blocks_and_eigenvalues():
    alg = AlgebraDescriptor((1, 2))
    rho = validate_density(np.diag([0.5, 0.3, 0.2]).astype(complex), alg)
    b1, b2 = rho.blocks()
    npt.assert_array_equal(b1, [[0.5]])
    npt.assert_array_equal(b2, np.diag([0.3, 0.2]))
    npt.assert_allclose(rho.eigenvalues(), [0.2, 0.3, 0.5])


def test_sylvester_agrees_with_eigen_route():
    rng = np.random.default_rng(20)
    checked = 0
    for trial in range(500):
        n = 1 + trial % 6
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = trial % 3
        if kind == 0:
            m = a @ a.conj().T  # PSD
        elif kind == 1:
            m = (a + a.conj().T) / 2  # indefinite almost surely for n > 1
        else:
            m = a @ a.conj().T - 0.05 * np.eye(n)  # slightly shifted down
        assert is_psd_sylvester(m) == is_psd_eigen(m)
        checked += 1
    assert checked == 500


def test_sylvester_boundary_and_cap():
    # singular PSD: a rank-1 projector has zero minors but none negative
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    p = np.outer(v, v)
    assert is_psd_sylvester(p)
    assert is_psd_eigen(p)
    # a matrix with nonnegative leading minors but a negative principal minor
    m = np.diag([0.0, -1.0])
    assert not is_psd_sylvester(m)
    with pytest.raises(DimensionTooLarge):
        is_psd_sylvester(np.eye(13))


def test_psd_routes_take_no_tolerance():
    # both routes decide at DEFAULT_TOL; no keyword can widen the budget
    m = np.diag([2.0, -1.0])
    with pytest.raises(TypeError):
        is_psd_eigen(m, tol=np.inf)
    with pytest.raises(TypeError):
        is_psd_sylvester(m, tol=np.nan)


def test_is_pure():
    assert is_pure(bloch_state((0.0, 0.0, 1.0)))
    assert not is_pure(maximally_mixed(full_algebra(2)))
    x = np.array([0.6, 0.0, 0.8])  # unit vector
    assert is_pure(bloch_state(x))
    assert not is_pure(bloch_state(0.999 * x))


def test_maximally_mixed():
    rho = maximally_mixed(AlgebraDescriptor((1, 2)))
    npt.assert_allclose(rho.matrix, np.eye(3) / 3)


def test_bloch_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=3)
        r = float(np.linalg.norm(x))
        w = np.linalg.eigvalsh(bloch_matrix(1.0, x))
        npt.assert_allclose(w, [(1 - r) / 2, (1 + r) / 2], atol=1e-12)
    with pytest.raises(NotPositive):
        bloch_state((1.2, 0.0, 0.0))


def test_cone_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(50):
        t = rng.uniform(0, 1)
        x = rng.uniform(-1, 1, size=3)
        x *= rng.uniform(0, 1) * t / max(np.linalg.norm(x), 1e-12)
        r = float(np.linalg.norm(x))
        w = np.linalg.eigvalsh(cone_matrix(t, x))
        expected = np.sort([1 - t, (t + r) / 2, (t - r) / 2])
        npt.assert_allclose(w, expected, atol=1e-12)
    assert cone_algebra().block_sizes == (1, 2)
    # maximally mixed exactly at t = 2/3, x = 0
    rho = cone_state(2.0 / 3.0, (0.0, 0.0, 0.0))
    npt.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-16)
    with pytest.raises(NotPositive):
        cone_state(0.3, (0.4, 0.0, 0.0))


def test_simplex_state():
    rho = simplex_state([0.1, 0.2, 0.3, 0.4])
    assert rho.alg == commutative_algebra(4)
    npt.assert_array_equal(rho.matrix, np.diag([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(TraceNotOne):
        simplex_state([0.5, 0.6])


def test_validation_refuses_tolerances_that_decide_nothing():
    # at tol = inf an indefinite matrix would pass; at -1 or NaN every
    # check would refuse, even one with nothing to refuse
    indefinite = np.diag([2.0, -1.0]).astype(complex)
    for tol in (np.inf, -1.0, np.nan, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            validate_density(indefinite, full_algebra(2), tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            validate_density(np.diag([0.5, 0.5]).astype(complex), full_algebra(2), tol=tol)
    ms = np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])], dtype=complex)
    for bad in (np.inf, np.nan, -1e-9):
        with pytest.raises(ValueError, match="finite and positive"):
            validate_stack(ms, full_algebra(2), np.array([1e-9, bad]))
    assert validate_stack(ms, full_algebra(2), np.array([1e-9, 1e-6])).shape == (2, 2, 2)
