import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import (
    AlgebraDescriptor,
    ChartConfig,
    ChartPoint,
    chart_config_for,
    chart_forward,
    chart_inverse,
    contour_quadrature,
    contour_quadrature_stack,
    full_algebra,
    in_chart_domain,
    linalg,
    sample_block_unitary,
    sample_rank,
    sample_unitary,
    small_spectral_projector,
    small_spectral_projector_stack,
    spectral_gap,
    validate_density,
)
from stratumlab.charts import _in_band
from stratumlab.errors import (
    AlphaTooLarge,
    EigenvalueOnContour,
    NotFinite,
    NotHermitian,
    NotInChartDomain,
    NotOrthonormal,
)
from stratumlab.verify import _margin_split_stack

M3 = full_algebra(3)


def _diag_state(entries, alg=None):
    entries = np.asarray(entries, dtype=float)
    return validate_density(np.diag(entries).astype(complex), alg or full_algebra(entries.size))


def test_chart_config_defaults():
    f = _diag_state([0.5, 0.5, 0.0])
    assert spectral_gap(f) == pytest.approx(0.5)
    cfg = chart_config_for(f)
    assert cfg.gap_a == pytest.approx(0.5)
    assert cfg.epsilon == pytest.approx(0.125)
    assert cfg.contour_radius == pytest.approx(0.25)


def test_chart_config_validation():
    with pytest.raises(ValueError):
        ChartConfig(gap_a=0.5, epsilon=0.6, contour_radius=0.25)
    with pytest.raises(ValueError):
        ChartConfig(gap_a=0.5, epsilon=0.1, contour_radius=0.05)
    with pytest.raises(ValueError):
        ChartConfig(gap_a=0.5, epsilon=0.1, contour_radius=0.45)


def test_chart_worked_example():
    f = _diag_state([0.5, 0.5, 0.0])
    g = _diag_state([0.49, 0.49, 0.02])
    cfg = chart_config_for(f)
    assert in_chart_domain(f, g, cfg)
    p = chart_forward(f, g, cfg)
    assert p.alpha == pytest.approx(0.02, abs=1e-15)
    npt.assert_allclose(p.cone_part, [[0.02]], atol=1e-15)
    npt.assert_allclose(p.base_part, np.eye(2) / 2, atol=1e-15)
    back = chart_inverse(p)
    npt.assert_allclose(back.matrix, g.matrix, atol=1e-14)


def test_chart_center_maps_to_vertex():
    f = _diag_state([0.5, 0.5, 0.0])
    p = chart_forward(f, f)
    assert p.alpha == 0.0
    back = chart_inverse(p)
    assert linalg.hs_norm(back.matrix - f.matrix) <= 1e-12


def test_chart_domain_rejections():
    f = _diag_state([0.5, 0.5, 0.0])
    cfg = chart_config_for(f)
    # 0.3 and 0.2 land inside the forbidden band (0.125, 0.375)
    g_band = _diag_state([0.5, 0.3, 0.2])
    assert not in_chart_domain(f, g_band, cfg)
    with pytest.raises(NotInChartDomain, match=r"eigenvalue 0\.2 inside the forbidden band"):
        chart_forward(f, g_band, cfg)
    # spectrum splits, but with the wrong number of small eigenvalues
    g_split = _diag_state([0.9, 0.05, 0.05])
    assert in_chart_domain(f, g_split, cfg)
    with pytest.raises(NotInChartDomain, match="leaves 1 large eigenvalues but the center has rank 2"):
        chart_forward(f, g_split, cfg)


def test_chart_domain_refuses_a_point_of_another_algebra():
    # C (+) C and M_2 share their ambient size but not their states: the
    # domain test refuses the pair as chart_forward does, not answers True
    f = _diag_state([0.9, 0.1])
    g = _diag_state([0.89, 0.11], AlgebraDescriptor((1, 1)))
    cfg = chart_config_for(f)
    refusal = "^center and point belong to different algebras$"
    for call in (lambda: in_chart_domain(f, g, cfg), lambda: chart_forward(f, g, cfg)):
        with pytest.raises(ValueError, match=refusal):
            call()


def test_chart_forward_refuses_a_center_of_rank_zero():
    # at tol = 1e300 both eigenvalues of diag(0, 1) count as zero, so the
    # center has no rank; chart_forward refuses it as spectral_gap does
    f = validate_density(np.diag([0.0, 1.0]).astype(complex), full_algebra(2), tol=1e300)
    cfg = chart_config_for(_diag_state([0.0, 1.0]))
    g = _diag_state([0.01, 0.99])
    assert in_chart_domain(f, g, cfg)
    for call in (lambda: spectral_gap(f), lambda: chart_forward(f, g, cfg)):
        with pytest.raises(ValueError, match="declares every eigenvalue of the center zero"):
            call()


def _chart_point_parts():
    # a valid chart point of M_3: a 2-dimensional small subspace, rank one
    eye = np.eye(3, dtype=complex)
    return {
        "frame_kernel": eye[:, :2],
        "frame_range": eye[:, 2:],
        "cone_part": np.diag([0.01, 0.02]).astype(complex),
        "base_part": np.ones((1, 1), dtype=complex),
    }


_TILTED = np.eye(3, 2, dtype=complex)
_TILTED[2, 0] = 1e-6

# one row per refusal of the ChartPoint constructor, in the order it checks:
# the replaced part, the error type and its message
CHART_POINT_REFUSALS = [
    ({"frame_range": np.eye(4, dtype=complex)[:, 3:]}, ValueError,
     "frames do not match the algebra's ambient dimension"),
    ({"frame_kernel": _TILTED}, NotOrthonormal,
     "frame columns are not orthonormal (magnitude 1.000e-06)"),
    ({"frame_kernel": np.eye(3, dtype=complex)[:, :1]}, ValueError,
     "frame widths 1 + 1 must sum to 3"),
    ({"cone_part": np.array([[0.01, 1e-9], [0.0, 0.02]])}, NotHermitian,
     "matrix is not Hermitian (magnitude 1.000e-09)"),
    ({"cone_part": np.diag([np.nan, 0.02])}, NotFinite, "matrix has a NaN or infinite entry"),
    ({"cone_part": np.diag([np.inf, 0.02])}, NotFinite, "matrix has a NaN or infinite entry"),
    ({"cone_part": np.eye(3) / 100}, ValueError, "cone part must be 2 x 2, got (3, 3)"),
    ({"cone_part": np.diag([-1e-11, 0.02])}, ValueError, "cone part must be PSD"),
    ({"base_part": np.array([[1.0 + 1e-9j]])}, NotHermitian,
     "matrix is not Hermitian (magnitude 2.000e-09)"),
    ({"base_part": np.array([[np.nan]])}, NotFinite, "matrix has a NaN or infinite entry"),
    ({"base_part": np.eye(2) / 2}, ValueError, "base part must be 1 x 1, got (2, 2)"),
    ({"base_part": np.zeros((1, 1))}, ValueError, "base part must be positive definite"),
    ({"base_part": np.array([[1.0 + 1e-9]])}, ValueError,
     "base part trace differs from 1 by 1.000e-09"),
]


def test_chart_point_accepts_its_valid_parts():
    p = ChartPoint(alg=M3, **_chart_point_parts())
    assert p.alpha == pytest.approx(0.03, abs=1e-15)


@pytest.mark.parametrize("change, error, message", CHART_POINT_REFUSALS)
def test_chart_point_refusals(change, error, message):
    with pytest.raises(error) as refused:
        ChartPoint(alg=M3, **{**_chart_point_parts(), **change})
    assert type(refused.value) is error
    assert str(refused.value) == message


def test_forbidden_band_fails_closed():
    cfg = ChartConfig(gap_a=0.5, epsilon=0.125, contour_radius=0.25)
    # the band is closed at both edges, and NaN is neither small nor large
    w = np.array([0.0, 0.125 - 1e-12, 0.125, 0.2, 0.375, 0.375 + 1e-12, np.nan])
    assert _in_band(w, cfg).tolist() == [False, False, True, True, True, False, True]


def test_chart_alpha_budget():
    f = _diag_state([0.7, 0.3, 0.0, 0.0, 0.0, 0.0], full_algebra(6))
    cfg = ChartConfig(gap_a=0.3, epsilon=0.14, contour_radius=0.15)
    g = _diag_state([0.2325, 0.2325, 0.135, 0.135, 0.135, 0.13], full_algebra(6))
    assert in_chart_domain(f, g, cfg)
    with pytest.raises(AlphaTooLarge) as err:
        chart_forward(f, g, cfg)
    assert err.value.alpha == pytest.approx(0.535)


def test_chart_roundtrip_off_diagonal():
    rng = np.random.default_rng(40)
    worst = 0.0
    for s in range(25):
        f = sample_rank(4, 2, seed=41, index=s)
        cfg = chart_config_for(f)
        # spectral perturbation: shrink the small part well under epsilon
        w, v = linalg.eigh_fixed(f.matrix)
        small = rng.uniform(0, 0.2 * cfg.epsilon, size=2)
        large = w[2:] * (1 - small.sum())
        g = validate_density(
            (v * np.concatenate([small, large])) @ v.conj().T, f.alg
        )
        p = chart_forward(f, g, cfg)
        back = chart_inverse(p)
        worst = max(worst, linalg.hs_norm(back.matrix - g.matrix))
    assert worst <= 1e-10


def test_chart_equivariance_under_unitaries():
    f = _diag_state([0.5, 0.5, 0.0])
    g = _diag_state([0.49, 0.48, 0.03])
    cfg = chart_config_for(f)
    u = sample_unitary(3, seed=42)
    fu = validate_density(u @ f.matrix @ u.conj().T, M3)
    gu = validate_density(u @ g.matrix @ u.conj().T, M3)
    # the chart data transforms covariantly: alpha is invariant, the
    # round-trip stays exact
    p = chart_forward(f, g, cfg)
    pu = chart_forward(fu, gu, chart_config_for(fu))
    assert pu.alpha == pytest.approx(p.alpha, abs=1e-13)
    npt.assert_allclose(chart_inverse(pu).matrix, gu.matrix, atol=1e-12)


def test_contour_matches_eigen_route():
    rng = np.random.default_rng(43)
    for n in (2, 3, 5):
        w = np.concatenate([rng.uniform(0, 0.1, size=1), rng.uniform(0.4, 1.0, size=n - 1)])
        u = sample_unitary(n, seed=44, index=n)
        g = (u * w) @ u.conj().T
        p_eig, s_eig = small_spectral_projector(g, 0.25)
        p_q, s_q = contour_quadrature(g, 0.25, nodes=64)
        assert linalg.hs_norm(p_q - p_eig) <= 1e-10
        assert linalg.hs_norm(s_q - s_eig) <= 1e-10


def test_eigen_route_is_the_leading_eigenvectors():
    # the pair is built from the k leading columns and eigenvalues of
    # eigh_fixed, bit for bit, k the count below the threshold
    for s in range(200):
        g = _margin_split_stack(2 + s % 5, 0, [s])[0]
        w, v = linalg.eigh_fixed(g)
        k = int(np.count_nonzero(w < 0.25))
        p, part = small_spectral_projector(g, 0.25)
        assert np.array_equal(p, v[:, :k] @ v[:, :k].conj().T)
        assert np.array_equal(part, (v[:, :k] * w[:k]) @ v[:, :k].conj().T)


def test_contour_projector_worked_example():
    g = np.diag([0.5, 0.5, 0.0]).astype(complex)
    p, s = contour_quadrature(g, 0.25, nodes=64)
    npt.assert_allclose(p, np.diag([0.0, 0.0, 1.0]), atol=1e-10)
    npt.assert_allclose(s, np.zeros((3, 3)), atol=1e-10)


def test_contour_scalar_error_is_geometric():
    # trapezoid quadrature of the resolvent has an exact geometric error for
    # a 1x1 matrix: w^N / (1 - w^N) with w the eigenvalue/radius ratio
    r, nodes = 0.25, 16
    lam_in = 0.1
    p, _ = contour_quadrature(np.array([[lam_in]]), r, nodes=nodes)
    w = (lam_in / r) ** nodes
    npt.assert_allclose(p[0, 0] - 1.0, w / (1.0 - w), rtol=1e-9)
    lam_out = 0.6
    p, _ = contour_quadrature(np.array([[lam_out]]), r, nodes=nodes)
    v = (r / lam_out) ** nodes
    npt.assert_allclose(p[0, 0], -v / (1.0 - v), rtol=1e-9)


def test_contour_node_halving_gains_accuracy():
    rng = np.random.default_rng(45)
    ratios = []
    for s in range(20):
        w = np.concatenate([rng.uniform(0, 0.15, size=2), rng.uniform(0.4, 1.0, size=2)])
        u = sample_unitary(4, seed=46, index=s)
        g = (u * w) @ u.conj().T
        p_eig = small_spectral_projector(g, 0.25)[0]
        e32 = linalg.hs_norm(contour_quadrature(g, 0.25, nodes=32)[0] - p_eig)
        e64 = linalg.hs_norm(contour_quadrature(g, 0.25, nodes=64)[0] - p_eig)
        ratios.append(e32 / max(e64, 1e-16))
    assert np.median(ratios) >= 10.0


def test_contour_guard():
    g = np.diag([0.25, 0.9]).astype(complex)
    with pytest.raises(EigenvalueOnContour):
        contour_quadrature(g, 0.25, nodes=32)
    with pytest.raises(EigenvalueOnContour):
        small_spectral_projector(np.diag([0.2501, 0.9]).astype(complex), 0.25)
    with pytest.raises(ValueError):
        contour_quadrature(np.diag([0.1, 0.9]).astype(complex), 0.25, nodes=2)


def _loop_quadrature(g, radius, nodes, times_z):
    # one inverse per node, accumulated in node order: the reference the
    # stacked quadrature must reproduce bit for bit
    g = linalg.as_hermitian(np.asarray(g, dtype=complex))
    n = g.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for t in 2.0 * np.pi * np.arange(nodes) / nodes:
        z = radius * np.exp(1j * t)
        weight = np.exp(1j * t) * z if times_z else np.exp(1j * t)
        acc += weight * np.linalg.inv(z * eye - g)
    return linalg.hermitian_part(acc * (radius / nodes))


def test_contour_quadrature_matches_node_loops():
    rng = np.random.default_rng(47)
    for n in range(1, 7):
        for nodes in (4, 16, 17, 32, 64):
            for s in range(10):
                n_small = 1 + s % n
                w = np.concatenate([rng.uniform(0, 0.2, size=n_small),
                                    rng.uniform(0.3, 1.0, size=n - n_small)])
                u = sample_unitary(n, seed=48, index=s) if n > 1 else np.eye(1)
                g = (u * w) @ u.conj().T
                p, part = contour_quadrature(g, 0.25, nodes=nodes)
                assert np.array_equal(p, _loop_quadrature(g, 0.25, nodes, times_z=False))
                assert np.array_equal(part, _loop_quadrature(g, 0.25, nodes, times_z=True))


def _a2_stacks():
    # the 500 samples of the projector-equiv suite at seed 0, one stack per n
    return [_margin_split_stack(n, 0, range(n - 2, 500, 5)) for n in range(2, 7)]


def test_stack_forms_are_the_per_matrix_calls():
    for g in _a2_stacks():
        projectors, parts = small_spectral_projector_stack(g, 0.25)
        (p64, s64), (p32, s32) = contour_quadrature_stack(g, 0.25, 64, steps=(1, 2))
        ((p17, s17),) = contour_quadrature_stack(g, 0.25, 17)
        for b in range(len(g)):
            p, part = small_spectral_projector(g[b], 0.25)
            assert np.array_equal(projectors[b], p) and np.array_equal(parts[b], part)
            for nodes, p_c, s_c in ((64, p64, s64), (32, p32, s32), (17, p17, s17)):
                p, part = contour_quadrature(g[b], 0.25, nodes)
                assert np.array_equal(p_c[b], p) and np.array_equal(s_c[b], part)
            assert np.array_equal(p64[b], _loop_quadrature(g[b], 0.25, 64, times_z=False))
            assert np.array_equal(s64[b], _loop_quadrature(g[b], 0.25, 64, times_z=True))


def test_even_node_slice_is_the_halved_rule():
    # 2 pi 2k / 64 and 2 pi k / 32 are equal doubles, so every other node of
    # the 64-node resolvents is the 32-node rule, bit for bit
    for g in _a2_stacks():
        (p_half, s_half), _ = contour_quadrature_stack(g, 0.25, 64, steps=(2, 1))
        ((p32, s32),) = contour_quadrature_stack(g, 0.25, 32)
        assert np.array_equal(p_half, p32) and np.array_equal(s_half, s32)
    with pytest.raises(ValueError, match="divided by every step"):
        contour_quadrature_stack(_a2_stacks()[0], 0.25, 17, steps=(2,))


@pytest.mark.parametrize("k", (1, 3, 5))
def test_stack_refusal_names_the_first_refused_item(k):
    # items k and 6 fail both guards; the stack raises item k's own error
    g = np.stack([np.diag([0.1, 0.6, 0.9]).astype(complex)] * 8)
    g[k] = np.diag([0.1, 0.2501, 0.9])
    g[6] = np.diag([0.1, 0.2498, 0.9])
    for stack_call, call in (
        (lambda m: small_spectral_projector_stack(m, 0.25),
         lambda m: small_spectral_projector(m, 0.25)),
        (lambda m: contour_quadrature_stack(m, 0.25, 32),
         lambda m: contour_quadrature(m, 0.25, 32)),
    ):
        with pytest.raises(EigenvalueOnContour) as item_error:
            call(g[k])
        with pytest.raises(EigenvalueOnContour) as stack_error:
            stack_call(g)
        assert str(stack_error.value) == str(item_error.value)


def test_chart_respects_block_structure():
    alg = AlgebraDescriptor((1, 2))
    f = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex), alg)
    g = validate_density(np.diag([0.49, 0.49, 0.02]).astype(complex), alg)
    u = sample_block_unitary(alg, seed=47)
    gu = validate_density(u @ g.matrix @ u.conj().T, alg)
    p = chart_forward(f, gu, chart_config_for(f))
    back = chart_inverse(p)
    npt.assert_allclose(back.matrix, gu.matrix, atol=1e-12)
    assert linalg.off_block_magnitude(back.matrix, alg.block_sizes) <= 1e-14
