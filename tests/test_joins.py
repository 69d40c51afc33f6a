import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import (
    JOIN_RANK_NOTE,
    AlgebraDescriptor,
    JoinPoint,
    convex_split,
    join_piece_label,
    join_state,
    linalg,
    make_join_point,
    numerical_rank,
    rank_of_join,
    sample_algebra,
    summand_algebras,
    validate_density,
)

TWO_LINES = AlgebraDescriptor((1, 1))
TETRA = AlgebraDescriptor((1, 1, 1, 1))
CONE = AlgebraDescriptor((1, 2))


def _diag_state(entries, alg):
    return validate_density(np.diag(np.asarray(entries, dtype=float)).astype(complex), alg)


def test_summand_algebras():
    subs = summand_algebras(CONE, (1, 1))
    assert [s.block_sizes for s in subs] == [(1,), (2,)]
    subs = summand_algebras(TETRA, (2, 2))
    assert [s.block_sizes for s in subs] == [(1, 1), (1, 1)]
    with pytest.raises(ValueError):
        summand_algebras(CONE, (1, 2))  # splits must cover the blocks exactly


def test_convex_split_weights_are_block_traces():
    rho = _diag_state([0.3, 0.35, 0.35], CONE)
    p = convex_split(rho)
    assert p.weights == pytest.approx((0.3, 0.7))
    npt.assert_allclose(p.components[0].matrix, [[1.0]])
    npt.assert_allclose(p.components[1].matrix, np.diag([0.5, 0.5]))
    back = join_state(p)
    npt.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_roundtrip_random():
    worst = 0.0
    for alg, split in ((CONE, (1, 1)), (TETRA, (2, 2)), (AlgebraDescriptor((2, 3)), (1, 1))):
        for s in range(60):
            rho = sample_algebra(alg, seed=70, index=s)
            p = convex_split(rho, split=split)
            back = join_state(p)
            worst = max(worst, linalg.hs_norm(back.matrix - rho.matrix))
    assert worst <= 1e-10


def test_join_point_validation():
    phi = _diag_state([1.0], AlgebraDescriptor((1,)))
    sigma = _diag_state([0.5, 0.5], AlgebraDescriptor((2,)))
    p = JoinPoint(alg=CONE, split=(1, 1), weights=(0.25, 0.75), components=(phi, sigma))
    assert p.num_summands == 2
    assert p.support == (True, True)
    with pytest.raises(ValueError):
        JoinPoint(alg=CONE, split=(1, 1), weights=(0.5, 0.6), components=(phi, sigma))
    with pytest.raises(ValueError):
        JoinPoint(alg=CONE, split=(1, 1), weights=(1.0, 0.0), components=(phi, sigma))
    with pytest.raises(ValueError):
        JoinPoint(alg=CONE, split=(1, 1), weights=(0.5, 0.5), components=(sigma, phi))


@pytest.mark.parametrize("weights", ((float("nan"), 0.5), (0.5, float("nan")), (float("nan"),) * 2))
def test_join_point_refuses_a_nan_weight(weights):
    phi = _diag_state([0.5, 0.5], TWO_LINES)
    with pytest.raises(ValueError):
        make_join_point(TETRA, weights, (phi, phi), split=(2, 2))
    with pytest.raises(ValueError):
        JoinPoint(alg=TETRA, split=(2, 2), weights=weights, components=(phi, phi))


def test_endpoint_collapse_is_exact():
    two = AlgebraDescriptor((1, 1))
    phi = _diag_state([0.4, 0.6], two)
    filler_a = _diag_state([1.0, 0.0], two)
    filler_b = _diag_state([0.1, 0.9], two)
    pa = make_join_point(TETRA, (1.0, 0.0), (phi, filler_a), split=(2, 2))
    pb = make_join_point(TETRA, (1.0, 0.0), (phi, filler_b), split=(2, 2))
    assert pa.components[1] is None and pb.components[1] is None
    assert np.array_equal(join_state(pa).matrix, join_state(pb).matrix)
    # tiny weights below the drop tolerance collapse too
    pc = make_join_point(TETRA, (1.0 - 1e-13, 1e-13), (phi, filler_a), split=(2, 2))
    assert pc.components[1] is None
    assert pc.weights[1] == 0.0
    assert pc.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_piece_labels_two_summands():
    two = AlgebraDescriptor((1, 1))
    r1 = _diag_state([1.0, 0.0], two)
    r2 = _diag_state([0.6, 0.4], two)

    def piece(weights, comps):
        return join_piece_label(make_join_point(TETRA, weights, comps, split=(2, 2))).piece_name

    assert piece((1.0, 0.0), (r1, None)) == "R1"
    assert piece((1.0, 0.0), (r2, None)) == "R2"
    assert piece((0.0, 1.0), (None, r1)) == "S1"
    assert piece((0.0, 1.0), (None, r2)) == "S2"
    assert piece((0.5, 0.5), (r1, r1)) == "R1xS1xI"
    assert piece((0.25, 0.75), (r2, r1)) == "R2xS1xI"
    assert piece((0.6, 0.4), (r2, r2)) == "R2xS2xI"


def test_piece_label_many_summands():
    three = AlgebraDescriptor((1, 1, 1))
    one = AlgebraDescriptor((1,))
    point = _diag_state([1.0], one)
    p = make_join_point(three, (0.5, 0.0, 0.5), (point, None, point), split=(1, 1, 1))
    lab = join_piece_label(p)
    assert lab.support == (True, False, True)
    assert lab.piece_name == "J[0:r1+2:r1]"


def test_rank_of_join_matches_eigen_oracle():
    cases = [
        ([0.3, 0.2, 0.3, 0.2], "R2xS2xI", 4),
        ([0.6, 0.0, 0.4, 0.0], "R1xS1xI", 2),
        ([0.5, 0.0, 0.3, 0.2], "R1xS2xI", 3),
        ([0.25, 0.25, 0.5, 0.0], "R2xS1xI", 3),
        ([1.0, 0.0, 0.0, 0.0], "R1", 1),
        ([0.0, 0.0, 0.5, 0.5], "S2", 2),
    ]
    for entries, name, rank in cases:
        rho = _diag_state(entries, TETRA)
        p = convex_split(rho, split=(2, 2))
        lab = join_piece_label(p)
        assert lab.piece_name == name
        assert rank_of_join(p) == rank
        assert numerical_rank(rho) == rank


def test_join_rank_note_states_interior_rank():
    assert "rank" in JOIN_RANK_NOTE
    assert "R2xS2xI" in JOIN_RANK_NOTE and "4" in JOIN_RANK_NOTE


def test_split_affects_summand_count():
    rho = _diag_state([0.1, 0.2, 0.3, 0.4], TETRA)
    p_default = convex_split(rho)
    assert p_default.num_summands == 4
    p_pairs = convex_split(rho, split=(2, 2))
    assert p_pairs.num_summands == 2
    npt.assert_allclose(join_state(p_default).matrix, join_state(p_pairs).matrix, atol=1e-15)
