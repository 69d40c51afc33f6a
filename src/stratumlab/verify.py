"""Randomized verification suites behind `stratumlab verify`.

Each suite returns a JSON-serializable dict: the parameters it ran with, the
per-check details, and a single "passed" verdict. The acceptance tests run
the same code at their mandated sample counts. The CLI passes a suite only
the options its row of cli._TAKES lists; every other threshold is a module
constant.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .charts import contour_quadrature
from .joins import JOIN_RANK_NOTE, _join_stack, _split_stack, convex_split, join_piece_label
from .joins import join_state, make_join_point, rank_of_join
from .orbits import isotropy_dim, orbit_dim_stack, orbit_signature_stack
from .sampler import SEQUENCE_LENGTH, SEQUENCE_RATE, _algebra_stack, _hs_stack, _rng
from .sampler import sample_rank, sample_unitary
from .states import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    _validated_states,
    cone_state,
    full_algebra,
    maximally_mixed,
    validate_density,
    validate_stack,
)
from .strata import classify
from .whitney import GAP_THRESHOLD, frontier_matrix, whitney_b_estimate
from .whitney import whitney_negative_control

CONTOUR_RADIUS = 0.25
SMALL_BAND = 0.15
LARGE_BAND = (0.4, 1.0)
# least fitted log-log decay rate of a passing Whitney row
MIN_SLOPE = 0.4


def _require_at_least(least: int, **sizes: int) -> None:
    """Refuse sizes that would leave a suite without a single check, so that
    no verdict passes vacuously."""
    for name, value in sizes.items():
        if not value >= least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _margin_split_sample(n: int, seed: int, index: int):
    """Hermitian matrix whose spectrum splits across the contour with a
    comfortable margin: small eigenvalues in [0, 0.15], large in [0.4, 1]."""
    rng = _rng(seed, 8, index)
    n_small = 1 + index % (n - 1)
    small = rng.random(n_small) * SMALL_BAND
    large = LARGE_BAND[0] + rng.random(n - n_small) * (LARGE_BAND[1] - LARGE_BAND[0])
    w = np.concatenate([small, large])
    u = sample_unitary(n, seed, 3000 + index)
    return u @ np.diag(w) @ u.conj().T, n_small


def suite_projector_equiv(samples: int = 300, seed: int = 0, nodes: int = 64) -> dict:
    """Spectral projector route equivalence: eigendecomposition vs contour
    quadrature, plus the halved-node convergence comparison."""
    _require_at_least(1, samples=samples)
    err_proj = np.zeros((samples, 2))
    err_part = np.zeros((samples, 2))
    halved = max(nodes // 2, 4)
    for s in range(samples):
        n = 2 + s % 5
        g, n_small = _margin_split_sample(n, seed, s)
        w, v = linalg.eigh_fixed(g)
        small_v = v[:, :n_small]
        p_eig = small_v @ small_v.conj().T
        part_eig = (small_v * w[:n_small]) @ small_v.conj().T
        for c, node_count in enumerate((halved, nodes)):
            p_c, s_c = contour_quadrature(g, CONTOUR_RADIUS, node_count)
            err_proj[s, c] = linalg.hs_norm(p_c - p_eig)
            err_part[s, c] = linalg.hs_norm(s_c - part_eig)
    floor = 1e-16
    ratio_proj = float(np.median(err_proj[:, 0]) / max(np.median(err_proj[:, 1]), floor))
    ratio_part = float(np.median(err_part[:, 0]) / max(np.median(err_part[:, 1]), floor))
    max_err = float(max(err_proj[:, 1].max(), err_part[:, 1].max()))
    passed = bool(max_err <= 1e-8 and ratio_proj >= 10.0 and ratio_part >= 10.0)
    return {
        "suite": "projector-equiv",
        "samples": samples,
        "seed": seed,
        "nodes": nodes,
        "halved_nodes": halved,
        "contour_radius": CONTOUR_RADIUS,
        "max_error_full_nodes": max_err,
        "median_error_halved_projector": float(np.median(err_proj[:, 0])),
        "median_error_full_projector": float(np.median(err_proj[:, 1])),
        "error_ratio_projector": ratio_proj,
        "error_ratio_small_part": ratio_part,
        "passed": passed,
    }


def suite_whitney(max_dim: int = 3, trials: int = 10, seed: int = 0) -> dict:
    """Whitney (B) gap decay for every stratum pair i < j up to max_dim,
    with the random-plane negative control."""
    _require_at_least(2, max_dim=max_dim)
    _require_at_least(1, trials=trials)
    rows = []
    all_ok = True
    for n in range(2, max_dim + 1):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                y = sample_rank(n, i, seed, index=n * 100 + i * 10 + j)
                rep = whitney_b_estimate(y, j, trials=trials, seed=seed)
                control = whitney_negative_control(rep.terminal_pairs, seed=seed)
                slope_ok = rep.slope >= MIN_SLOPE
                row_ok = bool(rep.passed and slope_ok and control["fraction_failed"] >= 0.95)
                all_ok = all_ok and row_ok
                rows.append(
                    {
                        "n": n,
                        "base_rank": i,
                        "target_rank": j,
                        "terminal_distance": rep.terminal_distance,
                        "terminal_gap": rep.terminal_gap,
                        "terminal_gap_fixed_base": rep.terminal_gap_fixed_base,
                        # infinite slope means the fit was skipped (open
                        # target stratum or all gaps under the floor)
                        "slope": rep.slope if np.isfinite(rep.slope) else None,
                        "control_fraction_failed": control["fraction_failed"],
                        "passed": row_ok,
                    }
                )
    return {
        "suite": "whitney",
        "max_dim": max_dim,
        "trials": trials,
        "seed": seed,
        "rate": SEQUENCE_RATE,
        "length": SEQUENCE_LENGTH,
        "gap_threshold": GAP_THRESHOLD,
        "min_slope": MIN_SLOPE,
        "pairs": rows,
        "passed": all_ok,
    }


DEFAULT_FRONTIER_ALGEBRAS = ((1,), (2,), (3,), (4,), (1, 2), (1, 1, 1, 1))


def suite_frontier(samples: int = 10, seed: int = 0, algebras=DEFAULT_FRONTIER_ALGEBRAS) -> dict:
    """Reachability matrix vs componentwise rank order for each algebra."""
    _require_at_least(1, samples=samples)
    tables = []
    all_ok = True
    for sizes in algebras:
        table = frontier_matrix(AlgebraDescriptor(tuple(sizes)), samples=samples, seed=seed)
        all_ok = all_ok and table["equal"]
        tables.append(table)
    return {
        "suite": "frontier",
        "samples": samples,
        "seed": seed,
        "algebras": [list(a) for a in algebras],
        "tables": tables,
        "passed": all_ok,
    }


EXPECTED_TETRAHEDRON_PIECES = {
    "R1": 1,
    "R2": 2,
    "S1": 1,
    "S2": 2,
    "R1xS1xI": 2,
    "R1xS2xI": 3,
    "R2xS1xI": 3,
    "R2xS2xI": 4,
}


def _tetrahedron_piece_census(seed: int, samples: int) -> dict:
    """Visit every piece of the join decomposition of C^2 (+) C^2 (the solid
    tetrahedron) and record the computed rank of each."""
    alg = AlgebraDescriptor((1, 1, 1, 1))
    split = (2, 2)
    two = AlgebraDescriptor((1, 1))

    def point(p1, p2):
        return validate_density(np.diag([p1, p2]).astype(complex), two)

    factor_states = {1: point(1.0, 0.0), 2: point(0.7, 0.3)}
    seen: dict[str, int] = {}

    def visit(weights, comps):
        p = make_join_point(alg, weights, comps, split=split)
        lab = join_piece_label(p)
        rank = rank_of_join(p)
        prev = seen.setdefault(lab.piece_name, rank)
        if prev != rank:
            raise AssertionError(f"piece {lab.piece_name} visited with ranks {prev} and {rank}")

    for r in (1, 2):
        visit((1.0, 0.0), (factor_states[r], None))
        visit((0.0, 1.0), (None, factor_states[r]))
        for s in (1, 2):
            visit((0.6, 0.4), (factor_states[r], factor_states[s]))
    # random interior samples all land in a known piece
    hs = validate_stack(_algebra_stack(alg, seed, None, range(5000, 5000 + samples), 0), alg)
    for rho in _validated_states(hs, alg, DEFAULT_TOL):
        lab = join_piece_label(convex_split(rho, split=split))
        if lab.piece_name not in EXPECTED_TETRAHEDRON_PIECES:
            raise AssertionError(f"sample landed in unknown piece {lab.piece_name}")
    return seen


def suite_join(samples: int = 200, seed: int = 0) -> dict:
    """Join round-trips, endpoint collapse, and the tetrahedron piece table."""
    _require_at_least(1, samples=samples)
    cases = (
        ((1, 2), (1, 1)),
        ((1, 1, 1, 1), (2, 2)),
        ((2, 3), (1, 1)),
    )
    max_err = 0.0
    for sizes, split in cases:
        alg = AlgebraDescriptor(sizes)
        rhos = validate_stack(_algebra_stack(alg, seed, None, range(samples), 0), alg)
        weights, comps, _ = _split_stack(rhos, alg, split)
        back = _join_stack(weights, comps, alg)
        max_err = max(max_err, linalg.hs_norm(back - rhos).max())
    # endpoint collapse: at weight zero the second component is dropped, so
    # two different fillers give byte-identical assembled states
    alg = AlgebraDescriptor((1, 1, 1, 1))
    split = (2, 2)
    two = AlgebraDescriptor((1, 1))
    phi1 = validate_density(np.diag([0.4, 0.6]).astype(complex), two)
    fill_a = validate_density(np.diag([1.0, 0.0]).astype(complex), two)
    fill_b = validate_density(np.diag([0.2, 0.8]).astype(complex), two)
    left = join_state(make_join_point(alg, (1.0, 0.0), (phi1, fill_a), split=split))
    right = join_state(make_join_point(alg, (1.0, 0.0), (phi1, fill_b), split=split))
    collapse_exact = bool(np.array_equal(left.matrix, right.matrix))
    pieces = _tetrahedron_piece_census(seed, samples=min(samples, 200))
    pieces_ok = pieces == EXPECTED_TETRAHEDRON_PIECES
    passed = bool(max_err <= 1e-10 and collapse_exact and pieces_ok)
    return {
        "suite": "join",
        "samples": samples,
        "seed": seed,
        "round_trip_max_error": max_err,
        "endpoint_collapse_exact": collapse_exact,
        "piece_count": len(pieces),
        "piece_ranks": dict(sorted(pieces.items())),
        "note": JOIN_RANK_NOTE,
        "passed": passed,
    }


def suite_orbit_census(draws: int = 2000, seed: int = 0, cluster_tol: float = 1e-8) -> dict:
    """Signature census with stabilizer/orbit dimension consistency on M_2
    and on C (+) M_2.

    The draws are the matrices of sample_hs / sample_algebra (same streams),
    validated, classified and measured as one stack per algebra.
    """
    _require_at_least(1, draws=draws)
    reports = []
    all_ok = True

    def census(alg, draw, constructed, generic_signature):
        # the draws, then the constructed states (which validate unchanged);
        # the raw stacks are not kept past validation
        hs = validate_stack(np.concatenate([draw(), [c.matrix for c in constructed]]), alg)
        sigs = orbit_signature_stack(hs, alg, cluster_tol)
        dims = orbit_dim_stack(hs, alg).tolist()
        dim_u = alg.unitary_group_dim
        counts: dict = {}
        for sig in sigs:
            counts[sig.per_block] = counts.get(sig.per_block, 0) + 1
        consistent = all(d + isotropy_dim(sig) == dim_u for sig, d in zip(sigs, dims))
        generic_fraction = counts.get(generic_signature, 0) / draws
        return counts, consistent, generic_fraction, dims

    m2 = full_algebra(2)
    counts, consistent, generic_fraction, dims = census(
        m2, lambda: _hs_stack(2, seed, range(draws)), [maximally_mixed(m2)], ((1, 1),)
    )
    generic_orbit_dims = set(dims[: min(draws, 50)])
    m2_ok = bool(
        set(counts) == {((1, 1),), ((2,),)}
        and consistent
        and generic_fraction >= 0.999
        and generic_orbit_dims == {2}
    )
    all_ok = all_ok and m2_ok
    reports.append(
        {
            "alg": [2],
            "signatures": {str(list(map(list, k))): v for k, v in sorted(counts.items())},
            "distinct": len(counts),
            "dimension_identity_holds": consistent,
            "generic_fraction": generic_fraction,
            "generic_orbit_dim": sorted(generic_orbit_dims),
            "passed": m2_ok,
        }
    )

    cm2 = AlgebraDescriptor((1, 2))
    cm2_constructed = [maximally_mixed(cm2), cone_state(0.5, (0.0, 0.0, 0.0))]
    counts, consistent, generic_fraction, _ = census(
        cm2, lambda: _algebra_stack(cm2, seed, None, range(draws), 0), cm2_constructed,
        ((1,), (1, 1)),
    )
    cm2_ok = bool(
        set(counts) == {((1,), (1, 1)), ((1,), (2,))}
        and consistent
        and generic_fraction >= 0.999
    )
    all_ok = all_ok and cm2_ok
    reports.append(
        {
            "alg": [1, 2],
            "signatures": {str(list(map(list, k))): v for k, v in sorted(counts.items())},
            "distinct": len(counts),
            "dimension_identity_holds": consistent,
            "generic_fraction": generic_fraction,
            "passed": cm2_ok,
        }
    )
    return {
        "suite": "orbit-census",
        "draws": draws,
        "seed": seed,
        "cluster_tol": cluster_tol,
        "censuses": reports,
        "passed": all_ok,
    }


SUITES = {
    "whitney": suite_whitney,
    "frontier": suite_frontier,
    "join": suite_join,
    "orbit-census": suite_orbit_census,
    "projector-equiv": suite_projector_equiv,
}
