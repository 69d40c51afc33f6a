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
from .charts import MIN_NODES, contour_quadrature_stack, small_spectral_projector_stack
from .errors import EigenvalueOnContour
from .joins import JOIN_RANK_NOTE, _join_stack, _piece_name, _split_stack, convex_split
from .joins import join_piece_label, join_state, make_join_point
from .orbits import DEFAULT_CLUSTER_TOL, _clusters, _type_counts, isotropy_dim, orbit_dim_stack
from .sampler import SEQUENCE_LENGTH, SEQUENCE_RATE, _hs_stack, _resampled_stack
from .sampler import sample_rank
from .states import DEFAULT_TOL, AlgebraDescriptor, _validated_stack, cone_matrix, full_algebra
from .states import validate_density
from .strata import _stack_decision
from .streams import STREAM_CHUNK_ROWS, _path_table, _uniform_rows, _unitary_stack
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


def _margin_split_stack(n: int, seed: int, indices) -> np.ndarray:
    """The (B, n, n) Hermitian matrices, one per sample index, whose spectra
    split across the contour with a comfortable margin: 1 + index % (n - 1)
    small eigenvalues in [0, 0.15], the others large in [0.4, 1]."""
    u = _uniform_rows(seed, _path_table((8, 0, 1), indices), n)
    small = np.arange(n) < 1 + np.array(indices)[:, None] % (n - 1)
    w = np.where(small, u * SMALL_BAND, LARGE_BAND[0] + u * (LARGE_BAND[1] - LARGE_BAND[0]))
    v = _unitary_stack(_uniform_rows(seed, _path_table((2, 3000, 1), indices), 2 * n * n), n)
    return v @ (w[:, :, None] * np.eye(n)) @ v.conj().swapaxes(1, 2)


def _median(x: np.ndarray):
    """np.median of a 1-D array, bit for bit (NaN if any entry is), without
    its check for masked arrays, which loads numpy.ma."""
    x = np.sort(x)
    half = len(x) // 2
    if np.isnan(x[-1]):  # sorted last
        return x[-1]
    return x[half] if len(x) % 2 else (x[half - 1] + x[half]) / 2


def suite_projector_equiv(samples: int = 300, seed: int = 0, nodes: int = 64) -> dict:
    """Spectral projector route equivalence: eigendecomposition vs contour
    quadrature and the halved-node convergence, one stack per dimension."""
    _require_at_least(1, samples=samples)
    _require_at_least(MIN_NODES, nodes=nodes)
    err_proj, err_part = np.zeros((2, samples, 2))
    # an even count's halved rule is every other node: one set of resolvents
    rules = [(nodes, (2, 1))] if nodes % 2 == 0 else [(nodes // 2, (1,)), (nodes, (1,))]
    try:
        for n in range(2, 2 + min(samples, 5)):
            rows = range(n - 2, samples, 5)
            g = _margin_split_stack(n, seed, rows)
            p_eig, part_eig = small_spectral_projector_stack(g, CONTOUR_RADIUS)
            pairs = sum((contour_quadrature_stack(g, CONTOUR_RADIUS, *rule) for rule in rules), [])
            for c, (p_c, s_c) in enumerate(pairs):
                err_proj[rows, c] = linalg.hs_norm(p_c - p_eig)
                err_part[rows, c] = linalg.hs_norm(s_c - part_eig)
    except EigenvalueOnContour:
        # raise what a sample-by-sample run meets first: lowest s, eigen route first
        for s in range(samples):
            g = _margin_split_stack(2 + s % 5, seed, [s])
            small_spectral_projector_stack(g, CONTOUR_RADIUS)
            contour_quadrature_stack(g, CONTOUR_RADIUS, nodes)
        raise
    floor = 1e-16
    halved_proj, full_proj = map(_median, err_proj.T)
    halved_part, full_part = map(_median, err_part.T)
    ratio_proj = float(halved_proj / max(full_proj, floor))
    ratio_part = float(halved_part / max(full_part, floor))
    max_err = float(max(err_proj[:, 1].max(), err_part[:, 1].max()))
    passed = bool(max_err <= 1e-8 and ratio_proj >= 10.0 and ratio_part >= 10.0)
    return {
        "suite": "projector-equiv",
        "samples": samples,
        "seed": seed,
        "nodes": nodes,
        "halved_nodes": nodes // 2,
        "contour_radius": CONTOUR_RADIUS,
        "max_error_full_nodes": max_err,
        "median_error_halved_projector": float(halved_proj),
        "median_error_full_projector": float(full_proj),
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


# the solid tetrahedron C^2 (+) C^2, and its split into two summands C (+) C
TETRAHEDRON, TETRAHEDRON_SPLIT = AlgebraDescriptor((1, 1, 1, 1)), (2, 2)


def _edge_state(p1: float, p2: float):
    """The diagonal state (p1, p2) of a summand C (+) C of the tetrahedron."""
    return validate_density(np.diag([p1, p2]).astype(complex), AlgebraDescriptor((1, 1)))


def _tetrahedron_piece_census(seed: int, samples: int) -> dict:
    """Visit every piece of the join decomposition of the solid tetrahedron
    and record the computed rank of each."""
    phi = {1: _edge_state(1.0, 0.0), 2: _edge_state(0.7, 0.3)}
    points = [((1.0, 0.0), (phi[r], None)) for r in (1, 2)]
    points += [((0.0, 1.0), (None, phi[r])) for r in (1, 2)]
    points += [((0.6, 0.4), (phi[r], phi[s])) for r in (1, 2) for s in (1, 2)]
    made = (make_join_point(TETRAHEDRON, w, c, split=TETRAHEDRON_SPLIT) for w, c in points)
    seen = {lab.piece_name: sum(lab.factor_ranks) for lab in map(join_piece_label, made)}
    # random interior samples all land in a known piece
    stack = _resampled_stack(TETRAHEDRON, seed, None, (4,), range(5000, 5000 + samples))
    names, _ = _tetrahedron_pieces(stack.hs)
    bad = [b for b, name in enumerate(names) if name not in EXPECTED_TETRAHEDRON_PIECES]
    # the first bad sample alone: an undecided rank raises AmbiguousRank here
    for rho in stack[bad[:1]].states():
        lab = join_piece_label(convex_split(rho, split=TETRAHEDRON_SPLIT))
        raise AssertionError(f"sample landed in unknown piece {lab.piece_name}")
    return seen


def _tetrahedron_pieces(hs: np.ndarray) -> tuple[list, np.ndarray]:
    """join_piece_label(convex_split(rho, TETRAHEDRON_SPLIT)) of each state of
    a validated tetrahedron stack, from one split and one rank decision per
    summand: piece names (None: a rank undecided), (B, 2) ranks (0: absent)."""
    weights, comps = _split_stack(hs, TETRAHEDRON, TETRAHEDRON_SPLIT)
    ranks, undecided = np.zeros(weights.shape, dtype=int), np.zeros(len(hs), dtype=bool)
    for j, comp in enumerate(comps):
        keep = weights[:, j] > 0.0
        per_block, gray = _stack_decision(comp.spectra, comp.tol[:, None, None])
        ranks[keep, j] = per_block.sum(axis=1)
        undecided[keep] |= ~np.isnan(gray).all(axis=(1, 2))
    rows = zip(undecided.tolist(), map(tuple, (weights > 0.0).tolist()), ranks.tolist())
    return [None if u else _piece_name(s, tuple(np.compress(s, r))) for u, s, r in rows], ranks


def suite_join(samples: int = 200, seed: int = 0) -> dict:
    """Join round-trips, endpoint collapse, and the tetrahedron piece table."""
    _require_at_least(1, samples=samples)
    cases = (((1, 2), (1, 1)), ((1, 1, 1, 1), (2, 2)), ((2, 3), (1, 1)))
    max_err = 0.0
    for sizes, split in cases:
        alg = AlgebraDescriptor(sizes)
        rhos = _resampled_stack(alg, seed, None, (4,), range(samples)).hs
        weights, comps = _split_stack(rhos, alg, split)
        back = _join_stack(weights, [comp.hs for comp in comps], alg).hs
        max_err = max(max_err, linalg.hs_norm(back - rhos).max())
    # endpoint collapse: at weight zero the second component is dropped, so
    # two different fillers give byte-identical assembled states
    phi1, fill_a, fill_b = _edge_state(0.4, 0.6), _edge_state(1.0, 0.0), _edge_state(0.2, 0.8)
    left = make_join_point(TETRAHEDRON, (1.0, 0.0), (phi1, fill_a), split=TETRAHEDRON_SPLIT)
    right = make_join_point(TETRAHEDRON, (1.0, 0.0), (phi1, fill_b), split=TETRAHEDRON_SPLIT)
    collapse_exact = bool(np.array_equal(join_state(left).matrix, join_state(right).matrix))
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


def suite_orbit_census(
    draws: int = 2000, seed: int = 0, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> dict:
    """Signature census with stabilizer/orbit dimension consistency on M_2
    and on C (+) M_2.

    The draws are the matrices of sample_hs / sample_algebra (same streams).
    Each chunk of STREAM_CHUNK_ROWS indices is drawn, validated, given
    signatures (from validation's spectra on M_2) and orbit dimensions as one
    stack, and the constructed states join the last chunk. Every row's
    results are those of a whole-stack pass, and the memory is bounded by
    one chunk whatever the number of draws.
    """
    _require_at_least(1, draws=draws)
    m2, cm2 = full_algebra(2), AlgebraDescriptor((1, 2))
    # algebra, validated draw of some indices, the constructed states (the
    # maximally mixed state, and a cone state), generic and other signature,
    # and the orbit dimension the first 50 draws share (None: unchecked)
    table = (
        (m2, lambda indices: _validated_stack(_hs_stack(2, seed, indices), m2, DEFAULT_TOL),
         _validated_stack([np.eye(2) / 2], m2, DEFAULT_TOL), ((1, 1),), ((2,),), 2),
        (cm2, lambda indices: _resampled_stack(cm2, seed, None, (4,), indices),
         _validated_stack([np.eye(3) / 3, cone_matrix(0.5, (0.0, 0.0, 0.0))], cm2, DEFAULT_TOL),
         ((1,), (1, 1)), ((1,), (2,)), None),
    )
    reports = []
    for alg, draw, constructed, generic, other, generic_dim in table:
        counts, pairs = {}, set()
        for start in range(0, draws, STREAM_CHUNK_ROWS):
            indices = range(start, min(start + STREAM_CHUNK_ROWS, draws))
            stack = draw(indices)
            hs, spectra = stack.hs, stack.spectra
            if indices.stop == draws:
                hs = np.concatenate([hs, constructed.hs])
                spectra = [np.concatenate(pair) for pair in zip(spectra, constructed.spectra)]
            codes, sigs = _clusters(spectra, alg, cluster_tol)
            dims = orbit_dim_stack(hs, alg)
            if not start:
                first_dims = dims[: min(draws, 50)].tolist()
            # the few distinct (signature, dimension) pairs and their rows
            for (sig, d), rows in _type_counts(codes, sigs, dims, alg).items():
                counts[sig.per_block] = counts.get(sig.per_block, 0) + rows
                pairs.add((sig, d))
        dim_u = alg.unitary_group_dim
        consistent = all(d + isotropy_dim(s) == dim_u for s, d in pairs)
        generic_fraction = counts.get(generic, 0) / draws
        ok = set(counts) == {generic, other} and consistent and generic_fraction >= 0.999
        report = {
            "alg": list(alg.block_sizes),
            "signatures": {str(list(map(list, k))): v for k, v in sorted(counts.items())},
            "distinct": len(counts),
            "dimension_identity_holds": consistent,
            "generic_fraction": generic_fraction,
        }
        if generic_dim is not None:
            report["generic_orbit_dim"] = sorted(set(first_dims))
            ok = ok and report["generic_orbit_dim"] == [generic_dim]
        report["passed"] = bool(ok)
        reports.append(report)
    return {
        "suite": "orbit-census",
        "draws": draws,
        "seed": seed,
        "cluster_tol": cluster_tol,
        "censuses": reports,
        "passed": all(r["passed"] for r in reports),
    }


SUITES = {
    "whitney": suite_whitney,
    "frontier": suite_frontier,
    "join": suite_join,
    "orbit-census": suite_orbit_census,
    "projector-equiv": suite_projector_equiv,
}
