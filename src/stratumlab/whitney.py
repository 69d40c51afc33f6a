"""Randomized verification of the stratification's regularity.

Whitney condition (B) at a point y of a lower stratum, with respect to a
higher stratum: for sequences x_k (higher stratum) and y_k (lower stratum)
both converging to y, the secant directions of x_k - y_k come to lie inside
the limiting tangent spaces of the higher stratum. Numerically we measure the
gap

    g_k = || component of secant(x_k, y_k) orthogonal to T_{x_k}(stratum) ||

along constructed geometric approach sequences; condition (B) predicts g_k
decays to zero (empirically with slope ~1 in log-log). The fixed-base variant
(y_k = y, the condition (A) flavor) is run alongside. The trials are built
as stacks of TRIAL_CHUNK sequences, each the one sequence_toward gives, bit
for bit. A negative control replaces the tangent space by a fixed random
plane and must fail, otherwise the detector is vacuous.

The frontier suite checks that the closure order of strata is exactly the
componentwise per-block rank order: comparable pairs are witnessed by
constructed approximants, incomparable pairs by the Eckart-Young distance
floor (a rank-(j) matrix cannot approximate a rank-(i > j) block closer than
the norm of the dropped eigenvalue tail). A source label's sampled points
are drawn as one stack by sample_algebra's resample loop; their kernel
frames, Haar rotations and block spectra are derived once and shared by
every target, and each stream row is read once for all labels of an
algebra. Each comparable target gets one stack of approximants (the
approach_state of each point, bit for bit), validated and audited once;
each incomparable target reads its floors off the shared spectra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CoincidentPoints
from .sampler import _SOURCE, FRONTIER_DELTA, SEQUENCE_LENGTH, SEQUENCE_RATE, _approach_base
from .sampler import _approach_reads, _approach_stack, _resampled
from .sampler import _sequence_base, _sequence_stacks, _stream_rows
from .states import DEFAULT_TOL, AlgebraDescriptor, DensityMatrix
from .strata import StratumLabel, _tangent_bases, frontier_leq
from .streams import _box_muller, _factor_doubles, _gram_stack, _path_table, _uniform_rows

SLOPE_FIT_FLOOR = 1e-13

# a Whitney estimate passes when its terminal gaps are at most GAP_THRESHOLD
# at a terminal distance of at most WHITNEY_DISTANCE
GAP_THRESHOLD = 1e-3
WHITNEY_DISTANCE = 1e-6
# dimension of the negative control's random plane
CONTROL_PLANE_DIM = 2
# trials of a Whitney estimate built as one stack, and trials whose
# (trials length, d, n, n) tangent bases are held at once: memory bounds
TRIAL_CHUNK = 25
GAP_CHUNK = 4

# witness distance of the frontier checks (their approximant step,
# FRONTIER_DELTA, is the sampler's)
FRONTIER_DISTANCE = 1e-6
# HS distance at or below which two points have no secant direction
COINCIDENT_TOL = 1e-14


def secant_direction_stack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Unit (HS) directions from ys to xs, matrix by matrix, over stacks of
    any (broadcast) leading shape.

    Raises
    ------
    CoincidentPoints
        For the first pair, in row-major order, within COINCIDENT_TOL.
    """
    d = np.asarray(xs, dtype=complex) - np.asarray(ys, dtype=complex)
    norms = linalg.hs_norm(d)
    close = np.flatnonzero(norms <= COINCIDENT_TOL)
    if close.size:
        raise CoincidentPoints(f"points coincide within {norms.flat[close[0]]:.3e}")
    return d / norms[..., None, None]


def secant_direction(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit (HS) direction from y to x: secant_direction_stack on stacks of
    one matrix.

    Raises
    ------
    CoincidentPoints
        If the two matrices are within COINCIDENT_TOL.
    """
    return secant_direction_stack(np.asarray(x)[None], np.asarray(y)[None])[0]


def gap_line_space_stack(vs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """gap_line_space of each matrix of a stack against its own basis.

    vs is a (..., n, n) stack and bases a (..., d, n, n) stack of
    orthonormal bases, the leading shapes broadcast against each other.
    Returns the gaps, an array of the broadcast leading shape. Coefficients
    and residuals are one matrix-vector product per item, so each gap is
    the one gap_line_space computes for that item alone, bit for bit.
    """
    vs = np.asarray(vs, dtype=complex)
    k = vs.shape[-2] * vs.shape[-1]
    flat = vs.reshape(vs.shape[:-2] + (1, k))
    stacked = np.asarray(bases, dtype=complex)
    stacked = stacked.reshape(stacked.shape[:-3] + (-1, k))
    coeffs = (stacked.conj() @ flat.swapaxes(-1, -2)).real
    return linalg.hs_norm(flat - coeffs.swapaxes(-1, -2) @ stacked)


def gap_line_space(v: np.ndarray, basis) -> float:
    """HS norm of the component of v orthogonal to the span of an orthonormal
    basis of Hermitian matrices: gap_line_space_stack on the stack of one.

    basis is a (d, n, n) array, as tangent_basis returns, or a sequence of
    n x n matrices (possibly empty). The residual v - sum_a c_a e_a with
    c_a = Re Tr(e_a^dagger v) is formed explicitly in one projection; the
    shortcut sqrt(|v|^2 - |c|^2) would lose gaps near 1e-10 to cancellation.
    """
    v = np.asarray(v, dtype=complex)
    basis = np.asarray(basis, dtype=complex).reshape((-1,) + v.shape)
    return float(gap_line_space_stack(v[None], basis[None])[0])


@dataclass(frozen=True)
class WhitneyReport:
    """Aggregated secant-tangent gaps along approach sequences.

    pairs / pairs_fixed_base hold (k, max distance to y, max gap) per step,
    maxima over trials; distances decrease strictly. slope is the pooled
    log-log decay rate of the moving-base gaps (fit above slope_fit_floor).
    terminal_pairs holds each trial's last (x_k, y_k) pair of DensityMatrix,
    in trial order, for whitney_negative_control; it is left out of equality
    and repr.
    """

    n: int
    base_rank: int
    target_rank: int
    rate: float
    length: int
    trials: int
    seed: int
    gap_threshold: float
    distance_target: float
    slope_fit_floor: float
    pairs: tuple[tuple[int, float, float], ...]
    pairs_fixed_base: tuple[tuple[int, float, float], ...]
    slope: float
    terminal_distance: float
    terminal_gap: float
    terminal_gap_fixed_base: float
    passed: bool
    terminal_pairs: tuple[tuple[DensityMatrix, DensityMatrix], ...] = field(
        default=(), compare=False, repr=False
    )

    def __post_init__(self):
        dists = [d for _, d, _ in self.pairs]
        # both fail closed: a NaN distance or gap is refused
        if any(not b < a for a, b in zip(dists[:-1], dists[1:])):
            raise ValueError("distances along the sequence must strictly decrease")
        if any(not g >= 0 for _, _, g in self.pairs + self.pairs_fixed_base):
            raise ValueError("gaps cannot be negative")


def whitney_b_estimate(y: DensityMatrix, j: int, trials: int = 50, seed: int = 0) -> WhitneyReport:
    """Estimate the Whitney (B) secant-tangent gaps at y against stratum j.

    Runs `trials` independent approach sequences (sequence_toward at its
    default rate and length, trial t at index t), measures the gap of the
    moving-base secant (x_k to y_k) and the fixed-base secant (x_k to y)
    against the tangent space of the rank-j stratum at x_k, and aggregates
    per-step maxima. Passes when the terminal distance reaches
    WHITNEY_DISTANCE and both terminal gaps are at most GAP_THRESHOLD.

    The trials are built TRIAL_CHUNK at a time as one stack, their tangent
    bases and gaps GAP_CHUNK at a time, so every gap and pair is a
    trial-by-trial loop's, bit for bit, and so is the error of the first
    failing trial (a chunk's construction errors before its secants').
    """
    base = _sequence_base(y, j, SEQUENCE_RATE)
    label_j = base[1]
    n, length = y.dim, SEQUENCE_LENGTH
    gaps = np.zeros((trials, length, 2))  # the moving base, then the fixed base
    dists = np.zeros((trials, length))
    terminal_pairs = []
    for at in range(0, trials, TRIAL_CHUNK):
        chunk = range(trials)[at : at + TRIAL_CHUNK]
        stacks = _sequence_stacks(y, j, base, SEQUENCE_RATE, length, seed, chunk)
        # the last pairs alone (copies), not views that keep the stacks alive
        terminal_pairs += zip(*(s[length - 1 :: length].states() for s in stacks))
        xs, ys = (s.hs.reshape(len(chunk), length, n, n) for s in stacks)
        # validation's eigh frames of the x_k: each is decomposed once
        frames = stacks[0].v.reshape(len(chunk), length, n, n)
        # per trial and step, the moving base y_k then the fixed base y: the
        # order in which a trial-by-trial loop would meet CoincidentPoints
        ends = np.stack([ys, np.broadcast_to(y.matrix, ys.shape)], axis=2)
        secants = secant_direction_stack(xs[:, :, None], ends)
        dists[chunk] = linalg.hs_norm(xs - y.matrix)
        # only the frames and the secants are held through the gaps
        del stacks, xs, ys, ends
        for sub in range(0, len(chunk), GAP_CHUNK):
            part = slice(sub, sub + GAP_CHUNK)
            frame = np.ascontiguousarray(linalg.gauge_fix_columns(frames[part].reshape(-1, n, n)))
            bases = _tangent_bases(frame, label_j)[:, None]
            part_gaps = gap_line_space_stack(secants[part].reshape(-1, 2, n, n), bases)
            gaps[chunk[part]] = part_gaps.reshape(-1, length, 2)
        # so that they are not held through the next chunk's build
        del frames, secants, frame, bases
    gaps_b, gaps_a = gaps[..., 0], gaps[..., 1]
    max_d = dists.max(axis=0)
    max_b = gaps_b.max(axis=0)
    max_a = gaps_a.max(axis=0)
    keep = (gaps_b > SLOPE_FIT_FLOOR).ravel()
    if j != y.dim and int(keep.sum()) >= 3:
        slope = float(
            np.polyfit(np.log10(dists.ravel()[keep]), np.log10(gaps_b.ravel()[keep]), 1)[0]
        )
    else:
        # no rate to fit: the target stratum is open (its tangent space is the
        # whole trace-zero hyperplane, every gap is roundoff), or the gaps
        # collapsed onto the numerical floor at once (decay as fast as measurable)
        slope = float("inf")
    passed = bool(
        max_d[-1] <= WHITNEY_DISTANCE
        and max_b[-1] <= GAP_THRESHOLD
        and max_a[-1] <= GAP_THRESHOLD
    )
    return WhitneyReport(
        n=y.dim,
        base_rank=base[0].total,
        target_rank=j,
        rate=SEQUENCE_RATE,
        length=SEQUENCE_LENGTH,
        trials=trials,
        seed=seed,
        gap_threshold=GAP_THRESHOLD,
        distance_target=WHITNEY_DISTANCE,
        slope_fit_floor=SLOPE_FIT_FLOOR,
        pairs=tuple((k + 1, float(max_d[k]), float(max_b[k])) for k in range(length)),
        pairs_fixed_base=tuple((k + 1, float(max_d[k]), float(max_a[k])) for k in range(length)),
        slope=slope,
        terminal_distance=float(max_d[-1]),
        terminal_gap=float(max_b[-1]),
        terminal_gap_fixed_base=float(max_a[-1]),
        passed=passed,
        terminal_pairs=tuple(terminal_pairs),
    )


def whitney_negative_control(terminal_pairs, seed: int = 0) -> dict:
    """Detector sensitivity check: replace the tangent space by a fixed random
    plane of traceless Hermitians and count the trials whose terminal gap
    still passes. A healthy detector fails nearly all of them.

    terminal_pairs is the WhitneyReport.terminal_pairs of the estimate under
    test: one (x_L, y_L) pair of DensityMatrix per trial, in trial order,
    all of one algebra. Trial t draws its plane from the (seed, 7, t) stream
    and measures the moving-base secant of its pair against it. The trials
    run as one stack (a stacked Gram-Schmidt with one (1, k) @ (k, 1) inner
    product per trial), so each gap is a trial-by-trial loop's, bit for bit.

    Returns a dict with the per-trial terminal gaps and the fraction whose
    gap exceeds GAP_THRESHOLD.
    """
    trials = len(terminal_pairs)
    algs = {p.alg for pair in terminal_pairs for p in pair}
    if len(algs) != 1:
        raise ValueError("the negative control needs terminal pairs, all of one algebra")
    n = algs.pop().dim
    u = _uniform_rows(seed, _path_table((7, 0, 1), range(trials)), 4 * CONTROL_PLANE_DIM * n * n)
    # axes: trial, plane matrix, real / imaginary part, u1 / u2, entry
    u = u.reshape(trials, CONTROL_PLANE_DIM, 2, 2, n, n)
    z = _box_muller(np.ascontiguousarray(u[:, :, :, 0]), np.ascontiguousarray(u[:, :, :, 1]))
    hs = linalg.hermitian_part(z[:, :, 0] + 1j * z[:, :, 1])
    hs -= np.trace(hs, axis1=-2, axis2=-1).real[..., None, None] * np.eye(n) / n
    plane = []
    for h in hs.swapaxes(0, 1):
        for e in plane:
            inner = (e.conj().reshape(trials, 1, n * n) @ h.reshape(trials, n * n, 1)).real
            h = h - inner * e
        plane.append(h / linalg.hs_norm(h)[:, None, None])
    ends = np.array([(x.matrix, yk.matrix) for x, yk in terminal_pairs])
    gaps = gap_line_space_stack(secant_direction_stack(ends[:, 0], ends[:, 1]), np.stack(plane, 1))
    fails = int(np.count_nonzero(gaps > GAP_THRESHOLD))
    return {
        "trials": trials,
        "failed": fails,
        "fraction_failed": fails / trials,
        "terminal_gaps": gaps.tolist(),
    }


def enumerate_labels(alg: AlgebraDescriptor) -> list[StratumLabel]:
    """All stratum labels of an algebra (per-block ranks, total >= 1)."""
    out = []
    for ranks in itertools.product(*(range(n + 1) for n in alg.block_sizes)):
        if sum(ranks) >= 1:
            out.append(StratumLabel(alg=alg, per_block=ranks))
    return out


@dataclass(frozen=True)
class FrontierReport:
    """Empirical reachability of stratum i from stratum j, with witnesses."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    expected: bool
    reachable: bool
    matches: bool
    samples: int
    max_distance: float
    min_floor: float


def _source_reads(i: StratumLabel) -> dict:
    """The doubles the frontier checks of source label i read: its points'
    attempt-0 factors, and their approximants' toward the top label, the
    longest of any target's."""
    top = StratumLabel(i.alg, i.alg.block_sizes)
    source = _factor_doubles(zip(i.alg.block_sizes, i.per_block))
    return {_SOURCE: source} | _approach_reads(i, top)


def _frontier_sources(labels, samples: int, seed: int):
    """Per source label i of labels, in order, the sampled rank-i points of a
    frontier check as one validated stack (point s is sample_algebra(i.alg,
    seed, i.per_block, s), its block spectra those of the resample loop) and
    the approach base of them all. Every stream row they read is drawn once
    for all labels, to the longest prefix any of them reads (_source_reads)."""
    rows = _stream_rows([_source_reads(i) for i in labels], seed, range(samples))
    for i in labels:
        first = _gram_stack(list(zip(i.alg.block_sizes, i.per_block)), rows[_SOURCE])
        points = _resampled(first, i.alg, seed, i.per_block, (4,), range(samples))
        yield points, _approach_base(points.hs, i, DEFAULT_TOL, rows)


def _frontier_report(i: StratumLabel, j: StratumLabel, sources) -> FrontierReport:
    """Reachability of stratum i from stratum j, witnessed at the sampled
    rank-i points of _frontier_sources."""
    points, base = sources
    expected = frontier_leq(i, j)
    max_distance = min_floor = 0.0
    if all(ia <= ja for ia, ja in zip(i.per_block, j.per_block)):
        # the approximants are audited to classify as j
        distances = linalg.hs_norm(_approach_stack(points, base, j, FRONTIER_DELTA).hs - points.hs)
        max_distance = float(distances.max())
        reachable = not (distances > FRONTIER_DISTANCE).any()
    else:
        floor_sq = 0.0
        for w, nb, ib, jb in zip(points.spectra, i.alg.block_sizes, i.per_block, j.per_block):
            if jb < ib:
                # the ib - jb smallest of the block's ib positive eigenvalues
                floor_sq = floor_sq + np.sum(w[:, nb - ib : nb - jb] ** 2, axis=1)
        min_floor = float(np.sqrt(floor_sq).min())
        # a floor at or below FRONTIER_DISTANCE cannot certify impossibility
        # at this resolution, and leaves the pair reachable
        reachable = not min_floor > FRONTIER_DISTANCE
    return FrontierReport(
        source=i.per_block,
        target=j.per_block,
        expected=expected,
        reachable=reachable,
        matches=(reachable == expected),
        samples=len(points.hs),
        max_distance=max_distance,
        min_floor=min_floor,
    )


def frontier_check(
    i: StratumLabel,
    j: StratumLabel,
    samples: int = 15,
    seed: int = 0,
) -> FrontierReport:
    """Decide empirically whether stratum i lies in the closure of stratum j.

    For componentwise-comparable pairs, constructs a rank-j approximant
    within FRONTIER_DISTANCE of every sampled rank-i point, FRONTIER_DELTA
    away. For incomparable pairs, evaluates the Eckart-Young floor: the
    distance from the sampled point to anything with the lower block rank,
    which must exceed FRONTIER_DISTANCE.
    """
    return _frontier_report(i, j, next(_frontier_sources([i], samples, seed)))


def frontier_matrix(alg: AlgebraDescriptor, samples: int = 15, seed: int = 0) -> dict:
    """Full reachability-vs-order comparison over all stratum label pairs.

    Each source label's samples are drawn once and shared by all its
    targets, and each stream row once for all labels; every pair sees the
    points frontier_check would draw for it.
    """
    labels = enumerate_labels(alg)
    expected = []
    reachable = []
    mismatches = []
    for a, sources in zip(labels, _frontier_sources(labels, samples, seed)):
        e_row, r_row = [], []
        for b in labels:
            rep = _frontier_report(a, b, sources)
            e_row.append(rep.expected)
            r_row.append(rep.reachable)
            if not rep.matches:
                mismatches.append({"source": a.per_block, "target": b.per_block})
        expected.append(e_row)
        reachable.append(r_row)
    return {
        "alg": list(alg.block_sizes),
        "labels": [list(l.per_block) for l in labels],
        "expected": expected,
        "reachable": reachable,
        "equal": not mismatches,
        "mismatches": mismatches,
    }
