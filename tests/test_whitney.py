import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from stratumlab import linalg, sampler, strata, whitney
from stratumlab.errors import AmbiguousRank, CoincidentPoints
from stratumlab.fileio import canonical_json
from stratumlab.sampler import sample_rank, sequence_toward
from stratumlab.states import AlgebraDescriptor, validate_density
from stratumlab.strata import (
    StratumLabel,
    classify,
    frontier_leq,
    numerical_rank,
    retract_to_stratum,
    tangent_basis,
)
from stratumlab.verify import suite_whitney
from stratumlab.whitney import (
    FrontierReport,
    WhitneyReport,
    enumerate_labels,
    frontier_check,
    frontier_matrix,
    gap_line_space,
    secant_direction,
    whitney_b_estimate,
    whitney_negative_control,
)

# frozen fingerprints of the Whitney suite and of one approach sequence per
# ambient dimension, as the step-by-step construction produced them
GOLDEN_WHITNEY_MAXDIM4_TRIALS5_SEED0 = (
    "c9f16b22545917a2af3bf7d92ec961801505c0dc267dc8948ebea8a1ca8c998b"
)
GOLDEN_SEQUENCES = {
    # (n, i, j): sequence_toward(sample_rank(n, i, seed=11), j, seed=11, index=3)
    (2, 1, 2): "a4d70a26fbbe1ccb27c1e506cb76eea7563a0159aeaf0754c119ea491a894429",
    (3, 1, 2): "60471b6b5195ad558d92938a077f4bdd30edc13d71cd8c7d3929b38d89f1d0b2",
    (4, 2, 3): "e38039f289ceb6032846b9f4c28325a45ac97d4082e050e0adc5ab938ee0e3df",
}

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_secant_direction_unit_and_orientation():
    y = np.diag([0.5, 0.5]).astype(complex)
    h = SX / np.sqrt(2.0)
    v = secant_direction(y + 1e-3 * h, y)
    assert linalg.hs_norm(v) == pytest.approx(1.0, abs=1e-14)
    npt.assert_allclose(v, h, atol=1e-12)
    # swapping the arguments flips the sign
    npt.assert_allclose(secant_direction(y, y + 1e-3 * h), -h, atol=1e-12)


def test_secant_direction_coincident():
    y = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(CoincidentPoints):
        secant_direction(y, y)
    with pytest.raises(CoincidentPoints):
        secant_direction(y + 1e-16 * SX, y)


def test_gap_line_space_exact():
    e1 = SZ / np.sqrt(2.0)
    e2 = SX / np.sqrt(2.0)
    e3 = SY / np.sqrt(2.0)
    v = 3.0 * e1 + 4.0 * e2 + 5.0 * e3
    # the residual against span{e1, e2} is exactly the e3 component
    assert gap_line_space(v, [e1, e2]) == pytest.approx(5.0, abs=1e-12)
    assert gap_line_space(v, [e1, e2, e3]) == pytest.approx(0.0, abs=1e-12)
    assert gap_line_space(v, []) == pytest.approx(linalg.hs_norm(v), abs=1e-12)
    # a stacked (d, n, n) basis gives the same residual as the list
    assert gap_line_space(v, np.array([e1, e2])) == gap_line_space(v, [e1, e2])


def _report_kwargs(**overrides):
    base = dict(
        n=2,
        base_rank=1,
        target_rank=2,
        rate=0.5,
        length=2,
        trials=1,
        seed=0,
        gap_threshold=1e-3,
        distance_target=1e-6,
        slope_fit_floor=1e-13,
        pairs=((1, 0.5, 1e-4), (2, 0.25, 5e-5)),
        pairs_fixed_base=((1, 0.5, 1e-4), (2, 0.25, 5e-5)),
        slope=1.0,
        terminal_distance=0.25,
        terminal_gap=5e-5,
        terminal_gap_fixed_base=5e-5,
        passed=False,
    )
    base.update(overrides)
    return base


def test_report_rejects_nondecreasing_distances():
    with pytest.raises(ValueError):
        WhitneyReport(**_report_kwargs(pairs=((1, 0.25, 1e-4), (2, 0.5, 5e-5))))


def test_report_rejects_negative_gaps():
    with pytest.raises(ValueError):
        WhitneyReport(**_report_kwargs(pairs_fixed_base=((1, 0.5, 1e-4), (2, 0.25, -1e-5))))
    assert WhitneyReport(**_report_kwargs()).terminal_gap == 5e-5


def test_whitney_estimate_proper_pair():
    # rank 1 inside the closure of the rank-2 stratum of the 3x3 states
    y = sample_rank(3, 1, seed=31)
    rep = whitney_b_estimate(y, 2, trials=5, seed=31)
    assert rep.passed
    assert rep.terminal_distance <= 1e-6
    assert rep.terminal_gap <= 1e-3
    assert rep.terminal_gap_fixed_base <= 1e-3
    dists = [d for _, d, _ in rep.pairs]
    assert all(b < a for a, b in zip(dists[:-1], dists[1:]))
    # the gap decays roughly linearly with the distance
    assert rep.slope >= 0.4


def test_whitney_estimate_open_target():
    # target equal to the full rank: the stratum is open, its tangent space is
    # everything traceless, so gaps are pure roundoff and no slope is fitted
    y = sample_rank(2, 1, seed=32)
    rep = whitney_b_estimate(y, 2, trials=5, seed=32)
    assert rep.passed
    assert np.isinf(rep.slope)
    assert rep.terminal_gap <= 1e-8


def test_negative_control_detects_random_plane():
    y = sample_rank(3, 1, seed=33)
    rep = whitney_b_estimate(y, 2, trials=20, seed=33)
    out = whitney_negative_control(rep.terminal_pairs, seed=33)
    assert out["trials"] == 20
    assert len(out["terminal_gaps"]) == 20
    assert out["fraction_failed"] >= 0.95


def test_negative_control_reuse_is_exact():
    # the control reads the estimate's terminal pairs; rebuilding every
    # sequence from its seed must give the very same gaps, bit for bit
    y = sample_rank(3, 1, seed=38)
    rep = whitney_b_estimate(y, 2, trials=6, seed=38)
    rebuilt = tuple(sequence_toward(y, 2, seed=38, index=t)[-1] for t in range(6))
    for (x, yk), (x_fresh, yk_fresh) in zip(rep.terminal_pairs, rebuilt, strict=True):
        npt.assert_array_equal(x.matrix, x_fresh.matrix)
        npt.assert_array_equal(yk.matrix, yk_fresh.matrix)
    reused = whitney_negative_control(rep.terminal_pairs, seed=38)
    fresh = whitney_negative_control(rebuilt, seed=38)
    assert reused["terminal_gaps"] == fresh["terminal_gaps"]
    assert reused == fresh
    with pytest.raises(ValueError):
        whitney_negative_control((), seed=38)


def _reference_control_gaps(terminal_pairs, seed):
    """The trial-by-trial construction of whitney_negative_control's gaps:
    per trial, a Gram-Schmidt plane of two traceless Hermitian matrices
    from the (seed, 7, t) stream, then the gap of its terminal secant."""
    gaps = []
    for t, (x, yk) in enumerate(terminal_pairs):
        n = x.dim
        rng = _stream(seed, 7, t)
        plane = []
        for _ in range(whitney.CONTROL_PLANE_DIM):
            g = _normal(rng, (n, n)) + 1j * _normal(rng, (n, n))
            h = linalg.hermitian_part(g)
            h -= np.trace(h).real * np.eye(n) / n
            for e in plane:
                h = h - linalg.hs_inner(e, h) * e
            plane.append(h / linalg.hs_norm(h))
        gaps.append(gap_line_space(secant_direction(x.matrix, yk.matrix), plane))
    return gaps


@pytest.mark.parametrize("seed", (0, 20201104))
def test_negative_control_matches_trial_loop(seed):
    for n, i, j in ((2, 1, 2), (3, 1, 2), (4, 2, 3)):
        y = sample_rank(n, i, seed, index=n)
        pairs = whitney_b_estimate(y, j, trials=12, seed=seed).terminal_pairs
        out = whitney_negative_control(pairs, seed=seed)
        assert out["terminal_gaps"] == _reference_control_gaps(pairs, seed)
        assert out["failed"] == sum(g > whitney.GAP_THRESHOLD for g in out["terminal_gaps"])
    # the trials run as one stack, so they must share one algebra
    other = whitney_b_estimate(sample_rank(3, 1, seed), 2, trials=1, seed=seed).terminal_pairs
    with pytest.raises(ValueError, match="one algebra"):
        whitney_negative_control(pairs + other, seed=seed)


def test_whitney_estimate_derives_y_data_once(monkeypatch):
    # every trial's sequence shares y's label, kernel frame and tangent basis,
    # so each is computed once per estimate, not once per trial
    y = sample_rank(3, 1, seed=38)
    seen = []

    def count(module, name, on_y):
        real = getattr(module, name)

        def counted(first, *args, **kwargs):
            if on_y(first):
                seen.append(name)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(sampler, "classify", lambda rho: rho is y)
    count(sampler, "tangent_basis", lambda rho: rho is y)
    count(linalg, "eigh_fixed", lambda m: m.shape == y.matrix.shape and np.array_equal(m, y.matrix))
    rep = whitney_b_estimate(y, 2, trials=5, seed=38)
    assert rep.base_rank == 1
    assert sorted(seen) == ["classify", "eigh_fixed", "tangent_basis"]


def test_enumerate_labels_counts():
    assert len(enumerate_labels(AlgebraDescriptor((2,)))) == 2
    assert len(enumerate_labels(AlgebraDescriptor((3,)))) == 3
    # (1+1)(2+1) - 1 composite rank vectors, minus none else
    assert len(enumerate_labels(AlgebraDescriptor((1, 2)))) == 5
    assert len(enumerate_labels(AlgebraDescriptor((1, 1, 1, 1)))) == 15
    labels = enumerate_labels(AlgebraDescriptor((1, 1)))
    assert {l.per_block for l in labels} == {(0, 1), (1, 0), (1, 1)}


def test_frontier_check_reachable_pair():
    alg = AlgebraDescriptor((3,))
    rep = frontier_check(StratumLabel(alg, (1,)), StratumLabel(alg, (2,)), samples=5, seed=34)
    assert isinstance(rep, FrontierReport)
    assert rep.expected and rep.reachable and rep.matches
    assert rep.max_distance <= 1e-6


def test_frontier_check_rank_drop_blocked():
    # rank cannot drop under a small perturbation: the dropped spectral tail
    # is an Eckart-Young floor on the distance
    alg = AlgebraDescriptor((2,))
    rep = frontier_check(StratumLabel(alg, (2,)), StratumLabel(alg, (1,)), samples=5, seed=35)
    assert not rep.expected
    assert not rep.reachable
    assert rep.matches
    assert rep.min_floor > 1e-6


def test_frontier_check_incomparable_blocks():
    alg = AlgebraDescriptor((1, 1))
    rep = frontier_check(StratumLabel(alg, (1, 0)), StratumLabel(alg, (0, 1)), samples=5, seed=36)
    assert not rep.expected
    assert rep.matches


def test_frontier_check_algebra_mismatch():
    a = AlgebraDescriptor((2,))
    b = AlgebraDescriptor((1, 1))
    with pytest.raises(ValueError):
        frontier_check(StratumLabel(a, (1,)), StratumLabel(b, (1, 1)))


def test_frontier_matrix_matches_order():
    alg = AlgebraDescriptor((1, 1))
    out = frontier_matrix(alg, samples=5, seed=37)
    assert out["equal"]
    assert out["mismatches"] == []
    labels = [tuple(l) for l in out["labels"]]
    for a, row in zip(labels, out["expected"]):
        for b, val in zip(labels, row):
            assert val == frontier_leq(StratumLabel(alg, a), StratumLabel(alg, b))
    assert out["reachable"] == out["expected"]


def _sequence_sha(seq):
    h = hashlib.sha256()
    for x, yk in seq:
        h.update(np.ascontiguousarray(x.matrix).tobytes())
        h.update(np.ascontiguousarray(yk.matrix).tobytes())
    return h.hexdigest()


def test_whitney_suite_golden():
    report = suite_whitney(max_dim=4, trials=5, seed=0)
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest == GOLDEN_WHITNEY_MAXDIM4_TRIALS5_SEED0


@pytest.mark.parametrize("nij", sorted(GOLDEN_SEQUENCES))
def test_sequence_toward_golden(nij):
    n, i, j = nij
    seq = sequence_toward(sample_rank(n, i, seed=11), j, seed=11, index=3)
    assert _sequence_sha(seq) == GOLDEN_SEQUENCES[nij]


def _stream(seed, *path):
    """The generator of one stream path, built here rather than by the
    sampler, so the references below do not lean on the code they check."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def _normal(rng, shape):
    """Box-Muller Gaussians sqrt(-2 ln(1-u1)) cos(2 pi u2) of two uniform
    arrays."""
    u1, u2 = rng.random(shape), rng.random(shape)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _ginibre(rng, n):
    """n x n complex Ginibre matrix in polar form: n^2 moduli, then n^2
    phases."""
    u1, u2 = rng.random((n, n)), rng.random((n, n))
    return np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def _reference_sequence(y, j, rate=0.5, length=22, seed=0, index=0):
    """The step-by-step construction sequence_toward used to run: per step,
    a rank audit and validation of x_k, one Gaussian draw, the halving
    retraction of y_k and its rank audit."""

    def audit(m, expect):
        got = strata.rank_from_eigenvalues(np.linalg.eigvalsh(m), y.tol)
        if got != expect:
            raise RuntimeError(f"constructed point has rank {got}, expected {expect}")

    n = y.dim
    i = numerical_rank(y)
    label_i = classify(y)
    kernel = linalg.eigh_fixed(y.matrix)[1][:, : n - i]
    r = j - i
    rng = _stream(seed, 5, index)
    q, qr = np.linalg.qr(_ginibre(_stream(seed, 2, 1000 + index), n - i))
    rot = q * (np.diagonal(qr) / np.abs(np.diagonal(qr)))
    support = kernel @ rot[:, :r]
    # half a normalized Wishart plus half the normalized identity
    g = _ginibre(rng, r)
    wishart = g @ g.conj().T
    tau = 0.5 * (wishart / float(np.trace(wishart).real)) + 0.5 * np.eye(r) / r
    sigma = support @ tau @ support.conj().T
    basis = tangent_basis(y, label=label_i)
    out = []
    for k in range(1, length + 1):
        delta = rate**k
        xm = (1.0 - delta) * y.matrix + delta * sigma
        audit(xm, j)
        x = validate_density(xm, y.alg, y.tol)
        h = np.tensordot(_normal(rng, len(basis)), basis, axes=1)
        h = h / np.linalg.norm(h)
        step = 0.5 * delta
        for _ in range(30):
            try:
                yk = retract_to_stratum(y.matrix + step * h, label_i, y.tol)
            except ValueError:
                step *= 0.5
                continue
            if np.linalg.norm(yk.matrix - y.matrix) <= delta:
                break
            step *= 0.5
        else:
            raise RuntimeError("tangent retraction kept overshooting the step budget")
        audit(yk.matrix, i)
        out.append((x, yk))
    return out


@pytest.mark.parametrize(
    "n,i,j,rate", [(2, 1, 2, 0.5), (3, 1, 3, 0.5), (3, 2, 3, 0.7), (4, 1, 2, 0.5), (4, 2, 4, 0.6)]
)
def test_sequence_toward_matches_step_loop(n, i, j, rate):
    y = sample_rank(n, i, seed=40 + n)
    for t in range(3):
        got = sequence_toward(y, j, rate=rate, seed=40, index=t)
        want = _reference_sequence(y, j, rate=rate, seed=40, index=t)
        assert len(got) == len(want) == 22
        for (x, yk), (x_ref, yk_ref) in zip(got, want):
            assert np.array_equal(x.matrix, x_ref.matrix)
            assert np.array_equal(yk.matrix, yk_ref.matrix)
            assert not x.matrix.flags.writeable and not yk.matrix.flags.writeable


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_sequence_toward_raises_the_first_failing_steps_error(monkeypatch):
    y = sample_rank(3, 1, seed=39)
    stacked = lambda: sequence_toward(y, 2, length=40, seed=39, index=1)
    stepwise = lambda: _reference_sequence(y, 2, length=40, seed=39, index=1)
    # from step ~27 on, x_k's smallest eigenvalue enters the gray zone
    assert _raised(stacked) == _raised(stepwise)
    assert _raised(stacked)[0] is AmbiguousRank

    # now every retraction of a step shorter than 1e-4 leaves the stratum,
    # so step 13 runs out of halvings long before the gray zone: the
    # step-by-step loop raises the overshoot, not the later audit
    retract = strata._retract_with_spectra

    def refuse_short_steps(hs, label, tol):
        ms, spectra, lead = retract(hs, label, tol)
        short = linalg.hs_norm(hs - y.matrix) < 1e-4
        kept = ~short[lead > 0]
        return ms[kept], spectra[kept], np.where(short, -1.0, lead)

    monkeypatch.setattr(strata, "_retract_with_spectra", refuse_short_steps)
    monkeypatch.setattr(sampler, "_retract_with_spectra", refuse_short_steps)
    assert _raised(stacked) == _raised(stepwise)
    assert _raised(stacked) == (
        RuntimeError, "tangent retraction kept overshooting the step budget"
    )


@pytest.mark.parametrize("nij", [(2, 1, 2), (3, 1, 3), (4, 2, 3)])
@pytest.mark.parametrize("trials", [1, 11, 12, 30])
def test_sequence_stacks_are_the_per_index_sequences(nij, trials):
    # below and from STREAM_PORT_ROWS on, the two stream routes
    n, i, j = nij
    y = sample_rank(n, i, seed=42, index=n)
    indices = [7 + 3 * t for t in range(trials)]
    base = sampler._sequence_base(y, j, 0.5)
    (xs, _), (ys, _) = sampler._sequence_stacks(y, j, base, 0.5, 22, 42, indices)
    assert xs.shape == ys.shape == (22 * trials, n, n)
    for t, index in enumerate(indices):
        seq = sequence_toward(y, j, seed=42, index=index)
        assert np.array_equal(xs[22 * t : 22 * t + 22], [x.matrix for x, _ in seq])
        assert np.array_equal(ys[22 * t : 22 * t + 22], [yk.matrix for _, yk in seq])


def _reference_estimate(y, j, trials, seed):
    """The trial-by-trial loop of whitney_b_estimate: one sequence_toward
    per trial, and per step the gaps of its two secants against the
    tangent basis at x_k. Returns the per-step (k, distance, gap) maxima of
    the moving and the fixed base, the slope and the terminal pairs."""
    label_j = StratumLabel(y.alg, (j,))
    gaps_b, gaps_a, dists, terminal = [], [], [], []
    for t in range(trials):
        seq = sequence_toward(y, j, seed=seed, index=t)
        terminal.append(seq[-1])
        for x, yk in seq:
            basis = tangent_basis(x, label=label_j)
            gaps_b.append(gap_line_space(secant_direction(x.matrix, yk.matrix), basis))
            gaps_a.append(gap_line_space(secant_direction(x.matrix, y.matrix), basis))
            dists.append(linalg.hs_norm(x.matrix - y.matrix))
    gaps_b, gaps_a, dists = (np.reshape(v, (trials, 22)) for v in (gaps_b, gaps_a, dists))
    keep = (gaps_b > whitney.SLOPE_FIT_FLOOR).ravel()
    slope = np.polyfit(np.log10(dists.ravel()[keep]), np.log10(gaps_b.ravel()[keep]), 1)[0]
    steps = range(1, 23)
    pairs = tuple(zip(steps, dists.max(axis=0).tolist(), gaps_b.max(axis=0).tolist()))
    fixed = tuple(zip(steps, dists.max(axis=0).tolist(), gaps_a.max(axis=0).tolist()))
    return pairs, fixed, float(slope), terminal


@pytest.mark.parametrize("nij", [(3, 1, 2), (4, 2, 3)])
def test_whitney_estimate_is_the_trial_loop(nij):
    n, i, j = nij
    y = sample_rank(n, i, seed=43, index=n)
    rep = whitney_b_estimate(y, j, trials=30, seed=43)
    pairs, fixed, slope, terminal = _reference_estimate(y, j, 30, 43)
    assert rep.pairs == pairs and rep.pairs_fixed_base == fixed
    assert rep.slope == slope
    assert len(rep.terminal_pairs) == 30
    for (x, yk), (x_ref, yk_ref) in zip(rep.terminal_pairs, terminal):
        assert np.array_equal(x.matrix, x_ref.matrix)
        assert np.array_equal(yk.matrix, yk_ref.matrix)
        assert not x.matrix.flags.writeable and not yk.matrix.flags.writeable


def test_whitney_estimate_raises_the_first_failing_trials_error(monkeypatch):
    y = sample_rank(3, 1, seed=44)
    late = whitney.TRIAL_CHUNK + 2  # a trial of the second chunk
    trials = late + 3
    seqs = [sequence_toward(y, 2, seed=44, index=t) for t in range(trials)]
    # (trial, step, point): trial 3 fails first at step 15's y_k, then at
    # step 18's x_k; trial 20 of its chunk and trial late of the next fail
    # at earlier steps
    marks = [
        (seqs[t][k][point].matrix, f"trial {t}, step {k}, point {point}")
        for t, k, point in ((3, 15, 1), (3, 18, 0), (20, 2, 0), (late, 1, 1))
    ]
    audit = sampler._audit

    def refuse_marked(xs, spectra, target, tol):
        for m in xs:
            for mark, name in marks:
                if np.array_equal(m, mark):
                    raise RuntimeError(name)
        return audit(xs, spectra, target, tol)

    monkeypatch.setattr(sampler, "_audit", refuse_marked)
    stacked = lambda: whitney_b_estimate(y, 2, trials=trials, seed=44)
    looped = lambda: _reference_estimate(y, 2, trials, 44)
    assert _raised(stacked) == _raised(looped) == (RuntimeError, "trial 3, step 15, point 1")
    # with trial 3 mended, the first failure is trial 20's
    marks[:2] = []
    assert _raised(stacked) == _raised(looped) == (RuntimeError, "trial 20, step 2, point 0")
    # and with trial 20 mended too, the second chunk's
    del marks[0]
    assert _raised(stacked) == _raised(looped) == (RuntimeError, f"trial {late}, step 1, point 1")


def test_whitney_estimate_decomposes_each_constructed_point_once(monkeypatch):
    # validation's eigvalsh is the only one each x_k and each kept
    # retraction gets: the rank audits read its spectra
    y = sample_rank(3, 1, seed=46)
    eigvalsh, retract = np.linalg.eigvalsh, sampler._retract_with_spectra
    rows = {"eigvalsh": 0, "retracted": 0}

    def counted_eigvalsh(a, *args, **kwargs):
        rows["eigvalsh"] += len(a) if a.ndim == 3 else 1
        return eigvalsh(a, *args, **kwargs)

    def counted_retract(hs, label, tol):
        out = retract(hs, label, tol)
        rows["retracted"] += len(out[0])
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(sampler, "_retract_with_spectra", counted_retract)
    whitney_b_estimate(y, 2, trials=30, seed=46)
    assert rows["retracted"] >= 30 * 22
    # one row per x_k and one per retraction attempt that validation kept;
    # y's own label reads the spectrum y carries from its validation
    assert rows["eigvalsh"] == 30 * 22 + rows["retracted"]


def test_whitney_estimate_reads_the_streams_of_a_chunk_at_once(monkeypatch):
    y = sample_rank(3, 1, seed=45)
    real, reads = sampler._uniform_rows, []

    def counted(seed, paths, length):
        paths = list(paths)
        reads.append((paths[0][0], len(paths)))
        return real(seed, paths, length)

    monkeypatch.setattr(sampler, "_uniform_rows", counted)
    whitney_b_estimate(y, 2, trials=50, seed=45)
    chunks = -(-50 // whitney.TRIAL_CHUNK)
    # per chunk, one read of the sequence streams and one of the rotations'
    sizes = [min(whitney.TRIAL_CHUNK, 50 - at) for at in range(0, 50, whitney.TRIAL_CHUNK)]
    assert [rows for path, rows in reads if path == 5] == sizes
    assert [rows for path, rows in reads if path == 2] == sizes
    assert len(sizes) == chunks
