"""The chart path held bit for bit to its direct form, and the spectrum a
validated state carries.

_reference_forward and _reference_inverse spell the chart out step by step:
eigh_fixed on the point, the center's rank from its own eigvalsh, and every
part from the same products. The A1 mix (every center rank of M_2 to M_6,
67 in-domain points each, as the spectral benchmark draws them) runs through
both routes in process, so the comparison holds on any host.
"""

import numpy as np
import pytest

from stratumlab import (
    AlgebraDescriptor,
    StratumLabel,
    approach_state,
    bloch_state,
    chart_config_for,
    chart_forward,
    chart_inverse,
    cone_state,
    convex_split,
    full_algebra,
    in_chart_domain,
    join_state,
    linalg,
    make_join_point,
    maximally_mixed,
    retract_to_stratum,
    sample_algebra,
    sample_hs,
    sample_rank,
    sequence_toward,
    simplex_state,
    validate_density,
    whitney_b_estimate,
)
from stratumlab.charts import _in_band
from stratumlab.strata import rank_from_eigenvalues


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_forward(f, g, cfg):
    """Frames, cone, base and alpha of the chart at f, step by step."""
    w, v = linalg.eigh_fixed(g.matrix)
    assert not _in_band(w, cfg).any()
    i = rank_from_eigenvalues(np.linalg.eigvalsh(f.matrix), f.tol)
    n_small = int(np.count_nonzero(w < cfg.epsilon))
    assert n_small == f.dim - i
    kernel, rng = v[:, :n_small], v[:, n_small:]
    cone = linalg.hermitian_part(kernel.conj().T @ g.matrix @ kernel)
    alpha = float(np.trace(cone).real)
    base = linalg.hermitian_part(rng.conj().T @ g.matrix @ rng) / (1.0 - alpha)
    return kernel, rng, cone, base, alpha


def _reference_inverse(kernel, rng, cone, base, alpha):
    """The Hermitian matrix the chart inverse validates."""
    m = kernel @ cone @ kernel.conj().T + (1.0 - alpha) * (rng @ base @ rng.conj().T)
    return linalg.hermitian_part(m)


def _a1_mix(seed: int, points: int = 67):
    """Every (n, rank) center with 2 <= n <= 6 and rank < n, and its
    in-domain points: small eigenvalues below epsilon (exactly zero at every
    seventh point), large ones f's rescaled, the frame rotated a little."""
    rng = np.random.default_rng([seed, 1])
    for n in range(2, 7):
        for i in range(1, n):
            f = sample_rank(n, i, seed, index=n * 10 + i)
            cfg = chart_config_for(f)
            w, v = linalg.eigh_fixed(f.matrix)
            k = n - i
            gs = []
            for s in range(points):
                if s % 7:
                    smalls = rng.random(k) * 0.9 * min(cfg.epsilon, 0.25 / k)
                else:
                    smalls = np.zeros(k)
                eigs = np.concatenate([smalls, (1.0 - smalls.sum()) * w[k:]])
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                h = (h + h.conj().T) / 2.0
                lam, q = np.linalg.eigh(h / np.linalg.norm(h))
                frame = ((q * np.exp(0.15j * lam)) @ q.conj().T) @ v
                gs.append(validate_density((frame * eigs) @ frame.conj().T, f.alg, f.tol))
            yield f, cfg, gs


@pytest.mark.parametrize("seed", (0, 20201104))
def test_chart_path_matches_its_reference(seed):
    trips = cones = bases = 0
    for f, cfg, gs in _a1_mix(seed):
        for g in gs:
            assert in_chart_domain(f, g, cfg)
            p = chart_forward(f, g, cfg)
            kernel, rng, cone, base, alpha = _reference_forward(f, g, cfg)
            assert _same_bits(p.frame_kernel, kernel) and _same_bits(p.frame_range, rng)
            assert _same_bits(p.cone_part, cone) and _same_bits(p.base_part, base)
            assert p.alpha == alpha
            back = chart_inverse(p)
            h = _reference_inverse(kernel, rng, cone, base, alpha)
            assert _same_bits(back.matrix, h)
            assert _same_bits(back.eigenvalues(), np.linalg.eigvalsh(h))
            trips += 1
            cones += cone.shape == (1, 1)
            bases += base.shape == (1, 1)
    # the centers of rank n - 1 give 1 x 1 cones, those of rank 1 1 x 1 bases
    assert (trips, cones, bases) == (15 * 67, 5 * 67, 5 * 67)


def test_round_trip_decomposes_three_times(monkeypatch):
    # the cone's and the base's checks and the rebuilt state's validation;
    # the point's spectrum and the center's come from their validation
    f, cfg, gs = next(_a1_mix(0, points=2))
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for g in gs:
        assert in_chart_domain(f, g, cfg)
        chart_inverse(chart_forward(f, g, cfg))
    assert calls == {"eigvalsh": 3 * len(gs), "eigh": len(gs)}


def _states_of_every_constructor():
    alg, cone_alg = full_algebra(3), AlgebraDescriptor((1, 2))
    y = sample_rank(3, 1, seed=7)
    label = StratumLabel(alg, (1,))
    states = {
        "validate_density": validate_density(np.diag([0.5, 0.3, 0.2]).astype(complex), alg),
        "sample_hs": sample_hs(4, seed=7),
        "sample_rank": y,
        "sample_algebra": sample_algebra(cone_alg, seed=7, ranks=(1, 1)),
        "sample_algebra_hs": sample_algebra(cone_alg, seed=7),
        "retract_to_stratum": retract_to_stratum(sample_hs(3, seed=8).matrix, label),
        "approach_state": approach_state(y, StratumLabel(alg, (2,)), seed=7),
        "approach_state_to_its_own_stratum": approach_state(y, label, seed=7),
        "bloch_state": bloch_state((0.1, 0.2, 0.3)),
        "cone_state": cone_state(0.5, (0.1, 0.0, 0.2)),
        "simplex_state": simplex_state([0.2, 0.3, 0.5]),
        "maximally_mixed": maximally_mixed(cone_alg),
    }
    for k, (x, yk) in enumerate(sequence_toward(y, 2, length=4, seed=7)):
        states[f"sequence_toward_x{k}"], states[f"sequence_toward_y{k}"] = x, yk
    tetra = AlgebraDescriptor((1, 1, 1, 1))
    point = make_join_point(
        tetra, (0.6, 0.4), (simplex_state([0.7, 0.3]), simplex_state([0.2, 0.8])), split=(2, 2)
    )
    states["join_state"] = join_state(point)
    for j, comp in enumerate(convex_split(states["join_state"], split=(2, 2)).components):
        states[f"convex_split_{j}"] = comp
    f = sample_rank(3, 2, seed=9)
    states["chart_inverse"] = chart_inverse(chart_forward(f, f))
    report = whitney_b_estimate(y, 2, trials=2, seed=7)
    for t, (x, yk) in enumerate(report.terminal_pairs):
        states[f"whitney_x{t}"], states[f"whitney_y{t}"] = x, yk
    return states


@pytest.mark.parametrize("name, rho", list(_states_of_every_constructor().items()))
def test_carried_spectrum_is_validations_eigvalsh(name, rho):
    w = rho.eigenvalues()
    assert _same_bits(w, np.linalg.eigvalsh(rho.matrix)), name
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert "spectrum" not in repr(rho)
