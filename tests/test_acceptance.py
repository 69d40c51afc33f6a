"""End-to-end acceptance checks at the contract tolerances.

Each test prints one PASS/FAIL verdict line; the sample counts, tolerances,
and runtime budgets are the package's published guarantees, so they are
hard-coded here rather than shared with the library code under test.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from stratumlab import linalg
from stratumlab.charts import chart_config_for, chart_forward, chart_inverse, in_chart_domain
from stratumlab.sampler import sample_rank, sample_unitary
from stratumlab.states import (
    bloch_state,
    cone_state,
    full_algebra,
    is_psd_eigen,
    is_psd_sylvester,
    maximally_mixed,
    validate_density,
)
from stratumlab.states import AlgebraDescriptor
from stratumlab.strata import StratumLabel, retract_to_stratum
from stratumlab.verify import (
    suite_join,
    suite_orbit_census,
    suite_projector_equiv,
    suite_whitney,
)
from stratumlab.whitney import frontier_matrix


@pytest.fixture
def verdict(request):
    # the verdict line must reach the console even under pytest's
    # file-descriptor capture, so capture is suspended while printing
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def emit(name: str, ok: bool) -> bool:
        with manager.global_and_fixture_disabled():
            print(f"{name}: {'PASS' if ok else 'FAIL'}", flush=True)
        return ok

    return emit


def _in_domain_sample(f, rank, cfg, rng, zero_smalls):
    """Point of the chart domain around f: small eigenvalues strictly below
    epsilon (sometimes exactly zero), large ones above gap - epsilon, frame
    rotated a little off f's eigenframe."""
    n = f.dim
    w, v = linalg.eigh_fixed(f.matrix)
    larges = w[n - rank:]
    k = n - rank
    if k:
        cap = 0.9 * min(cfg.epsilon, 0.25 / k)
        smalls = np.zeros(k) if zero_smalls else rng.random(k) * cap
    else:
        smalls = np.zeros(0)
    eigs = np.concatenate([smalls, (1.0 - smalls.sum()) * larges])
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = linalg.hermitian_part(h)
    h = h / linalg.hs_norm(h)
    lam, q = np.linalg.eigh(h)
    rot = (q * np.exp(0.15j * lam)) @ q.conj().T
    frame = rot @ v
    g = (frame * eigs) @ frame.conj().T
    return validate_density(g, f.alg, f.tol)


def test_a01_chart_round_trip(verdict):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    for n in range(2, 7):
        for i in range(1, n):
            f = sample_rank(n, i, seed=11, index=n * 10 + i)
            cfg = chart_config_for(f)
            for s in range(67):
                g = _in_domain_sample(f, i, cfg, rng, zero_smalls=(s % 7 == 0))
                assert in_chart_domain(f, g, cfg)
                back = chart_inverse(chart_forward(f, g, cfg))
                worst = max(worst, linalg.hs_norm(back.matrix - g.matrix))
                count += 1
    elapsed = time.perf_counter() - started
    ok = count >= 1000 and worst <= 1e-10 and elapsed <= 60.0
    assert verdict("A1 chart round-trip", ok), (
        f"samples={count} max_error={worst:.3e} elapsed={elapsed:.1f}s"
    )


def test_a02_projector_route_equivalence(verdict):
    report = suite_projector_equiv(samples=500, seed=0, nodes=64)
    ok = (
        report["passed"]
        and report["max_error_full_nodes"] <= 1e-8
        and report["error_ratio_projector"] >= 10.0
        and report["error_ratio_small_part"] >= 10.0
    )
    assert verdict("A2 projector route equivalence", ok), report


def _traceless_hermitian_basis(n):
    basis = []
    for r in range(n):
        for c in range(r + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = e[c, r] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = -1j / np.sqrt(2.0)
            e[c, r] = 1j / np.sqrt(2.0)
            basis.append(e)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        basis.append(np.diag(d / np.sqrt(k * (k + 1.0))).astype(complex))
    return basis


def _fd_jacobian_rank(rho, label, step=1e-6):
    """Rank of the retraction's differential at rho, by central differences
    over a full traceless Hermitian basis of the ambient algebra."""
    basis = _traceless_hermitian_basis(rho.dim)
    if not basis:
        return 0
    cols = []
    for e in basis:
        plus = retract_to_stratum(rho.matrix + step * e, label).matrix
        minus = retract_to_stratum(rho.matrix - step * e, label).matrix
        d = (plus - minus) / (2.0 * step)
        cols.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
    sv = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return int(np.sum(sv > 1e-2 * sv[0]))


def _conditioned_center(n, i, rng, index):
    # eigenvalues bounded away from zero keep the truncation smooth at the
    # finite-difference step
    lam = 0.5 + rng.random(i)
    lam = lam / lam.sum()
    u = sample_unitary(n, seed=13, index=index)
    m = (u[:, :i] * lam) @ u[:, :i].conj().T
    return validate_density(m, full_algebra(n), 1e-9)


def test_a03_stratum_dimension_jacobian(verdict):
    rng = np.random.default_rng(13)
    bad = []
    for n in range(1, 6):
        for i in range(1, n + 1):
            label = StratumLabel(full_algebra(n), (i,))
            expected = n * n - (n - i) * (n - i) - 1
            for p in range(20):
                rho = _conditioned_center(n, i, rng, index=n * 1000 + i * 100 + p)
                got = _fd_jacobian_rank(rho, label)
                if got != expected:
                    bad.append((n, i, p, got, expected))
    ok = not bad
    assert verdict("A3 stratum dimension by FD Jacobian", ok), bad[:5]


def test_a04_closed_form_eigenvalue_grids(verdict):
    res = 25
    axis = np.linspace(-1.0, 1.0, res)
    worst = 0.0
    for x1 in axis:
        for x2 in axis:
            for x3 in axis:
                norm = float(np.sqrt(x1 * x1 + x2 * x2 + x3 * x3))
                if norm > 1.0 + 1e-12:
                    continue
                got = np.linalg.eigvalsh(bloch_state((x1, x2, x3)).matrix)
                expected = np.array([(1.0 - norm) / 2.0, (1.0 + norm) / 2.0])
                worst = max(worst, float(np.max(np.abs(got - expected))))
    t_axis = np.linspace(0.0, 1.0, res)
    for t in t_axis:
        for x1 in axis:
            for x3 in axis:
                norm = float(np.hypot(x1, x3))
                if norm > t + 1e-12:
                    continue
                got = np.linalg.eigvalsh(cone_state(t, (x1, 0.0, x3)).matrix)
                expected = np.sort([1.0 - t, (t + norm) / 2.0, (t - norm) / 2.0])
                worst = max(worst, float(np.max(np.abs(got - expected))))
    mm = maximally_mixed(AlgebraDescriptor((1, 2)))
    mixed_err = linalg.hs_norm(cone_state(2.0 / 3.0, (0.0, 0.0, 0.0)).matrix - mm.matrix)
    grid_t = t_axis[16]
    mixed_err = max(mixed_err, linalg.hs_norm(cone_state(grid_t, (0.0, 0.0, 0.0)).matrix - mm.matrix))
    ok = worst <= 1e-12 and mixed_err <= 1e-12
    assert verdict("A4 closed-form eigenvalue grids", ok), (
        f"max_eig_error={worst:.3e} mixed_error={mixed_err:.3e}"
    )


def test_a05_orbit_census(verdict):
    report = suite_orbit_census(draws=10_000, seed=0)
    m2, cm2 = report["censuses"]
    ok = (
        report["passed"]
        and m2["distinct"] == 2
        and cm2["distinct"] == 2
        and m2["dimension_identity_holds"]
        and cm2["dimension_identity_holds"]
        and m2["generic_orbit_dim"] == [2]
    )
    assert verdict("A5 orbit census", ok), {
        "m2": m2["signatures"],
        "cm2": cm2["signatures"],
    }


def test_a06_whitney_gap_decay(verdict):
    started = time.perf_counter()
    report = suite_whitney(max_dim=4, trials=50, seed=0)
    elapsed = time.perf_counter() - started
    rows_ok = all(
        row["passed"]
        and row["terminal_gap"] <= 1e-3
        and row["terminal_gap_fixed_base"] <= 1e-3
        and row["terminal_distance"] <= 1e-6
        and row["control_fraction_failed"] >= 0.95
        for row in report["pairs"]
    )
    ok = report["passed"] and rows_ok and len(report["pairs"]) == 10 and elapsed <= 120.0
    assert verdict("A6 secant-tangent gap decay", ok), (
        f"elapsed={elapsed:.1f}s pairs={report['pairs']}"
    )


def test_a07_frontier_reachability(verdict):
    tables = {}
    for sizes in ((1,), (2,), (3,), (4,), (1, 2), (1, 1, 1, 1)):
        tables[sizes] = frontier_matrix(AlgebraDescriptor(sizes), samples=15, seed=0)
    ok = all(t["equal"] for t in tables.values())
    assert verdict("A7 frontier reachability order", ok), {
        k: t["mismatches"] for k, t in tables.items() if not t["equal"]
    }


def test_a08_join_round_trip_and_pieces(verdict):
    report = suite_join(samples=1000, seed=0)
    expected_pieces = {
        "R1": 1,
        "R2": 2,
        "S1": 1,
        "S2": 2,
        "R1xS1xI": 2,
        "R1xS2xI": 3,
        "R2xS1xI": 3,
        "R2xS2xI": 4,
    }
    ok = (
        report["passed"]
        and report["round_trip_max_error"] <= 1e-10
        and report["endpoint_collapse_exact"]
        and report["piece_count"] == 8
        and report["piece_ranks"] == expected_pieces
        and "rank" in report["note"]
        and "R2xS2xI" in report["note"]
    )
    assert verdict("A8 join round-trip and piece table", ok), report


def test_a09_psd_route_equivalence(verdict):
    rng = np.random.default_rng(1909)
    disagreements = 0
    for s in range(10_000):
        n = 1 + s % 6
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = s % 4
        if kind == 0:
            m = g @ g.conj().T
        elif kind == 1:
            m = linalg.hermitian_part(g)
        elif kind == 2:
            m = g @ g.conj().T
            m = m - (0.03 * np.trace(m).real / n) * np.eye(n)
        else:
            r = 1 + s % n
            b = g[:, :r]
            m = b @ b.conj().T
        if is_psd_sylvester(m) != is_psd_eigen(m):
            disagreements += 1
    ok = disagreements == 0
    assert verdict("A9 PSD route equivalence", ok), f"disagreements={disagreements}"


def test_a10_byte_determinism(verdict):
    commands = (
        [sys.executable, "-m", "stratumlab", "demo", "bloch", "--resolution", "11"],
        [sys.executable, "-m", "stratumlab", "verify", "projector-equiv",
         "--samples", "60", "--seed", "5"],
    )
    ok = True
    for cmd in commands:
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    assert verdict("A10 byte determinism", ok)
