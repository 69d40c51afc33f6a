"""The benchmark's four workloads, driven through stratumlab's public API.

Each workload makes its inputs from a seed in setup(), then runs one pass
per run_pass() call and returns what the pass produced: the operations
attempted and failed, the canonical report text of the pass (its digest must
not change between passes), and, for the CLI workload, the latency of each
request. Library functions are looked up on their modules at call time, so
a traced pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import stratumlab.charts
import stratumlab.cli
import stratumlab.fileio
import stratumlab.linalg
import stratumlab.sampler
import stratumlab.states
import stratumlab.verify

ROUND_TRIP_LIMIT = 1e-10
PROBES = 5  # fresh interpreters per start-up / import probe


@dataclasses.dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    reports: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    latencies_ms: list = dataclasses.field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def suite(self, name: str, **kwargs) -> None:
        """Run one verify suite as one operation; it fails when it raises or
        reports passed: false."""
        self.attempted += 1
        try:
            report = getattr(stratumlab.verify, name)(**kwargs)
        except Exception as exc:  # a crashing suite is a failed operation
            self.fail(f"{name} raised {exc!r}")
            report = {"suite": name, "error": type(exc).__name__}
        else:
            if report.get("passed") is not True:
                self.fail(f"{name} reported passed={report.get('passed')!r}")
        self.reports.append(report)

    def canonical(self) -> str:
        return stratumlab.fileio.canonical_json(self.reports)


class Workload:
    """One closed-loop caller: setup() once, then run_pass() repeatedly.

    traced_pass() is what the traced run records; it is run_pass() except
    where the work of a pass happens outside this process.
    """

    name = ""
    sizes: dict = {}
    # whether the pass's memory is used by child processes rather than this one
    work_in_children = False

    def __init__(self, seed: int, root: Path, **sizes):
        unknown = set(sizes) - set(self.sizes)
        if unknown:
            raise ValueError(f"unknown sizes for {self.name}: {sorted(unknown)}")
        self.seed = seed
        self.root = root
        self.size = {**self.sizes, **sizes}

    def setup(self) -> None:
        """Make the inputs and run a short warm-up."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def traced_pass(self) -> PassResult:
        return self.run_pass()

    def process_costs(self, untraced: PassResult) -> dict:
        """Per-layer metrics the traced pass cannot see, given the untraced
        traced_pass() result."""
        return {}


class Whitney(Workload):
    """Whitney (B) gap decay at the A6 size."""

    name = "whitney"
    sizes = {"max_dim": 4, "trials": 50}

    def setup(self) -> None:
        stratumlab.verify.suite_whitney(max_dim=2, trials=2, seed=self.seed)

    def run_pass(self) -> PassResult:
        out = PassResult()
        out.suite("suite_whitney", max_dim=self.size["max_dim"],
                  trials=self.size["trials"], seed=self.seed)
        return out


class StateCensus(Workload):
    """Orbit census, frontier order and join suites at the A5, A7, A8 sizes."""

    name = "state-census"
    sizes = {"draws": 10_000, "frontier_samples": 15, "join_samples": 1000}

    def setup(self) -> None:
        stratumlab.verify.suite_orbit_census(draws=20, seed=self.seed)
        stratumlab.verify.suite_frontier(samples=1, seed=self.seed, algebras=((2,), (1, 2)))
        stratumlab.verify.suite_join(samples=10, seed=self.seed)

    def run_pass(self) -> PassResult:
        out = PassResult()
        out.suite("suite_orbit_census", draws=self.size["draws"], seed=self.seed)
        out.suite("suite_frontier", samples=self.size["frontier_samples"], seed=self.seed)
        out.suite("suite_join", samples=self.size["join_samples"], seed=self.seed)
        return out


def in_domain_point(f, rank: int, cfg, rng: np.random.Generator, zero_smalls: bool):
    """Point of the chart domain around f, as in the A1 acceptance mix.

    Small eigenvalues lie strictly below epsilon (exactly zero when
    zero_smalls), large ones are f's rescaled so they stay above
    gap - epsilon, and the eigenframe is rotated a little off f's.
    """
    n = f.dim
    w, v = stratumlab.linalg.eigh_fixed(f.matrix)
    k = n - rank
    if k and not zero_smalls:
        smalls = rng.random(k) * 0.9 * min(cfg.epsilon, 0.25 / k)
    else:
        smalls = np.zeros(k)
    eigs = np.concatenate([smalls, (1.0 - smalls.sum()) * w[k:]])
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0
    lam, q = np.linalg.eigh(h / np.linalg.norm(h))
    frame = ((q * np.exp(0.15j * lam)) @ q.conj().T) @ v
    return stratumlab.states.validate_density((frame * eigs) @ frame.conj().T, f.alg, f.tol)


def chart_centers(seed: int, points_per_center: int):
    """Every (n, rank) with 2 <= n <= 6 and rank < n: a sampled center and
    its in-domain points."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for n in range(2, 7):
        for i in range(1, n):
            f = stratumlab.sampler.sample_rank(n, i, seed, index=n * 10 + i)
            cfg = stratumlab.charts.chart_config_for(f)
            points = [in_domain_point(f, i, cfg, rng, zero_smalls=(s % 7 == 0))
                      for s in range(points_per_center)]
            out.append((f, points))
    return out


class Spectral(Workload):
    """Projector route equivalence at the A2 size plus the A1 chart round
    trips (15 centers x 67 points = 1005)."""

    name = "spectral"
    sizes = {"samples": 500, "nodes": 64, "points_per_center": 67}

    def setup(self) -> None:
        self.centers = chart_centers(self.seed, self.size["points_per_center"])
        stratumlab.verify.suite_projector_equiv(samples=10, seed=self.seed, nodes=self.size["nodes"])

    def run_pass(self) -> PassResult:
        out = PassResult()
        out.suite("suite_projector_equiv", samples=self.size["samples"],
                  seed=self.seed, nodes=self.size["nodes"])
        charts = stratumlab.charts
        errors = []
        for c, (f, points) in enumerate(self.centers):
            cfg = charts.chart_config_for(f)
            for p, g in enumerate(points):
                out.attempted += 1
                try:
                    if not charts.in_chart_domain(f, g, cfg):
                        raise ValueError("point outside the chart domain")
                    back = charts.chart_inverse(charts.chart_forward(f, g, cfg))
                except Exception as exc:  # a raising round trip is a failed operation
                    out.fail(f"round trip {c}/{p} raised {exc!r}")
                    errors.append(None)
                    continue
                err = stratumlab.linalg.hs_norm(back.matrix - g.matrix)
                errors.append(err)
                if not err <= ROUND_TRIP_LIMIT:
                    out.fail(f"round trip {c}/{p} error {err:.3e}")
        out.reports.append({"round_trip_errors": errors})
        return out


class Cli(Workload):
    """Closed loop of `python -m stratumlab classify F` and `chart C P`
    processes, alternating over inputs written from the seed."""

    name = "cli"
    # three passes of 34 give a run's p90 ten requests beyond it
    sizes = {"requests": 34}
    work_in_children = True

    # (block sizes, per-block ranks or None for full rank) of classify inputs
    STATES = (((2,), None), ((3,), (1,)), ((1, 2), None), ((4,), (2,)), ((1, 1, 1, 1), None),
              ((2, 2), (1, 2)), ((6,), (3,)), ((2, 3), None), ((5,), (4,)), ((1, 2), (1, 1)))
    # (n, rank) of chart centers
    CHARTS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 3), (6, 5))

    def setup(self) -> None:
        inputs = self.root / ".perfbench_out" / "cli"
        inputs.mkdir(parents=True, exist_ok=True)
        write = stratumlab.fileio.write_matrix
        sampler = stratumlab.sampler
        rng = np.random.default_rng([self.seed, 2])
        classify_args, chart_args = [], []
        for k, ((sizes, ranks), (n, i)) in enumerate(zip(self.STATES, self.CHARTS)):
            alg = stratumlab.states.AlgebraDescriptor(sizes)
            rho = sampler.sample_algebra(alg, self.seed, ranks=ranks, index=100 + k)
            path = inputs / f"state_{k:02d}.json"
            write(str(path), rho.matrix, alg)
            classify_args.append(["classify", self._rel(path)])

            f = sampler.sample_rank(n, i, self.seed, index=200 + k)
            g = in_domain_point(f, i, stratumlab.charts.chart_config_for(f), rng,
                                zero_smalls=(k % 3 == 0))
            center, point = inputs / f"center_{k:02d}.json", inputs / f"point_{k:02d}.json"
            write(str(center), f.matrix, f.alg)
            write(str(point), g.matrix, g.alg)
            chart_args.append(["chart", self._rel(center), self._rel(point)])
        self.requests = [
            (chart_args if r % 2 else classify_args)[(r // 2) % len(classify_args)]
            for r in range(self.size["requests"])
        ]
        self.first_stdout: dict[tuple, bytes] = {}
        for argv in (classify_args[0], chart_args[0]):
            self._request(argv, PassResult())

    def _rel(self, path: Path) -> str:
        # relative to the checkout, so report bytes do not depend on where
        # the checkout lives
        return os.path.relpath(path, self.root)

    def _request(self, argv: list, out: PassResult) -> bytes:
        out.attempted += 1
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "stratumlab", *argv],
                              cwd=self.root, capture_output=True, timeout=120)
        out.latencies_ms.append((time.perf_counter() - started) * 1e3)
        self._check(argv, proc.returncode, proc.stdout, out)
        return proc.stdout

    def _check(self, argv: list, code: int, stdout: bytes, out: PassResult) -> None:
        first = self.first_stdout.setdefault(tuple(argv), stdout)
        if code != 0:
            out.fail(f"{' '.join(argv)} exited {code}")
        elif stdout != first:
            out.fail(f"{' '.join(argv)} printed other bytes than its first request")

    def _pass(self, request) -> PassResult:
        out = PassResult()
        seen = {}
        for argv in self.requests:
            seen.setdefault(tuple(argv), request(argv, out))
        out.reports.append({" ".join(k): v.decode("utf-8", "replace") for k, v in sorted(seen.items())})
        return out

    def run_pass(self) -> PassResult:
        return self._pass(self._request)

    def _in_process_request(self, argv: list, out: PassResult) -> bytes:
        """The same request through stratumlab.cli.main in this process."""
        out.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = stratumlab.cli.main(list(argv))
        out.latencies_ms.append((time.perf_counter() - started) * 1e3)
        data = stdout.getvalue().encode("utf-8")
        self._check(argv, code, data, out)
        return data

    def traced_pass(self) -> PassResult:
        # the requests' own processes cannot be traced from here, so the
        # traced run replays them in-process through cli.main
        return self._pass(self._in_process_request)

    def process_costs(self, untraced: PassResult) -> dict:
        return {
            "cli.python_start_ms": 1e3 * _probe("pass"),
            "cli.import_ms": 1e3 * _probe(
                "import time; t = time.perf_counter(); import stratumlab; "
                "print(time.perf_counter() - t)"),
            "cli.main.us_per_call": 1e3 * statistics.mean(untraced.latencies_ms),
        }


def _probe(code: str) -> float:
    """Median over fresh interpreters of the seconds `code` prints, or of the
    interpreter's wall time when it prints nothing."""
    values = []
    for _ in range(PROBES):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        wall = time.perf_counter() - started
        values.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return statistics.median(values)


WORKLOADS = {w.name: w for w in (Whitney, StateCensus, Spectral, Cli)}
