"""stratumlab benchmark: time to verdict end to end, call costs per layer.

    python3 perfbench/run.py --workload whitney|state-census|spectral|cli|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. Each workload runs in one worker process with BLAS pinned
to one thread. With --trace 0 the worker runs closed-loop passes for
--seconds and the end-to-end metrics are reported (wall_s, setup_s,
peak_rss_mb; request latencies and fail_ratio are printed alongside). With
--trace 1 one pass is traced and the per-layer metrics are reported.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Full results, machine facts
and span files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as M

WORKLOAD_NAMES = ("whitney", "state-census", "spectral", "cli")
DEFAULT_SEED = 0  # the held-out seed for confirming claims is 20201104
SETUP_RUNS = 3  # set-ups per untraced run, the measuring worker's included
RUN_LIMIT_S = 170.0  # every worker of one workload ends within this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_worker(root: Path, env: dict, deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """q-quantile by statistics.quantiles' exclusive method (100 cut points)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def untraced(root, env, workload, seed, seconds, say) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [call_worker(root, env, deadline, *common, "--phase", "setup")["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = call_worker(root, env, deadline, *common, "--phase", "run", "--seconds", str(seconds))
    setups.append(res["setup_s"])
    passes = res["pass_s"]
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    say(f"# machine {json.dumps(res['machine'], sort_keys=True)}")
    say(f"{workload} wall_s {metrics['wall_s']:.4f} s (median of {len(passes)} passes)")
    say(f"{workload} setup_s {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups)")
    say(f"{workload} peak_rss_mb {metrics['peak_rss_mb']:.1f} MB"
        f" ({'largest request process' if workload == 'cli' else 'worker'})")
    say(f"{workload} fail_ratio {res['failed'] / res['attempted']:.6g}"
        f" ({res['failed']} of {res['attempted']} operations failed)")
    lat = res["latencies_ms"]
    if lat:
        res["request_p50_ms"] = statistics.median(lat)
        res["request_p90_ms"] = quantile(lat, 0.9)
        say(f"{workload} request_p50_ms {res['request_p50_ms']:.2f} ms (of {len(lat)} requests)")
        say(f"{workload} request_p90_ms {res['request_p90_ms']:.2f} ms"
            f" (of {len(lat)} requests, {sum(x > res['request_p90_ms'] for x in lat)} beyond it)")
    same = len(set(res["digests"])) == 1
    say(f"{workload} digest {res['digests'][0]}"
        f" ({'equal' if same else 'NOT equal'} across {len(passes)} passes)")
    res["setup_runs_s"] = setups
    return {"metrics": with_units(metrics), "detail": res}


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": M.unit(name)} for name, value in metrics.items()}


def traced(root, env, workload, seed, say) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    res = call_worker(root, env, deadline, "--workload", workload, "--seed", str(seed),
                      "--phase", "trace")
    full = res["metrics"]
    say(f"# machine {json.dumps(res['machine'], sort_keys=True)}")
    say(f"{workload} trace overhead {full['trace.overhead_s']:.4f} s"
        f" (traced pass {res['traced_s']:.4f} s, untraced {res['untraced_s']:.4f} s,"
        f" {res['spans']} spans in {res['spans_file']})")
    for name in sorted(full):
        if full[name]:
            say(f"{workload} {name} {full[name]:.6g} {M.unit(name)}")
    say(f"{workload} digest {res['digests'][0]}"
        f" ({'equal' if len(set(res['digests'])) == 1 else 'NOT equal'} traced and untraced)")
    return {"metrics": with_units({name: full.get(name, 0.0) for name in M.PER_LAYER}),
            "detail": res}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default 0; held-out seed 20201104)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "stratumlab" / "__init__.py").is_file():
        sys.stderr.write(f"no stratumlab sources under {root / 'src'}; run inside a checkout\n")
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = worker_env(root)

    def say(line: str) -> None:
        print(line, flush=True)

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            if args.trace:
                results[workload] = traced(root, env, workload, args.seed, say)
            else:
                results[workload] = untraced(root, env, workload, args.seed, args.seconds, say)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = sum(r["detail"]["attempted"] for r in results.values())
    failed = sum(r["detail"]["failed"] for r in results.values())
    for workload, r in results.items():
        for err in r["detail"]["errors"]:
            say(f"{workload} FAILED {err}")
    if len(results) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "results": results}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
