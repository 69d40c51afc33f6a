"""One benchmark process: set up one workload, then measure or trace it.

    python3 perfbench/worker.py --workload W --seed N --phase setup|run|trace
        [--seconds S]

run.py starts it with BLAS pinned to one thread and src/ on PYTHONPATH. It
prints one JSON object on its last stdout line:
  setup  set-up time only;
  run    at least MIN_PASSES passes, then more until the next one would end
         over half a pass after --seconds; with each pass's wall time and
         report digest, the operations attempted and failed, request
         latencies and peak RSS;
  trace  one untraced and one traced pass of Workload.traced_pass, with the
         per-layer metrics of the traced pass; spans go to .perfbench_out/
         as JSONL.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import stratumlab  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3  # so the median of a run's passes can discard one slow pass


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "stratumlab": stratumlab.__version__,
    }


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed_pass(run):
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def measure(wl, seconds: float) -> dict:
    walls, digests, latencies = [], [], []
    attempted = failed = 0
    errors = []
    begun = time.perf_counter()
    while True:
        wall, res = timed_pass(wl.run_pass)
        walls.append(wall)
        digests.append(digest(res.canonical()))
        latencies += res.latencies_ms
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        # start no pass expected to end more than half a pass after the deadline
        late = time.perf_counter() - begun + statistics.median(walls) / 2 >= seconds
        if late and len(walls) >= MIN_PASSES:
            break
    if len(set(digests)) > 1:
        # report bytes changed between passes of one run (A10 from outside)
        failed += len(digests) - digests.count(digests[0])
        errors.append(f"report digests differ across passes: {digests}")
    who = resource.RUSAGE_CHILDREN if wl.work_in_children else resource.RUSAGE_SELF
    return {
        "pass_s": walls,
        "digests": digests,
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def trace(wl, out_dir: Path) -> dict:
    untraced_s, untraced = timed_pass(wl.traced_pass)
    tracer = Tracer()
    with tracer:
        traced_s, traced = timed_pass(wl.traced_pass)
    metrics = tracer.per_layer()
    metrics.update(wl.process_costs(untraced))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    spans = out_dir / f"spans-{wl.name}.jsonl"
    tracer.write_jsonl(spans)
    digests = [digest(untraced.canonical()), digest(traced.canonical())]
    errors = untraced.errors + traced.errors
    failed = untraced.failed + traced.failed
    if digests[0] != digests[1]:
        failed += 1
        errors.append(f"traced pass changed the report digest: {digests}")
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer),
        "spans_file": os.path.relpath(spans, wl.root),
        "digests": digests,
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    package = Path(stratumlab.__file__).resolve()
    if package.parent != root / "src" / "stratumlab":
        sys.stderr.write(f"stratumlab imported from {package}, not from this checkout\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed, root)
    wl.setup()
    result = {"setup_s": time.perf_counter() - STARTED, "machine": machine_facts()}
    if args.phase == "run":
        result.update(measure(wl, args.seconds))
    elif args.phase == "trace":
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        result.update(trace(wl, out_dir))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
