"""Tests of the benchmark's own machinery: self-time arithmetic, the tracer's
restore, metric names and the repeatability of traced counts.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import tracer  # noqa: E402
from workloads import StateCensus  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
REDUCED_CENSUS = {"draws": 100, "frontier_samples": 2, "join_samples": 20}


def test_self_time_on_synthetic_tree():
    # root 0..100 holds a (10..40, itself holding c 20..30), and b (50..60)
    # and d (55..70) that overlap each other; e runs past its parent b
    spans = {
        "root": (0, 100, -1),
        "a": (10, 40, 0),
        "c": (20, 30, 1),
        "b": (50, 60, 0),
        "d": (55, 70, 0),
        "e": (58, 65, 3),
    }
    start, end, parent = (list(col) for col in zip(*spans.values()))
    got = dict(zip(spans, tracer.self_times(start, end, parent)))
    assert got == {"root": 100 - 30 - 20, "a": 30 - 10, "c": 10, "b": 10 - 2, "d": 15, "e": 7}


def test_self_time_ignores_span_order():
    start, end, parent = [50, 0, 10], [60, 100, 20], [1, -1, 1]
    assert tracer.self_times(start, end, parent) == [10, 80, 10]


def _module_dicts():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "stratumlab" or name.startswith("stratumlab.")
    }


def _traced_census_pass():
    wl = StateCensus(0, ROOT, **REDUCED_CENSUS)
    with tracer.Tracer() as tr:
        result = wl.run_pass()
    assert result.failed == 0, result.errors
    return tr


def test_tracer_restores_every_module_dict():
    import stratumlab.verify

    before = _module_dicts()
    tr = tracer.Tracer()
    with tr:
        assert stratumlab.verify.whitney_b_estimate is not before["stratumlab.verify"]["whitney_b_estimate"]
        StateCensus(0, ROOT, **REDUCED_CENSUS).run_pass()
    after = _module_dicts()
    assert len(tr) > 0
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [a for a, obj in attrs.items() if after[name][a] is not obj]
        assert not changed, (name, changed)


def test_counts_and_ratios_repeat_across_traced_passes():
    first, second = (_traced_census_pass().per_layer() for _ in range(2))
    repeatable = [k for k in first if k.endswith(".calls") or k in metrics.RATIOS]
    assert first["states.validate_density.calls"] > 0
    assert {k: first[k] for k in repeatable} == {k: second[k] for k in repeatable}
    # six algebras with 1, 2, 3, 4, 5 and 15 labels: sum L^2 / sum L
    assert first["whitney.frontier_draws_per_source"] == pytest.approx(280 / 30)
    assert first["sampler.attempts_per_draw"] >= 1.0


def test_metric_names_and_benchmark_file():
    traced = _traced_census_pass().per_layer()
    names = [*traced, *metrics.END_TO_END, *metrics.PER_LAYER]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad
    assert set(metrics.PER_LAYER) <= set(traced) | {
        "cli.python_start_ms", "cli.import_ms", "cli.main.us_per_call", "trace.overhead_s"
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == metrics.unit(m["name"]), m
    assert len(spec["per_layer"]) <= 128


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whitney", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
