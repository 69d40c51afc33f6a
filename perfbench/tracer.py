"""Span tracing of stratumlab's public functions, installed from outside.

Tracer.install() wraps every public function of the layer modules and
rebinds the wrapper under every name that holds the original in any loaded
``stratumlab.*`` module, because the modules import each other's functions
by name (``verify`` binds ``whitney_b_estimate``, ``sampler`` binds
``classify``, ...). Tracer.uninstall() puts every original binding back.

Each call records one span in columnar arrays: function, start and end
(perf_counter_ns), parent span, and the state dimension n, taken from the
first argument when it is a DensityMatrix or a square array, else from the
result. per_layer() turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

from metrics import LAYERS

# called once per basis element; wrapping them would make the trace mostly
# about its own overhead
UNTRACED = frozenset({"linalg.hs_inner", "linalg.hs_norm", "linalg.hermitian_part"})

# the hot primitives whose cost per call is reported at each state dimension
PRIMITIVES = (
    "states.validate_density",
    "linalg.eigh_fixed",
    "strata.classify",
    "orbits.orbit_signature",
    "orbits.orbit_dim",
    "strata.tangent_basis",
    "whitney.gap_line_space",
    "charts.contour_projector",
    "charts.contour_small_part",
    "sampler.sample_algebra",
    "sampler.sample_block_unitary",
    "sampler.sample_hermitian",
    "sampler.sample_hs",
    "sampler.sample_rank",
    "sampler.sample_unitary",
)
STATE_DIMS = (2, 3, 4, 6)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_trials(fn, args, kwargs) -> int:
    return int(_arguments(fn, args, kwargs)["trials"])


def _note_sources(fn, args, kwargs) -> int:
    """Source draws a frontier matrix needs: labels x samples."""
    bound = _arguments(fn, args, kwargs)
    labels = math.prod(b + 1 for b in bound["alg"].block_sizes) - 1
    return labels * int(bound["samples"])


# functions whose spans also keep one number read off their arguments
NOTES = {
    "whitney.whitney_b_estimate": _note_trials,
    "whitney.frontier_matrix": _note_sources,
}


def _state_dim(x) -> int:
    matrix = getattr(x, "matrix", x)
    if isinstance(matrix, np.ndarray) and matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]:
        return int(matrix.shape[0])
    return 0


class Tracer:
    """Columnar span store plus the wrap/restore bookkeeping."""

    def __init__(self):
        self.names: list[str] = []
        self.func = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.dim = array("i")
        self.notes: dict[int, int] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        func_id = len(self.names)
        self.names.append(name)
        func, start, end, parent, dim = self.func, self.start, self.end, self.parent, self.dim
        stack, notes, clock = self._stack, self.notes, time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            func.append(func_id)
            parent.append(stack[-1] if stack else -1)
            n = _state_dim(args[0]) if args else 0
            dim.append(n)
            end.append(0)
            if note is not None:
                notes[sid] = note(fn, args, kwargs)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if not n:
                dim[sid] = _state_dim(result)
            return result

        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stratumlab.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, name))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "stratumlab" and not mod_name.startswith("stratumlab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._bindings:
            module, attr, obj = self._bindings.pop()
            setattr(module, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self)):
                fh.write(json.dumps(
                    {"id": sid, "name": self.names[self.func[sid]], "start_ns": self.start[sid],
                     "end_ns": self.end[sid], "parent": self.parent[sid], "n": self.dim[sid]},
                    separators=(",", ":")) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        return layer_metrics(self.names, self.func, self.start, self.end,
                             self.parent, self.dim, self.notes)


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children count once.
    """
    order = sorted(range(len(start)), key=lambda s: start[s])
    covered = [0] * len(start)
    reach = list(start)  # end of the part of each span its children cover so far
    for s in order:
        p = parent[s]
        if p < 0:
            continue
        lo = max(start[s], reach[p])
        hi = min(end[s], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[s] - start[s] - covered[s] for s in range(len(start))]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(names, func, start, end, parent, dim, notes) -> dict[str, float]:
    """Counts, self times, per-dimension costs and ratios from a span store.

    Every traced function and module gets an entry, zero when it never ran,
    so two traces always share one key set.
    """
    count = len(start)
    own = self_times(start, end, parent)
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    dim_ns: dict[tuple[int, int], list[int]] = {}
    for s in range(count):
        f = func[s]
        calls[f] += 1
        self_ns[f] += own[s]
        cell = dim_ns.setdefault((f, dim[s]), [0, 0])
        cell[0] += 1
        cell[1] += end[s] - start[s]

    ids = {name: i for i, name in enumerate(names)}
    out: dict[str, float] = {}
    for name, i in sorted(ids.items()):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_ms"] = self_ns[i] / 1e6
    for name in PRIMITIVES:
        for n in STATE_DIMS:
            cell = dim_ns.get((ids.get(name, -1), n), (0, 0))
            out[f"{name}.n{n}.us_per_call"] = cell[1] / cell[0] / 1e3 if cell[0] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_ns[i] for name, i in ids.items() if name.split(".")[0] == layer
        ) / 1e9

    # ratios from span parentage: is a span inside a Whitney estimate or
    # control, a frontier matrix, or a sampler draw?
    seq = ids.get("sampler.sequence_toward", -1)
    est = ids.get("whitney.whitney_b_estimate", -1)
    ctl = ids.get("whitney.whitney_negative_control", -1)
    frontier = ids.get("whitney.frontier_matrix", -1)
    draws = (ids.get("sampler.sample_algebra", -1), ids.get("sampler.sample_rank", -1))
    validate = ids.get("states.validate_density", -1)
    in_whitney = [False] * count
    in_frontier = [False] * count
    in_draw = [False] * count
    sequences = sources_drawn = attempts = 0
    for s in range(count):
        p, f = parent[s], func[s]
        if p >= 0:
            in_whitney[s] = in_whitney[p] or func[p] in (est, ctl)
            in_frontier[s] = in_frontier[p] or func[p] == frontier
            in_draw[s] = in_draw[p] or func[p] in draws
        if f == seq and in_whitney[s]:
            sequences += 1
        elif f == draws[0] and in_frontier[s]:
            sources_drawn += 1
        elif f == validate and in_draw[s]:
            attempts += 1
    trials = sum(v for s, v in notes.items() if func[s] == est)
    sources = sum(v for s, v in notes.items() if func[s] == frontier)
    out["whitney.sequences_per_trial"] = _ratio(sequences, trials)
    out["whitney.frontier_draws_per_source"] = _ratio(sources_drawn, sources)
    out["sampler.attempts_per_draw"] = _ratio(
        attempts, sum(calls[d] for d in draws if d >= 0)
    )
    return out
