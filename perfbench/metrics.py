"""Metric names and units the benchmark reports.

END_TO_END and PER_LAYER are the metrics of the last stdout line, in the
order BENCHMARK.json lists them. The traced run computes more per-layer
metrics than PER_LAYER names (every traced function's calls and self
time); the rest go to the human-readable lines and the results file.
"""

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

RATIOS = ("whitney.sequences_per_trial", "whitney.frontier_draws_per_source",
          "sampler.attempts_per_draw")

# calls and self time of the aim-1 primitives and of the functions that
# carry the workloads' work
_FUNCTIONS = (
    "states.validate_density", "linalg.eigh_fixed", "strata.classify",
    "orbits.orbit_signature", "orbits.orbit_dim", "strata.tangent_basis",
    "whitney.gap_line_space", "charts.contour_projector", "charts.contour_small_part",
    "sampler.sample_algebra", "sampler.sample_hs", "sampler.sample_rank",
    "sampler.sample_unitary", "sampler.sequence_toward", "strata.retract_to_stratum",
    "whitney.secant_direction", "whitney.whitney_negative_control",
    "whitney.frontier_check", "sampler.approach_state", "sampler.ginibre",
    "charts.chart_config_for", "charts.in_chart_domain", "charts.chart_forward",
    "charts.chart_inverse", "joins.convex_split", "joins.join_state",
    "linalg.as_hermitian", "linalg.gauge_fix_columns", "linalg.off_block_magnitude",
    "linalg.block_extract", "strata.rank_from_eigenvalues", "strata.numerical_rank",
)
# (primitive, state dimensions it runs at in some workload)
_PER_DIM = (
    ("states.validate_density", (2, 3, 4, 6)),
    ("linalg.eigh_fixed", (2, 3, 4, 6)),
    ("strata.classify", (2, 3, 4, 6)),
    ("orbits.orbit_signature", (2, 3, 4, 6)),
    ("orbits.orbit_dim", (2, 3, 4, 6)),
    ("strata.tangent_basis", (2, 3, 4)),
    ("whitney.gap_line_space", (2, 3, 4)),
    ("charts.contour_projector", (2, 3, 4, 6)),
    ("charts.contour_small_part", (2, 3, 4, 6)),
    ("sampler.sample_algebra", (2, 3, 4)),
    ("sampler.sample_hs", (2,)),
    ("sampler.sample_rank", (2, 3, 4)),
    ("sampler.sample_unitary", (2, 3, 4, 6)),
)
LAYERS = ("linalg", "states", "strata", "orbits", "charts", "joins",
          "sampler", "whitney", "verify", "fileio", "cli")

PER_LAYER = (
    tuple(f"{layer}.self_s" for layer in LAYERS)
    + RATIOS
    + ("cli.python_start_ms", "cli.import_ms", "cli.main.us_per_call", "trace.overhead_s")
    + tuple(f"{name}.n{n}.us_per_call" for name, dims in _PER_DIM for n in dims)
    + tuple(f"{name}.{what}" for name in _FUNCTIONS for what in ("calls", "self_ms"))
)


def unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    for suffix, u in ((".calls", "count"), (".us_per_call", "us"), ("_ms", "ms"),
                      ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    raise KeyError(f"no unit for metric {name!r}")
