"""Numerical tools for the stratified geometry of density-matrix spaces.

States live in a fixed direct sum of complex matrix blocks. The library
classifies them by rank pattern and unitary orbit type, builds local conic
charts around any point of a rank stratum, decomposes direct-sum state
spaces as joins, and ships randomized suites that check the stratification
claims (frontier condition, Whitney condition (B)) numerically.

Public names resolve on first use (PEP 562): ``import stratumlab`` loads no
submodule, and ``stratumlab.classify`` loads only what classify needs.
"""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "AlphaTooLarge", "AmbiguousClustering", "AmbiguousRank", "CoincidentPoints",
            "DimensionTooLarge", "EigenvalueOnContour", "NotBlockDiagonal", "NotFinite",
            "NotHermitian", "NotInAlgebra", "NotInChartDomain", "NotOrthonormal", "NotPositive",
            "NotUnitary", "SchemaError", "StratumLabError", "TraceNotOne", "ValidationError",
        ),
        "states": (
            "AlgebraDescriptor", "DensityMatrix", "bloch_matrix", "bloch_state",
            "commutative_algebra", "cone_algebra", "cone_matrix", "cone_state", "full_algebra",
            "is_psd_eigen", "is_psd_sylvester", "is_pure", "maximally_mixed", "simplex_state",
            "validate_density", "validate_stack",
        ),
        "strata": (
            "StratumLabel", "classify", "classify_stack", "frontier_leq", "numerical_rank",
            "retract_stack", "retract_to_stratum", "stratum_dim", "stratum_dim_label",
            "tangent_basis", "tangent_basis_stack",
        ),
        "charts": (
            "ChartConfig", "ChartPoint", "chart_config_for", "chart_forward", "chart_inverse",
            "contour_quadrature", "contour_quadrature_stack", "in_chart_domain",
            "small_spectral_projector", "small_spectral_projector_stack", "spectral_gap",
        ),
        "orbits": (
            "OrbitSignature", "adjoint_act", "isotropy_dim", "orbit_dim", "orbit_dim_stack",
            "orbit_signature", "orbit_signature_stack", "orbit_type_leq",
        ),
        "joins": (
            "JOIN_RANK_NOTE", "JoinPieceLabel", "JoinPoint", "convex_split", "join_piece_label",
            "join_state", "make_join_point", "summand_algebras",
        ),
        "sampler": (
            "approach_state", "sample_algebra", "sample_block_unitary", "sample_hermitian",
            "sample_hs", "sample_rank", "sample_unitary", "sequence_toward",
        ),
        "whitney": (
            "FrontierReport", "WhitneyReport", "enumerate_labels", "frontier_check",
            "frontier_matrix", "whitney_b_estimate", "whitney_negative_control",
        ),
        "verify": (
            "SUITES", "suite_frontier", "suite_join", "suite_orbit_census",
            "suite_projector_equiv", "suite_whitney",
        ),
        "fileio": ("canonical_json", "read_matrix", "write_matrix"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # nothing is bound in this namespace, so a function that a tracer rebinds
    # on its submodule is seen here both while the tracer is on and after
    if name in _EXPORTS:
        return getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name.isidentifier() and _find_spec(f"{__name__}.{name}") is not None:
        return _import_module(f"{__name__}.{name}")  # such as stratumlab.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
