"""Structured errors shared across the library.

Every rejection names the violated requirement and, where meaningful, carries
the offending magnitude so callers (and the CLI) can report it.
"""

from __future__ import annotations


class StratumLabError(Exception):
    """Base class for all library errors."""


class ValidationError(StratumLabError):
    """An input failed a construction-time check.

    Parameters
    ----------
    message : str
        What was violated.
    magnitude : float, optional
        Size of the violation (norm of the offending part, deviation, ...).
    """

    def __init__(self, message: str, magnitude: float | None = None):
        if magnitude is not None:
            message = f"{message} (magnitude {magnitude:.3e})"
        super().__init__(message)
        self.magnitude = magnitude


class NotFinite(ValidationError):
    """Matrix has a NaN or infinite entry."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotBlockDiagonal(ValidationError):
    """Matrix has off-block entries above tolerance for the given algebra."""


class TraceNotOne(ValidationError):
    """Trace deviates from 1 beyond tolerance."""


class NotPositive(ValidationError):
    """Matrix has an eigenvalue below -tolerance."""


class NotUnitary(ValidationError):
    """Matrix is not unitary within tolerance."""


class NotInAlgebra(ValidationError):
    """Operator does not belong to the given block-diagonal algebra."""


class NotOrthonormal(ValidationError):
    """Frame columns are not orthonormal within tolerance."""


class AmbiguousRank(StratumLabError):
    """An eigenvalue or singular value fell inside the tolerance gray zone.

    The rank decision protocol refuses to answer when any value lies in the
    open interval (tol/10, 10*tol); widen or shrink the tolerance instead of
    trusting a coin flip.
    """

    def __init__(self, value: float, tol: float):
        super().__init__(
            f"value {value:.6e} lies in the ambiguity zone "
            f"({tol / 10:.1e}, {10 * tol:.1e}) for tolerance {tol:.1e}"
        )
        self.value = value
        self.tol = tol


class AmbiguousClustering(StratumLabError):
    """Two eigenvalue clusters are separated by less than 10x the cluster
    tolerance, so the multiplicity pattern is not stable."""

    def __init__(self, gap: float, cluster_tol: float):
        super().__init__(
            f"inter-cluster gap {gap:.6e} is below 10x cluster tolerance "
            f"{cluster_tol:.1e}; multiplicities are not well separated"
        )
        self.gap = gap
        self.cluster_tol = cluster_tol


class DimensionTooLarge(StratumLabError):
    """Operation refused because its cost explodes with dimension."""


class EigenvalueOnContour(StratumLabError):
    """An eigenvalue sits too close to the integration contour or to a
    spectral splitting threshold."""


class NotInChartDomain(StratumLabError):
    """Point violates the spectral-split condition of the requested chart."""


class AlphaTooLarge(StratumLabError):
    """Small-spectrum trace weight is >= 1/2, outside the chart's validity."""

    def __init__(self, alpha: float):
        super().__init__(
            f"small-spectrum weight alpha = {alpha:.6f} is >= 0.5; the conic "
            "chart inverse is only trusted for alpha < 0.5"
        )
        self.alpha = alpha


class CoincidentPoints(StratumLabError):
    """Two points are too close to define a direction."""


class SchemaError(StratumLabError):
    """A file does not conform to the matrix-file schema."""
