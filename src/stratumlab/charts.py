"""Local conic charts around a fixed-rank density matrix.

Near a rank-i density matrix f whose smallest positive eigenvalue is a, every
state g whose spectrum splits into a small part (below epsilon) and a large
part (above a - epsilon) factors into a pair: the compression of g to the
small spectral subspace W (a PSD cone variable h with small trace alpha) and
the trace-renormalized compression to the complement (a full-rank base
variable k). The assignment g -> (h, k) is the chart; its inverse is

    (h, k) -> h on W  +  (1 - Tr h) k on W-perp,

trusted for alpha < 1/2. Two cross-checked routes return the same pair, the
small spectral projector and the small part: small_spectral_projector by
eigendecomposition, and contour_quadrature, which integrates the resolvent
around a circle with the trapezoid rule (exponentially convergent;
Trefethen & Weideman, SIAM Rev. 2014) from one set of node resolvents.
Each route runs on (B, n, n) stacks, each item bit for bit its per-matrix
call; the contour stack inverts one node at a time, adds the terms in node
order and sums every other node of the same resolvents, which for an even
node count is the halved rule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AlphaTooLarge,
    EigenvalueOnContour,
    NotInChartDomain,
)
from .states import DEFAULT_TOL, AlgebraDescriptor, DensityMatrix, _require_tol, validate_density
from .strata import rank_from_eigenvalues

MIN_NODES = 16  # fewest trapezoid nodes the CLI accepts for the contour route
# an eigenvalue within CONTOUR_GUARD times the split threshold or contour
# radius of it makes the split unstable, and is refused
CONTOUR_GUARD = 1e-3


@dataclass(frozen=True)
class ChartConfig:
    """Spectral thresholds for one chart.

    gap_a : smallest positive eigenvalue of the chart's center
    epsilon : spectral split threshold, 0 < epsilon < gap_a
    contour_radius : radius of the circle separating small from large
        spectrum; must satisfy epsilon <= radius <= gap_a - epsilon
    """

    gap_a: float
    epsilon: float
    contour_radius: float

    def __post_init__(self):
        if not self.gap_a > 0:
            raise ValueError(f"gap must be positive, got {self.gap_a}")
        if not 0 < self.epsilon < self.gap_a:
            raise ValueError(
                f"epsilon must lie in (0, {self.gap_a:.6g}), got {self.epsilon:.6g}"
            )
        if not self.epsilon <= self.contour_radius <= self.gap_a - self.epsilon:
            raise ValueError(
                "contour radius must lie between epsilon and gap - epsilon, got "
                f"{self.contour_radius:.6g} outside [{self.epsilon:.6g}, "
                f"{self.gap_a - self.epsilon:.6g}]"
            )


def _center_rank(f: DensityMatrix) -> tuple[np.ndarray, int]:
    """f's ascending eigenvalues and rank at f.tol, refusing rank 0."""
    w = f.eigenvalues()
    if not (i := rank_from_eigenvalues(w, f.tol)):
        raise ValueError(f"tolerance {f.tol:.6g} declares every eigenvalue of the center zero")
    return w, i


def spectral_gap(f: DensityMatrix) -> float:
    """Smallest positive eigenvalue of f (gray-zone rank protocol at f.tol);
    ValueError when f.tol declares every eigenvalue zero."""
    w, i = _center_rank(f)
    return float(w[f.dim - i])


def chart_config_for(f: DensityMatrix, epsilon: float | None = None) -> ChartConfig:
    """Default chart configuration centered at f.

    epsilon defaults to a quarter of the spectral gap; the contour radius sits
    halfway between epsilon and gap - epsilon.
    """
    a = spectral_gap(f)
    if epsilon is None:
        epsilon = a / 4.0
    radius = 0.5 * (epsilon + (a - epsilon))
    return ChartConfig(gap_a=a, epsilon=epsilon, contour_radius=radius)


def _in_band(w: np.ndarray, cfg: ChartConfig) -> np.ndarray:
    """Mask of the ascending eigenvalues w inside the forbidden band: neither
    below epsilon nor above gap - epsilon (NaN included, so it fails closed)."""
    return ~((w < cfg.epsilon) | (w > cfg.gap_a - cfg.epsilon))


def in_chart_domain(f: DensityMatrix, g: DensityMatrix, cfg: ChartConfig) -> bool:
    """Whether g's spectrum splits below epsilon / above gap - epsilon; f, g share one algebra."""
    if f.alg != g.alg:
        raise ValueError("center and point belong to different algebras")
    return not np.count_nonzero(_in_band(g.eigenvalues(), cfg))


@dataclass(frozen=True)
class ChartPoint:
    """Value of the conic chart: frames plus cone and base variables.

    frame_kernel : n x (n - i) orthonormal frame of the small spectral
        subspace W
    frame_range : n x i orthonormal frame of the complement
    cone_part : (n - i) x (n - i) PSD compression of the point to W; its
        trace is the weight alpha (the cone variable; alpha = 0 at the vertex)
    base_part : i x i positive-definite, trace one within 1e-10 (the
        renormalized large-spectrum compression)
    """

    alg: AlgebraDescriptor
    frame_kernel: np.ndarray
    frame_range: np.ndarray
    cone_part: np.ndarray
    base_part: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        n = self.alg.dim
        if self.frame_kernel.shape[0] != n or self.frame_range.shape[0] != n:
            raise ValueError("frames do not match the algebra's ambient dimension")
        # the two frames side by side are one orthonormal frame exactly when
        # each is orthonormal and they are orthogonal to each other
        linalg.check_frame(np.concatenate([self.frame_kernel, self.frame_range], axis=-1))
        d = self.frame_kernel.shape[1]
        i = self.frame_range.shape[1]
        if d + i != n:
            raise ValueError(f"frame widths {d} + {i} must sum to {n}")
        cone = linalg.as_hermitian(self.cone_part, 1e-10)
        if cone.shape != (d, d):
            raise ValueError(f"cone part must be {d} x {d}, got {cone.shape}")
        if d and float(np.linalg.eigvalsh(cone)[0]) < -1e-12:
            raise ValueError("cone part must be PSD")
        base = linalg.as_hermitian(self.base_part, 1e-10)
        if base.shape != (i, i):
            raise ValueError(f"base part must be {i} x {i}, got {base.shape}")
        if float(np.linalg.eigvalsh(base)[0]) <= 0:
            raise ValueError("base part must be positive definite")
        tr_dev = abs(float(base.trace().real) - 1.0)
        if tr_dev > 1e-10:
            raise ValueError(f"base part trace differs from 1 by {tr_dev:.3e}")

    @property
    def alpha(self) -> float:
        """Trace weight carried by the small spectral subspace."""
        return float(np.trace(self.cone_part).real)


def chart_forward(
    f: DensityMatrix, g: DensityMatrix, cfg: ChartConfig | None = None
) -> ChartPoint:
    """Evaluate the conic chart centered at f on the point g.

    Raises
    ------
    NotInChartDomain
        If g's spectrum does not split at cfg's thresholds, or the split does
        not leave exactly rank(f) large eigenvalues.
    AlphaTooLarge
        If the small-spectrum weight is >= 1/2.
    ValueError
        If f.tol declares every eigenvalue of the center zero.
    """
    if f.alg != g.alg:
        raise ValueError("center and point belong to different algebras")
    if cfg is None:
        cfg = chart_config_for(f)
    # validation left g.matrix exactly Hermitian: eigh_fixed's symmetrising is a no-op
    w, v = np.linalg.eigh(g.matrix)
    v = linalg.gauge_fix_columns(v)
    if np.count_nonzero(band := _in_band(w, cfg)):
        raise NotInChartDomain(
            f"eigenvalue {w[band][0]:.6g} inside the forbidden band "
            f"[{cfg.epsilon:.6g}, {cfg.gap_a - cfg.epsilon:.6g}]"
        )
    i = _center_rank(f)[1]
    n = f.dim
    n_small = int(np.count_nonzero(w < cfg.epsilon))
    if n_small != n - i:
        raise NotInChartDomain(
            f"spectral split leaves {n - n_small} large eigenvalues but the "
            f"center has rank {i}"
        )
    frame_kernel = v[:, :n_small]
    frame_range = v[:, n_small:]
    cone = linalg.hermitian_part(frame_kernel.conj().T @ g.matrix @ frame_kernel)
    alpha = float(cone.trace().real)
    if alpha >= 0.5:
        raise AlphaTooLarge(alpha)
    base = linalg.hermitian_part(frame_range.conj().T @ g.matrix @ frame_range) / (1.0 - alpha)
    return ChartPoint(
        alg=f.alg,
        frame_kernel=frame_kernel,
        frame_range=frame_range,
        cone_part=cone,
        base_part=base,
        tol=g.tol,
    )


def chart_inverse(p: ChartPoint) -> DensityMatrix:
    """Rebuild the density matrix of a chart value.

    cone on W plus (1 - alpha) base on W-perp; defined whenever the chart
    point is valid (its constructor already enforces alpha's budget on the
    forward path, and PSD/trace on both parts). The state is validated at
    p.tol.
    """
    w, c = p.frame_kernel, p.frame_range
    m = w @ p.cone_part @ w.conj().T + (1.0 - p.alpha) * (c @ p.base_part @ c.conj().T)
    return validate_density(linalg.hermitian_part(m), p.alg, p.tol)


def small_spectral_projector_stack(g: np.ndarray, threshold: float):
    """Projector onto the eigenvectors with eigenvalue below threshold, and
    the small part of g on them, of each matrix of a (B, n, n) stack: one
    eigh_fixed, each pair from its k leading columns, the items grouped by k.
    Raises EigenvalueOnContour for the first item with an eigenvalue within
    CONTOUR_GUARD * threshold of the threshold, where the split is unstable,
    and ValueError for a threshold that is not finite and > 0.
    """
    _require_tol(threshold, "split threshold")
    w, v = linalg.eigh_fixed(np.asarray(g, dtype=complex))
    margins = np.min(np.abs(w - threshold), axis=-1)
    if (near := np.flatnonzero(margins < CONTOUR_GUARD * threshold)).size:
        raise EigenvalueOnContour(
            f"eigenvalue within {margins[near[0]]:.3e} of split threshold {threshold:.6g}"
        )
    ks = np.count_nonzero(w < threshold, axis=-1)
    projector, small_part = np.empty_like(v), np.empty_like(v)
    # the k present, ascending (np.unique would load numpy.ma)
    for k in np.flatnonzero(np.bincount(ks)):
        at = ks == k
        small = v[at, :, :k]
        small_h = small.conj().swapaxes(-1, -2)
        projector[at] = small @ small_h
        small_part[at] = (small * w[at, None, :k]) @ small_h
    return projector, small_part


def small_spectral_projector(g: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """small_spectral_projector_stack of one matrix: the pair
    contour_quadrature returns, by eigendecomposition."""
    return tuple(m[0] for m in small_spectral_projector_stack(np.asarray(g)[None], threshold))


def contour_quadrature_stack(g: np.ndarray, radius: float, nodes: int = 64, steps=(1,)):
    """Spectral projector and small part (the part of g carried by the
    spectrum inside the circle; its trace is the cone weight alpha) inside
    |z| = radius of each matrix of a (B, n, n) stack, by trapezoid quadrature
    of z -> R_g(z) and z -> z R_g(z): one (projectors, small parts) pair per
    step t, the rule on every t-th node. t = 2 is the nodes // 2 rule bit for
    bit, as 2 pi 2k / nodes and 2 pi k / (nodes / 2) are equal doubles.

    All rules share the node resolvents R_g(z) = (z - g)^-1, inverted a node
    at a time on the whole stack and added in node order, as a per-matrix
    loop adds them. The rule converges exponentially in the node count; kept
    as an oracle against the eigendecomposition route.
    Raises EigenvalueOnContour for the first item with an eigenvalue within
    CONTOUR_GUARD * radius of the circle, and ValueError for a radius that
    is not finite and > 0.
    """
    _require_tol(radius, "contour radius")
    g = linalg.as_hermitian(np.asarray(g, dtype=complex))
    if nodes < 4 or any(nodes % t for t in steps):
        raise ValueError(f"need at least 4 nodes, divided by every step, got {nodes} and {steps}")
    margins = np.min(np.abs(np.abs(np.linalg.eigvalsh(g)) - radius), axis=-1)
    if (near := np.flatnonzero(margins < CONTOUR_GUARD * radius)).size:
        raise EigenvalueOnContour(
            f"eigenvalue within {margins[near[0]]:.3e} of the contour radius {radius:.6g}"
        )
    e = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    z = radius * e
    # e z from real and imaginary parts rounds as a scalar complex product
    # does; numpy's vectorised complex multiply differs at some nodes
    ez = np.empty_like(z)
    ez.real = e.real * z.real - e.imag * z.imag
    ez.imag = e.real * z.imag + e.imag * z.real
    weights = np.stack([e, ez], axis=1)[:, :, None, None, None]
    shifts = z[:, None, None] * np.eye(g.shape[-1])
    sums = np.zeros((len(steps), 2, *g.shape), dtype=complex)
    for k in range(nodes):
        term = weights[k] * np.linalg.inv(shifts[k] - g)
        for r, t in enumerate(steps):
            if k % t == 0:
                sums[r] += term
    scaled = (pair * (radius / (nodes // t)) for pair, t in zip(sums, steps))
    return [tuple(linalg.hermitian_part(pair)) for pair in scaled]


def contour_quadrature(g: np.ndarray, radius: float, nodes: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """contour_quadrature_stack on the stack of one matrix: the spectral
    projector and small part of g inside |z| = radius."""
    return tuple(m[0] for m in contour_quadrature_stack(np.asarray(g)[None], radius, nodes)[0])
