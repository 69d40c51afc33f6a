"""Join structure of the state space of a direct sum.

A state of A_1 (+) A_2 is exactly a convex combination (1 - t) phi_1 + t phi_2
of states of the summands, so the compound state space is the topological join
of the summand state spaces. The same holds for any number of summands. A
JoinPoint records the summand weights and the normalized summand states; at an
endpoint (some weight zero) the corresponding component is absent, which makes
the join's quotient identification literal rather than up-to-equivalence.

The induced decomposition of the join has three kinds of pieces for two
summands: strata of the first factor (weight t = 0), strata of the second
(t = 1), and products stratum x stratum x (0, 1). Ranks add across summands;
JOIN_RANK_NOTE states the rule and works the C^2 (+) C^2 tetrahedron.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DEFAULT_TOL, AlgebraDescriptor, DensityMatrix, _StateStack, _validated_stack
from .strata import StratumLabel, classify

WEIGHT_DROP_TOL = 1e-12


def summand_algebras(
    alg: AlgebraDescriptor, split: tuple[int, ...]
) -> list[AlgebraDescriptor]:
    """Group consecutive blocks of alg into summands (split = blocks per
    summand)."""
    if any(s < 1 for s in split) or sum(split) != alg.num_blocks:
        raise ValueError(
            f"split {split} does not group the {alg.num_blocks} blocks of the algebra"
        )
    out, at = [], 0
    for s in split:
        out.append(AlgebraDescriptor(alg.block_sizes[at : at + s]))
        at += s
    return out


@dataclass(frozen=True)
class JoinPoint:
    """A state of a direct sum, presented as a weighted join of summand states.

    weights sum to one (within 1e-9); a component is present exactly when its
    weight is positive, and each present component is a validated density of
    its summand algebra. Construct through make_join_point or convex_split.
    """

    alg: AlgebraDescriptor
    split: tuple[int, ...]
    weights: tuple[float, ...]
    components: tuple[DensityMatrix | None, ...]

    def __post_init__(self):
        algs = summand_algebras(self.alg, self.split)
        k = len(algs)
        if len(self.weights) != k or len(self.components) != k:
            raise ValueError(f"need {k} weights and components, got "
                             f"{len(self.weights)} and {len(self.components)}")
        total = 0.0
        for w, comp, sub in zip(self.weights, self.components, algs):
            if not w >= 0:
                raise ValueError(f"weight {w} is not a non-negative number")
            total += w
            if (w == 0.0) != (comp is None):
                raise ValueError("a component must be present exactly when its weight is positive")
            if comp is not None and comp.alg != sub:
                raise ValueError(
                    f"component algebra {comp.alg.block_sizes} does not match summand "
                    f"{sub.block_sizes}"
                )
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")

    @property
    def num_summands(self) -> int:
        return len(self.split)

    @property
    def support(self) -> tuple[bool, ...]:
        return tuple(w > 0.0 for w in self.weights)


def make_join_point(
    alg: AlgebraDescriptor,
    weights,
    components,
    split: tuple[int, ...] | None = None,
) -> JoinPoint:
    """Canonicalize and validate a join point.

    Weights at or below WEIGHT_DROP_TOL are set to exactly zero and their
    components dropped, so two inputs differing only in a zero-weight
    component construct identical join points (the endpoint collapse of the
    join).
    """
    if split is None:
        split = (1,) * alg.num_blocks
    weights = [float(w) for w in weights]
    components = list(components)
    canon_w, canon_c = [], []
    for w, comp in zip(weights, components):
        if w <= WEIGHT_DROP_TOL:
            canon_w.append(0.0)
            canon_c.append(None)
        else:
            canon_w.append(w)
            canon_c.append(comp)
    return JoinPoint(
        alg=alg, split=tuple(split), weights=tuple(canon_w), components=tuple(canon_c)
    )


def _split_stack(
    hs: np.ndarray, alg: AlgebraDescriptor, split, tol=DEFAULT_TOL
) -> tuple[np.ndarray, list[_StateStack]]:
    """convex_split of each state of a validated (B, n, n) stack of alg at tol.

    Returns the (B, k) weights (0.0 where a summand's weight is at or below
    WEIGHT_DROP_TOL) and per summand j the stack of the components of the
    rows of positive weight, validated at max(tol, 2 tol / w_j). Errors are
    raised summand by summand, each for its first failing row.
    """
    weights = np.zeros((len(hs), len(split)))
    comps, at = [], 0
    for j, sub in enumerate(summand_algebras(alg, split)):
        comp = np.array(hs[:, at : at + sub.dim, at : at + sub.dim])
        at += sub.dim
        comp[:, linalg.off_block_mask(sub.block_sizes)] = 0.0
        w = 0.0
        for sl in sub.block_slices():
            w = w + np.maximum(np.trace(comp[:, sl, sl], axis1=1, axis2=2).real, 0.0)
        keep = w > WEIGHT_DROP_TOL
        w = weights[keep, j] = w[keep]
        # positivity of the compression is only as sharp as tol / w
        tols = np.maximum(tol, 2.0 * tol / w)
        comps.append(_validated_stack(comp[keep] / w[:, None, None], sub, tols))
    return weights, comps


def convex_split(rho: DensityMatrix, split: tuple[int, ...] | None = None) -> JoinPoint:
    """Decompose a state of a direct sum into weights and summand states.

    The weight of a summand is the trace its blocks carry; each present
    summand state is the corresponding compression renormalized to trace one.
    Inverse of join_state up to weights at or below WEIGHT_DROP_TOL.
    """
    if split is None:
        split = (1,) * rho.alg.num_blocks
    weights, comps = _split_stack(rho.matrix[None], rho.alg, split, rho.tol)
    weights = weights[0].tolist()
    components = [comp.states()[0] if w else None for w, comp in zip(weights, comps)]
    return JoinPoint(rho.alg, tuple(split), tuple(weights), tuple(components))


def _join_stack(
    weights: np.ndarray, comps: list[np.ndarray], alg: AlgebraDescriptor, tol: float = DEFAULT_TOL
) -> _StateStack:
    """join_state of each row of (B, k) weights and per summand j the
    component stack of the rows of positive weight: the validated stack of
    sum_j w_j phi_j, assembled from the diagonal blocks of the phi_j."""
    m = np.zeros((len(weights), alg.dim, alg.dim), dtype=complex)
    at = 0
    for j, comp in enumerate(comps):
        d, keep = comp.shape[1], weights[:, j] > 0.0
        m[keep, at : at + d, at : at + d] = weights[keep, j, None, None] * comp
        at += d
    m[:, linalg.off_block_mask(alg.block_sizes)] = 0.0
    return _validated_stack(m, alg, tol)


def join_state(p: JoinPoint) -> DensityMatrix:
    """Assemble the density matrix sum_j w_j phi_j of a join point, validated
    at DEFAULT_TOL."""
    comps = [
        np.zeros((0, sub.dim, sub.dim)) if comp is None else comp.matrix[None]
        for comp, sub in zip(p.components, summand_algebras(p.alg, p.split))
    ]
    return _join_stack(np.array([p.weights]), comps, p.alg).states()[0]


@dataclass(frozen=True)
class JoinPieceLabel:
    """Which piece of the join decomposition a point belongs to.

    factor_ranks : total rank of each present factor, in summand order.
    factor_labels : the per-block stratum labels of the present factors.
    support : which summands are present.
    """

    factor_ranks: tuple[int, ...]
    factor_labels: tuple[StratumLabel, ...]
    support: tuple[bool, ...]

    @property
    def piece_name(self) -> str:
        return _piece_name(self.support, self.factor_ranks)


def _piece_name(support: tuple[bool, ...], factor_ranks: tuple[int, ...]) -> str:
    """Name of the join piece of a support pattern and its factors' total ranks:
    R2 (first only), S1 (second only), R2xS1xI (both); else the support pattern."""
    if support == (True, False):
        return f"R{factor_ranks[0]}"
    if support == (False, True):
        return f"S{factor_ranks[0]}"
    if support == (True, True):
        return f"R{factor_ranks[0]}xS{factor_ranks[1]}xI"
    return "J[" + "+".join(f"{j}:r{r}" for j, r in zip(np.nonzero(support)[0], factor_ranks)) + "]"


def join_piece_label(p: JoinPoint) -> JoinPieceLabel:
    """Locate a join point inside the decomposition of the join.

    For two summands the pieces are the strata of either endpoint factor and
    the products (first stratum) x (second stratum) x (0, 1); for more
    summands the label records the support pattern plus the factor strata,
    each classified at its component's own tol.
    """
    labels = [classify(comp) for comp in p.components if comp is not None]
    return JoinPieceLabel(
        factor_ranks=tuple(lab.total for lab in labels),
        factor_labels=tuple(labels),
        support=p.support,
    )


JOIN_RANK_NOTE = (
    "Ranks of join pieces are computed by eigenvalue count and add across "
    "summands: a product piece RrxSsxI consists of rank r+s density matrices. "
    "For C^2 (+) C^2 the tetrahedron interior R2xS2xI therefore has rank 4 "
    "(sometimes misstated as 3); its four side edges are the R1xS1xI pieces "
    "(rank 2), and R1xS2xI / R2xS1xI are open 2-cells of rank 3."
)
