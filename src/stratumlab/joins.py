"""Join structure of the state space of a direct sum.

A state of A_1 (+) A_2 is exactly a convex combination (1 - t) phi_1 + t phi_2
of states of the summands, so the compound state space is the topological join
of the summand state spaces. The same holds for any number of summands. A
JoinPoint records the summand weights and the normalized summand states; at an
endpoint (some weight zero) the corresponding component is absent, which makes
the join's quotient identification literal rather than up-to-equivalence.

The induced decomposition of the join has three kinds of pieces for two
summands: strata of the first factor (weight t = 0), strata of the second
(t = 1), and products stratum x stratum x (0, 1). Ranks add across summands:
a product piece built from rank-r and rank-s factors consists of rank r + s
density matrices. In particular, for C^2 (+) C^2, the interior piece
R2xS2xI has rank 4 (a value sometimes misstated as 3: the four side EDGES of
that tetrahedron are the R1xS1xI pieces of rank 2, while R1xS2xI and R2xS1xI
are open 2-cells of rank 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import AlgebraDescriptor, DensityMatrix, validate_density
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
            if w < 0:
                raise ValueError(f"negative weight {w}")
            total += w
            if (w == 0.0) != (comp is None):
                raise ValueError("a component must be present exactly when its weight is positive")
            if comp is not None and comp.alg != sub:
                raise ValueError(
                    f"component algebra {comp.alg.block_sizes} does not match summand "
                    f"{sub.block_sizes}"
                )
        if abs(total - 1.0) > 1e-9:
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
    drop_tol: float = WEIGHT_DROP_TOL,
) -> JoinPoint:
    """Canonicalize and validate a join point.

    Weights at or below drop_tol are set to exactly zero and their components
    dropped, so two inputs differing only in a zero-weight component construct
    identical join points (the endpoint collapse of the join).
    """
    if split is None:
        split = (1,) * alg.num_blocks
    weights = [float(w) for w in weights]
    components = list(components)
    canon_w, canon_c = [], []
    for w, comp in zip(weights, components):
        if w <= drop_tol:
            canon_w.append(0.0)
            canon_c.append(None)
        else:
            canon_w.append(w)
            canon_c.append(comp)
    return JoinPoint(
        alg=alg, split=tuple(split), weights=tuple(canon_w), components=tuple(canon_c)
    )


def convex_split(
    rho: DensityMatrix,
    split: tuple[int, ...] | None = None,
    drop_tol: float = WEIGHT_DROP_TOL,
) -> JoinPoint:
    """Decompose a state of a direct sum into weights and summand states.

    The weight of a summand is the trace its blocks carry; each present
    summand state is the corresponding compression renormalized to trace one.
    Inverse of join_state up to weights below drop_tol.
    """
    if split is None:
        split = (1,) * rho.alg.num_blocks
    algs = summand_algebras(rho.alg, split)
    blocks = rho.blocks()
    weights, components = [], []
    at = 0
    for sub in algs:
        nblocks = sub.num_blocks
        sub_blocks = blocks[at : at + nblocks]
        at += nblocks
        w = sum(max(float(np.trace(b).real), 0.0) for b in sub_blocks)
        if w <= drop_tol:
            weights.append(0.0)
            components.append(None)
            continue
        m = linalg.block_embed(sub_blocks) / w
        # positivity of the compression is only as sharp as rho.tol / w
        comp_tol = max(rho.tol, 2.0 * rho.tol / w)
        components.append(validate_density(m, sub, comp_tol))
        weights.append(w)
    return JoinPoint(
        alg=rho.alg, split=tuple(split), weights=tuple(weights), components=tuple(components)
    )


def join_state(p: JoinPoint, tol: float = 1e-9) -> DensityMatrix:
    """Assemble the density matrix sum_j w_j phi_j of a join point."""
    algs = summand_algebras(p.alg, p.split)
    blocks = []
    for w, comp, sub in zip(p.weights, p.components, algs):
        if comp is None:
            blocks.extend(np.zeros((n, n), dtype=complex) for n in sub.block_sizes)
        else:
            blocks.extend(w * b for b in comp.blocks())
    return validate_density(linalg.block_embed(blocks), p.alg, tol)


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
        """Short name of the piece: for two summands R2 (first factor only),
        S1 (second only) or R2xS1xI (both); otherwise the support pattern."""
        if self.support == (True, False):
            return f"R{self.factor_ranks[0]}"
        if self.support == (False, True):
            return f"S{self.factor_ranks[0]}"
        if self.support == (True, True):
            return f"R{self.factor_ranks[0]}xS{self.factor_ranks[1]}xI"
        present = "+".join(
            f"{j}:r{r}" for j, r in zip(np.nonzero(self.support)[0], self.factor_ranks)
        )
        return f"J[{present}]"


def join_piece_label(p: JoinPoint, tol: float | None = None) -> JoinPieceLabel:
    """Locate a join point inside the decomposition of the join.

    For two summands the pieces are the strata of either endpoint factor and
    the products (first stratum) x (second stratum) x (0, 1); for more
    summands the label records the support pattern plus the factor strata.
    """
    labels = [
        classify(comp, tol if tol is not None else comp.tol)
        for comp in p.components
        if comp is not None
    ]
    return JoinPieceLabel(
        factor_ranks=tuple(lab.total for lab in labels),
        factor_labels=tuple(labels),
        support=p.support,
    )


def rank_of_join(p: JoinPoint, tol: float | None = None) -> int:
    """Rank of the assembled state: factor ranks add across disjoint blocks."""
    label = join_piece_label(p, tol)
    return sum(label.factor_ranks)


JOIN_RANK_NOTE = (
    "Ranks of join pieces are computed by eigenvalue count and add across "
    "summands: a product piece RrxSsxI consists of rank r+s density matrices. "
    "For C^2 (+) C^2 the tetrahedron interior R2xS2xI therefore has rank 4 "
    "(sometimes misstated as 3); its four side edges are the R1xS1xI pieces "
    "(rank 2), and R1xS2xI / R2xS1xI are open 2-cells of rank 3."
)
