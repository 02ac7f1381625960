"""Regularity-partition triangle listing.

Pipeline: compute a weak regularity partition of G[V2 u V3]; for every
piece pair (i, j) take the tripartite view (V1, V2_i, V3_j) and run the
row-AND lister pivoting on V1 or on V2, whichever has the smaller exactly
evaluated cost estimate; a shared t-cutoff spans all sub-instances.  A
thresholding wrapper splits every part into ~sqrt(n) blocks so listing can
stop early, and a doubling wrapper recovers the list-everything mode.
"""

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import List, Optional, Tuple

from .bitops import iter_bits, split_bits
from .core import KPartiteGraph
from .errors import InvalidParameterError
from .oracles import UNBOUNDED, ListingResult
from .regularity import (PseudoregularPartition, RegularityConfig,
                         default_epsilon, weak_regular_partition)
from .triangle import list_sparse_four_russians, list_sparse_pivoted

PARTITION_ATTEMPTS = 3


@dataclass
class PairPlan:
    """Strategy decision for one piece pair of the regularity partition.

    The two costs are the paper's sparse Four-Russians estimates,
    sum_v d_2(v) d_3(v) / log^2 n for the V1 pivot and n e(V2_i, V3_j) /
    log^2 n for the V2 pivot.  They are kept as the strategy rule; they do
    not model the work of the row-AND listers that run the pair.
    """

    piece_pair: Tuple[int, int]
    density: float
    low_density: bool          # density <= sqrt(epsilon)
    strategy: str              # "pivot-v1" or "pivot-v2"
    cost_pivot_v1: float
    cost_pivot_v2: float

    @property
    def estimated_cost(self) -> float:
        return min(self.cost_pivot_v1, self.cost_pivot_v2)


@dataclass
class RegularityListing:
    result: ListingResult
    plans: List[PairPlan]
    partition_verified: bool
    piece_count: int


def _default_cfg(G: KPartiteGraph, seed: int = 0) -> RegularityConfig:
    return RegularityConfig(epsilon=default_epsilon(G.n_total), rng_seed=seed)


def _partition(G: KPartiteGraph, cfg: RegularityConfig
               ) -> PseudoregularPartition:
    """Weak regularity partition of G[V2 u V3], retried on fresh seeds
    until one passes the sampled check or the attempts run out."""
    partition = None
    for attempt in range(PARTITION_ATTEMPTS):
        attempt_cfg = replace(cfg, rng_seed=cfg.rng_seed + 1009 * attempt)
        partition = weak_regular_partition(G, attempt_cfg)
        if partition.verified:
            break
    return partition


def list_triangles_detailed(G: KPartiteGraph, t: Optional[int],
                            cfg: Optional[RegularityConfig] = None
                            ) -> RegularityListing:
    """Full regularity-listing pipeline with per-pair diagnostics."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    if cfg is None:
        cfg = _default_cfg(G)
    return _list_with_partition(G, t, cfg, _partition(G, cfg))


def _list_with_partition(G: KPartiteGraph, t: Optional[int],
                         cfg: RegularityConfig,
                         partition: PseudoregularPartition
                         ) -> RegularityListing:
    """Plan and list every piece pair of a given partition of G[V2 u V3]."""
    result = ListingResult(requested_t=t)
    n = max(2, G.n_total)
    log2sq = math.log2(n) ** 2
    sqrt_eps = math.sqrt(cfg.epsilon)
    mask2, mask3 = G.part_masks[1], G.part_masks[2]
    v1 = list(G.part_vertices(0))

    plans: List[PairPlan] = []
    jobs: List[Tuple[PairPlan, int, int]] = []
    for i, pi in enumerate(partition.pieces):
        s2 = pi & mask2
        if not s2:
            continue
        for j, pj in enumerate(partition.pieces):
            s3 = pj & mask3
            if not s3:
                continue
            e_ij = sum((G.adjacency[u] & s3).bit_count()
                       for u in iter_bits(s2))
            cost2 = n * e_ij / log2sq
            cost1 = sum((G.adjacency[v] & s2).bit_count()
                        * (G.adjacency[v] & s3).bit_count()
                        for v in v1) / log2sq
            dens = e_ij / (s2.bit_count() * s3.bit_count())
            plan = PairPlan(
                piece_pair=(i, j), density=dens,
                low_density=dens <= sqrt_eps,
                strategy="pivot-v1" if cost1 <= cost2 else "pivot-v2",
                cost_pivot_v1=cost1, cost_pivot_v2=cost2)
            plans.append(plan)
            jobs.append((plan, s2, s3))

    for plan, s2, s3 in jobs:
        remaining = None if t is UNBOUNDED else t - len(result.witnesses)
        sub = G.restrict([G.part_masks[0], s2, s3])
        if plan.strategy == "pivot-v1":
            part = list_sparse_four_russians(sub, remaining)
        else:
            part = list_sparse_pivoted(sub, remaining)
        result.witnesses.extend(part.witnesses)
        if part.truncated:
            result.truncated = True
            break
    return RegularityListing(result=result, plans=plans,
                             partition_verified=partition.verified,
                             piece_count=partition.piece_count)


def list_triangles(G: KPartiteGraph, t: Optional[int],
                   cfg: Optional[RegularityConfig] = None) -> ListingResult:
    """List up to t triangles via the regularity pipeline."""
    return list_triangles_detailed(G, t, cfg).result


def list_triangles_threshold(G: KPartiteGraph, t: Optional[int],
                             cfg: Optional[RegularityConfig] = None
                             ) -> ListingResult:
    """Block-thresholded wrapper: split each part into ~sqrt(n) blocks and
    list per block triple, stopping at t.  Each triangle lives in exactly
    one block triple, so no deduplication is needed."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    if cfg is None:
        cfg = _default_cfg(G)
    blocks_per_part = []
    for p in range(3):
        size = G.part_sizes[p]
        g = max(1, math.isqrt(max(size - 1, 0)) + 1) if size else 1
        bsize = max(1, -(-size // g)) if size else 1
        blocks_per_part.append(split_bits(G.part_masks[p], bsize) or [0])

    result = ListingResult(requested_t=t)
    # The partition of G[V2 u V3] reads only the V2 and V3 blocks, so one
    # partition per (V2-block, V3-block) pair serves every V1 block.
    partitions = {}
    for blocks in product(*blocks_per_part):
        remaining = None if t is UNBOUNDED else t - len(result.witnesses)
        sub = G.restrict(blocks)
        key = blocks[1], blocks[2]
        if key not in partitions:
            partitions[key] = _partition(sub, cfg)
        part = _list_with_partition(sub, remaining, cfg,
                                    partitions[key]).result
        result.witnesses.extend(part.witnesses)
        if part.truncated:
            result.truncated = True
            return result
    return result


def list_all_triangles(G: KPartiteGraph,
                       cfg: Optional[RegularityConfig] = None) -> ListingResult:
    """Doubling wrapper returning every triangle in the graph."""
    n = max(2, G.n_total)
    t = max(1, int(n ** 3 / math.log2(n) ** 2.25))
    while True:
        res = list_triangles_threshold(G, t, cfg)
        if not res.truncated:
            res.requested_t = UNBOUNDED
            return res
        t *= 2
