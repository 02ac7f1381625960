"""Regularity-partition triangle listing.

Pipeline: compute a weak regularity partition of G[V2 u V3]; for every
piece pair (i, j) list the triangles of (V1, V2_i, V3_j) with the row-AND
lister pivoting on V1, over only the V2_i vertices with a neighbour in
V3_j; a shared t-cutoff spans all piece pairs.  A thresholding wrapper
splits every part into ~sqrt(n) blocks so listing can stop early; its
untruncated pass lists everything.  Block triples and piece pairs are
vertex masks of the one graph, not views.
"""

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import List, Optional, Tuple

from .bitops import iter_bits, mask_from_vertices, split_bits
from .core import KPartiteGraph
from .errors import InvalidParameterError
from .oracles import ListingResult
from .regularity import (PseudoregularPartition, RegularityConfig,
                         default_epsilon, edge_count_between,
                         weak_regular_partition)
from .triangle import _list_sparse

PARTITION_ATTEMPTS = 3


@dataclass
class PairPlan:
    """One piece pair of the regularity partition and its V2-V3 density."""

    piece_pair: Tuple[int, int]
    density: float
    low_density: bool          # density <= sqrt(epsilon)


@dataclass
class RegularityListing:
    result: ListingResult
    plans: List[PairPlan]
    partition_verified: bool
    piece_count: int


def _default_cfg(G: KPartiteGraph, seed: int = 0) -> RegularityConfig:
    return RegularityConfig(epsilon=default_epsilon(G.n_total), rng_seed=seed)


def _piece_pairs(G: KPartiteGraph, b2: int, b3: int, cfg: RegularityConfig
                 ) -> Tuple[Optional[PseudoregularPartition], List[tuple]]:
    """Weak regularity partition of G[b2 u b3], retried on fresh seeds until
    one passes the sampled check or the attempts run out, and its piece
    pairs ((i, j), s2, s3, kept) with s2 = piece_i & b2 and s3 = piece_j &
    b3 non-empty, in (i, j) order, and kept the vertices of s2 with a
    neighbour in s3.  With b2 or b3 empty there is no pair to list, and
    nothing is partitioned."""
    if not (b2 and b3):
        return None, []
    view = G.restrict([0, b2, b3])
    for attempt in range(PARTITION_ATTEMPTS):
        partition = weak_regular_partition(
            view, replace(cfg, rng_seed=cfg.rng_seed + 1009 * attempt))
        if partition.verified:
            break
    adj = G.adjacency
    sides = [(i, p & b2, p & b3) for i, p in enumerate(partition.pieces)]
    return partition, [
        ((i, j), s2, s3,
         mask_from_vertices(u for u in iter_bits(s2) if adj[u] & s3))
        for i, s2, _ in sides if s2 for j, _, s3 in sides if s3]


def _list_pairs(adj: List[int], v1: List[int], pairs: List[tuple],
                out: List[tuple], t: Optional[int]) -> bool:
    """List the piece pairs in order into ``out`` up to t, pivoting on the
    V1 vertices ``v1`` and skipping pairs with nothing kept; True when the
    listing was truncated."""
    return any(_list_sparse(adj, v1, kept, s3, False, out, t)
               for _, _, s3, kept in pairs if kept)


def list_triangles_detailed(G: KPartiteGraph, t: Optional[int],
                            cfg: Optional[RegularityConfig] = None
                            ) -> RegularityListing:
    """Full regularity-listing pipeline with per-pair diagnostics, on the
    whole graph as one block triple.  With V2 or V3 empty nothing is
    partitioned: no pieces, no plans."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    if cfg is None:
        cfg = _default_cfg(G)
    result = ListingResult(requested_t=t)
    b1, b2, b3 = G.part_masks
    partition, pairs = _piece_pairs(G, b2, b3, cfg)
    plans = []
    for pair, s2, s3, _ in pairs:
        dens = (edge_count_between(G, s2, s3)
                / (s2.bit_count() * s3.bit_count()))
        plans.append(PairPlan(piece_pair=pair, density=dens,
                              low_density=dens <= math.sqrt(cfg.epsilon)))
    result.truncated = _list_pairs(G.adjacency, list(iter_bits(b1)), pairs,
                                   result.witnesses, t)
    return RegularityListing(
        result=result, plans=plans,
        partition_verified=partition is None or partition.verified,
        piece_count=partition.piece_count if partition else 0)


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
    # partition and its piece pairs per (V2-block, V3-block) pair serve
    # every V1 block.
    pairs = {}
    for b1 in blocks_per_part[0]:
        v1 = list(iter_bits(b1))
        for b2, b3 in product(*blocks_per_part[1:]):
            if (b2, b3) not in pairs:
                pairs[b2, b3] = _piece_pairs(G, b2, b3, cfg)[1]
            if _list_pairs(G.adjacency, v1, pairs[b2, b3], result.witnesses,
                           t):
                result.truncated = True
                return result
    return result


def list_all_triangles(G: KPartiteGraph,
                       cfg: Optional[RegularityConfig] = None) -> ListingResult:
    """Every triangle in the graph: one untruncated threshold pass."""
    return list_triangles_threshold(G, None, cfg)
