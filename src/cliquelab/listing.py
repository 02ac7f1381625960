"""Regularity-partition triangle listing.

One pass over the input graph: compute a weak regularity partition of
G[V2 u V3]; for every piece pair (i, j) keep the V2_i vertices with a
neighbour in V3_j; list each pair's triangles with the row-AND lister
pivoting on V1; one t-cutoff spans all piece pairs.  Piece pairs are
vertex masks of the one graph, not views.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bitops import iter_bits
from .core import KPartiteGraph
from .errors import InvalidParameterError
from .oracles import ListingResult
from .regularity import (PseudoregularPartition, RegularityConfig,
                         default_epsilon, edge_count_between,
                         weak_regular_partition)
from .triangle import _list_sparse, with_neighbour_in


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


def _piece_pairs(G: KPartiteGraph, cfg: RegularityConfig
                 ) -> Tuple[Optional[PseudoregularPartition], List[tuple]]:
    """Weak regularity partition of G[V2 u V3] under ``cfg``, and its piece
    pairs ((i, j), s2, s3, kept) with s2 = piece_i & V2 and s3 = piece_j &
    V3 non-empty, in (i, j) order, and kept the vertices of s2 with a
    neighbour in s3.  With V2 or V3 empty there is no pair to list, and
    nothing is partitioned."""
    _, b2, b3 = G.part_masks
    if not (b2 and b3):
        return None, []
    partition = weak_regular_partition(G, cfg)
    adj = G.adjacency
    sides = [(i, p & b2, p & b3) for i, p in enumerate(partition.pieces)]
    return partition, [((i, j), s2, s3, with_neighbour_in(adj, s2, s3))
                       for i, s2, _ in sides if s2 for j, _, s3 in sides if s3]


def _list_pass(G: KPartiteGraph, t: Optional[int],
               cfg: Optional[RegularityConfig]
               ) -> Tuple[ListingResult, Optional[PseudoregularPartition],
                          List[tuple]]:
    """The regularity pipeline: partition once, then list every piece pair
    in order into one witness list, pivoting on V1, up to t."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    if cfg is None:
        cfg = RegularityConfig(epsilon=default_epsilon(G.n_total))
    result = ListingResult(requested_t=t)
    partition, pairs = _piece_pairs(G, cfg)
    v1 = list(iter_bits(G.part_masks[0]))
    result.truncated = any(
        _list_sparse(G.adjacency, v1, kept, s3, result.witnesses, t)
        for _, _, s3, kept in pairs if kept)
    return result, partition, pairs


def list_triangles_detailed(G: KPartiteGraph, t: Optional[int],
                            cfg: Optional[RegularityConfig] = None
                            ) -> RegularityListing:
    """``list_triangles`` with per-pair densities.  With V2 or V3 empty
    nothing is partitioned: no pieces, no plans."""
    result, partition, pairs = _list_pass(G, t, cfg)
    plans = []
    for pair, s2, s3, _ in pairs:
        dens = (edge_count_between(G, s2, s3)
                / (s2.bit_count() * s3.bit_count()))
        plans.append(PairPlan(piece_pair=pair, density=dens,
                              low_density=dens <= math.sqrt(
                                  partition.epsilon)))
    return RegularityListing(
        result=result, plans=plans,
        partition_verified=partition is None or partition.verified,
        piece_count=partition.piece_count if partition else 0)


def list_triangles(G: KPartiteGraph, t: Optional[int],
                   cfg: Optional[RegularityConfig] = None) -> ListingResult:
    """List up to t triangles via the regularity pipeline."""
    return _list_pass(G, t, cfg)[0]


def list_all_triangles(G: KPartiteGraph,
                       cfg: Optional[RegularityConfig] = None) -> ListingResult:
    """Every triangle in the graph: one untruncated pass."""
    return list_triangles(G, None, cfg)
