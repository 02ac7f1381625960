"""Triangle listing: one entry point per engine.

``list_all_triangles`` is the row-AND lister, untruncated.
``list_triangles`` is the regularity pipeline: compute a weak regularity
partition of G[V2 u V3]; for every piece pair (i, j) keep the V2_i vertices
with a neighbour in V3_j; the row-AND loop pivoting on V1 yields each
pair's triangles, and ``ListingResult.take`` keeps the first t of the
pairs' runs chained in (i, j) order.  Piece pairs are vertex masks of the
one graph, not views.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

from .bitops import iter_bits
from .core import KPartiteGraph
from .errors import InvalidParameterError
from .oracles import ListingResult
from .regularity import (RegularityConfig, default_epsilon,
                         edge_count_between, weak_regular_partition)
from .triangle import _row_and, list_row_and, with_neighbour_in


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


def list_triangles(G: KPartiteGraph, t: Optional[int],
                   cfg: Optional[RegularityConfig] = None
                   ) -> RegularityListing:
    """List up to t triangles via the regularity pipeline: partition once
    under ``cfg`` (default: the default epsilon), then list every piece
    pair with s2 = piece_i & V2 and s3 = piece_j & V3 non-empty, in (i, j)
    order, into one witness list, and give each pair's density as a
    ``PairPlan``.  With V2 or V3 empty nothing is partitioned: no pieces,
    no plans."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    result = ListingResult(requested_t=t)
    b1, b2, b3 = G.part_masks
    if not (b2 and b3):
        return RegularityListing(result=result, plans=[],
                                 partition_verified=True, piece_count=0)
    if cfg is None:
        cfg = RegularityConfig(epsilon=default_epsilon(G.n_total))
    partition = weak_regular_partition(G, cfg)
    adj = G.adjacency
    v1 = list(iter_bits(b1))
    sides2 = [(i, p & b2) for i, p in enumerate(partition.pieces) if p & b2]
    sides3 = [(j, p & b3) for j, p in enumerate(partition.pieces) if p & b3]
    root_eps = math.sqrt(partition.epsilon)
    runs, plans = [], []
    for i, s2 in sides2:
        for j, s3 in sides3:
            kept = with_neighbour_in(adj, s2, s3)
            if kept:
                runs.append(_row_and(adj, v1, kept, s3))
            dens = (edge_count_between(G, s2, s3)
                    / (s2.bit_count() * s3.bit_count()))
            plans.append(PairPlan(piece_pair=(i, j), density=dens,
                                  low_density=dens <= root_eps))
    result.take(chain.from_iterable(runs))
    return RegularityListing(result=result, plans=plans,
                             partition_verified=partition.verified,
                             piece_count=partition.piece_count)


def list_all_triangles(G: KPartiteGraph) -> ListingResult:
    """Every triangle in the graph, by the row-AND lister: lexicographic
    in (v1, v2, v3), the order of ``brute_triangles``."""
    return list_row_and(G, None)
