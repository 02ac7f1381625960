"""Triangle detection and output-sensitive listing.

Three engines over 3-part graphs:

* ``detect_naive``   -- word-AND over neighbourhood bit-rows per edge; the
  dense rows it scans are listed by ``bitops.bits_to_list``'s byte walk.
* ``detect_four_russians`` -- Four-Russians reach masks: part 1 is cut
  into blocks of b vertices, and every subset of a block maps to the union
  of its part-2 neighbourhoods, so a part-0 vertex's question "is there an
  edge under my row?" is one lookup per block, OR'd, plus one AND.  Tables
  are keyed by block-local masks; b defaults to floor(log2(n) / 2).
  ``check_table_bytes`` is the byte-budget guard of every table engine.
* ``list_row_and`` -- output-sensitive listing by row ANDs, with no
  table: for each part-0 vertex v and each neighbour u in part 1, one AND
  of u's row with v's part-2 neighbourhood yields every w closing a
  triangle, so listing cost tracks sum_v d_1(v) big-int ANDs plus the
  output size.  Part-1 vertices with no part-2 neighbour are dropped once,
  up front.  The loop ``_row_and`` yields its triangles and
  ``ListingResult.take`` keeps the first t, so it runs only up to the
  (t + 1)-th.
"""

import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .bitops import (bits_to_list, iter_bits, mask_from_vertices,
                     split_bits)
from .core import KPartiteGraph
from .errors import (InternalInconsistencyError, InvalidParameterError,
                     ResourceLimitError)
from .oracles import ListingResult

MAX_BLOCK_SIZE = 13

_ENV_BUDGET = "CLIQUELAB_MAX_TABLE_BYTES"
_DEFAULT_TABLE_BYTES = 1 << 28


def table_byte_budget() -> int:
    """``CLIQUELAB_MAX_TABLE_BYTES``, read at every call, else 2^28; a
    budget of 0 refuses every table."""
    raw = os.environ.get(_ENV_BUDGET)
    if raw is None:
        return _DEFAULT_TABLE_BYTES
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise InvalidParameterError(
            f"{_ENV_BUDGET} must be a non-negative integer, got {raw!r}")
    return budget


def check_table_bytes(need: int) -> None:
    """Raise ``ResourceLimitError`` if ~need table bytes exceed the budget."""
    budget = table_byte_budget()
    if need > budget:
        raise ResourceLimitError(
            f"table needs ~{need} bytes, budget is {budget} (set "
            f"{_ENV_BUDGET} to raise)", required=need, allowed=budget)


def block_table_bytes(G: KPartiteGraph, b: int) -> int:
    """Estimated reach-table bytes at block size b: 2^b masks of
    ``len(adjacency)`` bits per part-1 block."""
    blocks = -(-G.part_sizes[1] // b)
    return blocks * (1 << b) * -(-len(G.adjacency) // 8)


def default_block_size(G: KPartiteGraph) -> int:
    """b = max(1, floor(log2 n_total / 2)), within about 10% of the best
    build + query time on dense triangle-free graphs (96-1024 per part),
    stepped down while ``block_table_bytes`` exceeds the byte budget; at
    b = 1 ``BlockEdgeTable`` raises if the table still does not fit."""
    b, budget = max(1, (G.n_total.bit_length() - 1) // 2), table_byte_budget()
    while b > 1 and block_table_bytes(G, b) > budget:
        b -= 1
    return b


class BlockEdgeTable:
    """Four-Russians reach masks over parts 1 and 2.

    Part 1 is cut into blocks of b vertices (``split_bits``; a view's
    blocks may have gaps).  ``reach[i]`` maps every subset S of block i,
    keyed by the block-local mask ``S >> shifts[i]`` (``shifts[i]`` is the
    block's lowest bit), to the union of S's part-2 neighbourhoods, so the
    part-2 reach of a part-1 set is one short-key lookup per block, OR'd.
    """

    def __init__(self, G: KPartiteGraph, b: int):
        if G.k != 3:
            raise InvalidParameterError(f"expected 3 parts, got {G.k}")
        if b < 1:
            raise InvalidParameterError("block size must be >= 1")
        if b > MAX_BLOCK_SIZE:
            raise ResourceLimitError(
                f"block size {b} needs 2^{b} reach entries per block, cap is "
                f"2^{MAX_BLOCK_SIZE}",
                required=b, allowed=MAX_BLOCK_SIZE)
        check_table_bytes(block_table_bytes(G, b))
        self.blocks = split_bits(G.part_masks[1], b)
        self.shifts = [(bl & -bl).bit_length() - 1 for bl in self.blocks]

        mask3 = G.part_masks[2]
        self.reach: List[Dict[int, int]] = []
        for block, lo in zip(self.blocks, self.shifts):
            sub = {0: 0}
            for u in iter_bits(block):
                bit, nbrs = 1 << (u - lo), G.adjacency[u] & mask3
                sub.update({S | bit: r | nbrs for S, r in sub.items()})
            self.reach.append(sub)


def build_block_edge_table(G: KPartiteGraph, b: int) -> BlockEdgeTable:
    return BlockEdgeTable(G, b)


# -- detection -------------------------------------------------------------


def detect_naive(G: KPartiteGraph) -> Optional[Tuple[int, int, int]]:
    """First triangle by scanning edges (v2, v3), one row AND per edge."""
    if len(G.part_masks) != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    adj, mask1, mask3 = G.adjacency, G.part_masks[0], G.part_masks[2]
    for v2 in bits_to_list(G.part_masks[1]):
        row2 = adj[v2]
        if not (n0 := row2 & mask1):
            continue
        for v3 in bits_to_list(row2 & mask3):
            if common := n0 & adj[v3]:
                return ((common & -common).bit_length() - 1, v2, v3)
    return None


def detect_four_russians(G: KPartiteGraph, block_size: Optional[int] = None
                         ) -> Optional[Tuple[int, int, int]]:
    """Triangle detection through the block reach masks.

    The table is built here, from G, at ``block_size`` (default
    ``default_block_size(G)``); no prebuilt table is taken, so a query
    never meets a table of another graph.  On a hit the part-1 neighbours
    of v1 are rescanned in ascending order, and the witness is (v1, first
    such u with a common part-2 neighbour, lowest common w).
    """
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    table = build_block_edge_table(
        G, default_block_size(G) if block_size is None else block_size)
    mask2, mask3 = G.part_masks[1], G.part_masks[2]
    lookups = [(lo, block >> lo, sub) for block, lo, sub
               in zip(table.blocks, table.shifts, table.reach)]
    for v1 in iter_bits(G.part_masks[0]):
        row = G.adjacency[v1]
        row3 = row & mask3
        if not row & mask2 or not row3:
            continue
        reach = 0
        for lo, local, sub in lookups:
            reach |= sub[(row >> lo) & local]
        if reach & row3:
            for u in iter_bits(row & mask2):
                common = G.adjacency[u] & row3
                if common:
                    return (v1, u, (common & -common).bit_length() - 1)
            raise InternalInconsistencyError(
                "table reported an edge the rescan could not find")
    return None


# -- listing ---------------------------------------------------------------


def _row_and(adj: List[int], pivots: Iterable[int], mask_a: int,
             mask_b: int) -> Iterator[Tuple[int, int, int]]:
    """Row-AND listing: for each vertex v of ``pivots`` (ascending), each
    neighbour u in ``mask_a`` and each w in N(u) & N(v) & ``mask_b``, all
    in ascending order, yield (v, u, w); the run is lexicographic."""
    for v in pivots:
        row = adj[v]
        nb = row & mask_b
        if not nb:
            continue
        for u in iter_bits(row & mask_a):
            for w in iter_bits(adj[u] & nb):
                yield (v, u, w)


def with_neighbour_in(adj: List[int], mask: int, target: int) -> int:
    """The vertices of ``mask`` with a neighbour in ``target``: the only
    ones whose rows a row-AND pass into ``target`` can use."""
    return mask_from_vertices(u for u in iter_bits(mask) if adj[u] & target)


def list_row_and(G: KPartiteGraph, t: Optional[int]) -> ListingResult:
    """List up to t triangles, pivoting on part 0: one AND per V1-V2 edge
    whose V2 end has a V3 neighbour."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    result = ListingResult(requested_t=t)
    _, mask2, mask3 = G.part_masks
    return result.take(_row_and(G.adjacency, G.part_vertices(0),
                                with_neighbour_in(G.adjacency, mask2, mask3),
                                mask3))
