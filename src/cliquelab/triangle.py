"""Triangle detection and output-sensitive listing.

Three engines over 3-part graphs:

* ``detect_naive``   -- word-AND over neighbourhood bit-rows per edge.
* ``detect_four_russians`` -- block-subset lookup tables: blocks of size b
  over parts 1 and 2; per block pair a table answering "is there an edge
  between subset S and subset T" in O(1).
* ``list_sparse_four_russians`` / ``list_sparse_pivoted`` -- the sparse
  variant: neighbourhoods are chunked into pieces of size <= delta and the
  per-chunk-pair edge lists are served from a memoised table, so listing
  cost tracks sum d_a(v) * d_b(v) plus the output size.
"""

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitops import iter_bits, mask_from_vertices
from .core import KPartiteGraph
from .errors import (InternalInconsistencyError, InvalidParameterError,
                     ResourceLimitError)
from .oracles import UNBOUNDED, ListingResult

DEFAULT_MAX_INDEX_BITS = 26
DEFAULT_BLOCK_EPS = 0.25

_ENV_BUDGET = "CLIQUELAB_MAX_TABLE_BYTES"
_DEFAULT_TABLE_BYTES = 1 << 28


def table_byte_budget() -> int:
    return int(os.environ.get(_ENV_BUDGET, _DEFAULT_TABLE_BYTES))


@dataclass(frozen=True)
class BlockScheme:
    """Equal blocks of consecutive part vertices (last block may be short)."""

    part: int
    block_size: int
    blocks: Tuple[Sequence[int], ...]

    @classmethod
    def cover(cls, G: KPartiteGraph, part: int, block_size: int) -> "BlockScheme":
        if block_size < 1:
            raise InvalidParameterError("block size must be >= 1")
        verts = G.part_vertices(part)
        blocks = tuple(verts[lo:lo + block_size]
                       for lo in range(0, len(verts), block_size))
        return cls(part=part, block_size=block_size,
                   blocks=blocks or (verts[0:0],))


def default_block_size(n_total: int, eps: float = DEFAULT_BLOCK_EPS) -> int:
    """b = max(1, floor(eps * log2 n)): logarithmic block side so the
    per-block subset tables stay word-sized."""
    if n_total < 2:
        return 1
    return max(1, int(eps * math.log2(n_total)))


def _graph_fingerprint(G: KPartiteGraph) -> int:
    """Hash of the part masks and of the rows of the graph's own vertices;
    a view does not pay for hashing the rows it shares but leaves out."""
    rows = tuple(G.adjacency[v] for i in range(G.k) for v in G.part_vertices(i))
    return hash((tuple(G.part_masks), rows))


def _part_ids(G: KPartiteGraph, part: int) -> np.ndarray:
    return np.fromiter(G.part_vertices(part), dtype=np.intp,
                       count=G.part_sizes[part])


def _row_bits(G: KPartiteGraph, row: int) -> np.ndarray:
    """Unpacked row: entry v is bit v."""
    nbytes = max(1, (len(G.adjacency) + 7) // 8)
    raw = np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def _block_masks(bits: np.ndarray, b: int, g: int) -> np.ndarray:
    """Pack a part's local bits into g masks of b bits each."""
    if bits.size < g * b:
        bits = np.pad(bits, (0, g * b - bits.size))
    weights = (1 << np.arange(b, dtype=np.uint64))
    return (bits.reshape(g, b).astype(np.uint64) * weights).sum(axis=1)


class BlockEdgeTable:
    """Per-block-pair subset lookup table over parts 1 and 2.

    Stores, for every (block i, subset S), the union of S's
    neighbourhoods restricted to each block j of part 2 ("reach" masks);
    entry(S, T) is then a single AND.
    """

    def __init__(self, G: KPartiteGraph, b: int,
                 max_index_bits: int = DEFAULT_MAX_INDEX_BITS):
        if G.k != 3:
            raise InvalidParameterError(f"expected 3 parts, got {G.k}")
        if b < 1:
            raise InvalidParameterError("block size must be >= 1")
        if 2 * b > max_index_bits:
            raise ResourceLimitError(
                f"subset-pair index needs {2 * b} bits, guard is {max_index_bits}",
                required=2 * b, allowed=max_index_bits)
        self.b = b
        self.fingerprint = _graph_fingerprint(G)
        self.scheme2 = BlockScheme.cover(G, 1, b)
        self.scheme3 = BlockScheme.cover(G, 2, b)
        n2, n3 = G.part_sizes[1], G.part_sizes[2]
        self.g = max(1, -(-n2 // b))
        self.h = max(1, -(-n3 // b))

        entry_count = self.g * self.h * (1 << b)
        if entry_count * 8 > table_byte_budget():
            raise ResourceLimitError(
                f"table needs ~{entry_count * 8} bytes, budget is "
                f"{table_byte_budget()} (set {_ENV_BUDGET} to raise)",
                required=entry_count * 8, allowed=table_byte_budget())

        ids3 = _part_ids(G, 2)
        # Neighbour block-masks: B[u_local, j] = neighbours of u in block j.
        B = np.zeros((max(n2, 1), self.h), dtype=np.uint64)
        for u_local, u in enumerate(G.part_vertices(1)):
            B[u_local] = _block_masks(_row_bits(G, G.adjacency[u])[ids3],
                                      b, self.h)
        pad = self.g * b - n2
        if pad > 0:
            B = np.vstack([B[:n2], np.zeros((pad, self.h), dtype=np.uint64)])
        Bblocks = B[: self.g * b].reshape(self.g, b, self.h)

        # reach[i, S, j] = union over u in S of B[u, j]
        reach = np.zeros((self.g, 1 << b, self.h), dtype=np.uint64)
        for S in range(1, 1 << b):
            low = S & -S
            u = low.bit_length() - 1
            reach[:, S, :] = reach[:, S ^ low, :] | Bblocks[:, u, :]
        self.reach = reach

    def entry(self, i: int, j: int, S: int, T: int) -> bool:
        return bool(int(self.reach[i, S, j]) & T)


def build_block_edge_table(G: KPartiteGraph, b: int,
                           max_index_bits: int = DEFAULT_MAX_INDEX_BITS
                           ) -> BlockEdgeTable:
    return BlockEdgeTable(G, b, max_index_bits=max_index_bits)


# -- detection -------------------------------------------------------------


def detect_naive(G: KPartiteGraph) -> Optional[Tuple[int, int, int]]:
    """First triangle by scanning edges (v2, v3) and ANDing N_0 rows."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    mask1 = G.part_masks[0]
    mask3 = G.part_masks[2]
    for v2 in G.part_vertices(1):
        row2 = G.adjacency[v2]
        for v3 in iter_bits(row2 & mask3):
            common = row2 & G.adjacency[v3] & mask1
            if common:
                v1 = (common & -common).bit_length() - 1
                return (v1, v2, v3)
    return None


def detect_four_russians(G: KPartiteGraph,
                         table: Optional[BlockEdgeTable] = None
                         ) -> Optional[Tuple[int, int, int]]:
    """Triangle detection through the block-subset lookup table.

    Without a prebuilt table one is constructed at the default block size;
    a supplied table must have been built from this exact graph.
    """
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    if table is None:
        table = build_block_edge_table(G, default_block_size(G.n_total))
    if table.fingerprint != _graph_fingerprint(G):
        raise InvalidParameterError("table was built from a different graph")
    b = table.b
    mask2, mask3 = G.part_masks[1], G.part_masks[2]
    ids2, ids3 = _part_ids(G, 1), _part_ids(G, 2)
    g_idx = np.arange(table.g)
    for v1 in G.part_vertices(0):
        row = G.adjacency[v1]
        if not row & mask2 or not row & mask3:
            continue
        bits = _row_bits(G, row)
        masks2 = _block_masks(bits[ids2], b, table.g)
        masks3 = _block_masks(bits[ids3], b, table.h)
        hit = table.reach[g_idx, masks2, :] & masks3[None, :]
        nz = np.nonzero(hit)
        if nz[0].size:
            i, j = int(nz[0][0]), int(nz[1][0])
            block2 = table.scheme2.blocks[i]
            block3 = table.scheme3.blocks[j]
            for u in block2:
                if not G.has_edge(v1, u):
                    continue
                for w in block3:
                    if G.has_edge(v1, w) and G.has_edge(u, w):
                        return (v1, u, w)
            raise InternalInconsistencyError(
                "table reported an edge the rescan could not find")
    return None


# -- sparse Four-Russians listing -----------------------------------------


def _subset_count(s: int, delta: int) -> int:
    return sum(math.comb(s, i) for i in range(delta + 1))


@dataclass
class SparseFRParams:
    """Block size s and chunk size delta for the sparse listing variant."""

    s: int
    delta: int
    max_index_bits: int = DEFAULT_MAX_INDEX_BITS

    def validate(self) -> None:
        if self.s < 1:
            raise InvalidParameterError("s must be >= 1")
        if not 1 <= self.delta <= self.s:
            raise InvalidParameterError("need 1 <= delta <= s")
        bits = 2 * max(1, math.ceil(math.log2(_subset_count(self.s, self.delta))))
        if bits > self.max_index_bits:
            raise ResourceLimitError(
                f"subset-pair index needs {bits} bits, guard is "
                f"{self.max_index_bits}",
                required=bits, allowed=self.max_index_bits)

    @classmethod
    def defaults(cls, G: KPartiteGraph,
                 max_index_bits: int = DEFAULT_MAX_INDEX_BITS) -> "SparseFRParams":
        """Single block per part; delta ~ log2(n)/4, clamped to the guard."""
        n = G.n_total
        s = max(1, max(G.part_sizes))
        delta = max(1, int(math.log2(n) / 4)) if n >= 2 else 1
        return cls._clamped(s, delta, max_index_bits)

    @classmethod
    def paper(cls, G: KPartiteGraph,
              max_index_bits: int = DEFAULT_MAX_INDEX_BITS) -> "SparseFRParams":
        """Literal asymptotic formulas s=(log n)^100, delta=log n/(1000 loglog n),
        then clamped to desk scale."""
        n = max(2, G.n_total)
        log = math.log2(n)
        s = int(log ** 100) if log ** 100 < 2 ** 62 else 2 ** 62
        s = min(max(1, s), max(1, max(G.part_sizes)))
        loglog = math.log2(log) if log > 1 else 1.0
        delta = max(1, int(log / (1000 * max(loglog, 1e-9))))
        return cls._clamped(s, delta, max_index_bits)

    @classmethod
    def _clamped(cls, s: int, delta: int, max_index_bits: int) -> "SparseFRParams":
        delta = min(delta, s)
        while delta > 1:
            bits = 2 * max(1, math.ceil(math.log2(_subset_count(s, delta))))
            if bits <= max_index_bits:
                break
            delta -= 1
        p = cls(s=s, delta=delta, max_index_bits=max_index_bits)
        p.validate()
        return p


def _chunks_of(mask: int, delta: int) -> List[int]:
    """Split a bitmask into disjoint chunks of <= delta set bits each."""
    out = []
    while mask:
        chunk = 0
        for _ in range(delta):
            if not mask:
                break
            low = mask & -mask
            chunk |= low
            mask ^= low
        out.append(chunk)
    return out


def _list_sparse(G: KPartiteGraph, t: Optional[int], params: SparseFRParams,
                 pivot: int, pa: int, pb: int,
                 chunk_audit: Optional[list] = None) -> ListingResult:
    """Core sparse Four-Russians listing with configurable part roles.

    Pivots on part ``pivot``; chunks neighbourhoods in parts ``pa`` and
    ``pb``.  Witnesses are emitted in canonical part order.
    """
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    params.validate()
    s, delta = params.s, params.delta
    scheme_a = BlockScheme.cover(G, pa, s)
    scheme_b = BlockScheme.cover(G, pb, s)
    mask_a = G.part_masks[pa]
    mask_b = G.part_masks[pb]
    block_masks_a = [mask_from_vertices(r) for r in scheme_a.blocks]
    block_masks_b = [mask_from_vertices(r) for r in scheme_b.blocks]

    # Memoised per-(S, T) edge lists; each distinct subset pair is scanned
    # at most once (<= delta^2 probes).
    memo: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

    def edges_between(S: int, T: int) -> Tuple[Tuple[int, int], ...]:
        key = (S, T)
        cached = memo.get(key)
        if cached is not None:
            return cached
        found = []
        for u in iter_bits(S):
            hit = G.adjacency[u] & T
            for w in iter_bits(hit):
                found.append((u, w))
        memo[key] = tuple(found)
        return memo[key]

    order = sorted([pivot, pa, pb])
    perm = [order.index(p) for p in (pivot, pa, pb)]

    result = ListingResult(requested_t=t)
    for v in G.part_vertices(pivot):
        row = G.adjacency[v]
        na = row & mask_a
        nb = row & mask_b
        if not na or not nb:
            continue
        chunks_a: List[int] = []
        for bm in block_masks_a:
            block_bits = na & bm
            got = _chunks_of(block_bits, delta)
            if chunk_audit is not None and block_bits:
                chunk_audit.append((block_bits, tuple(got), delta))
            chunks_a.extend(got)
        chunks_b: List[int] = []
        for bm in block_masks_b:
            block_bits = nb & bm
            got = _chunks_of(block_bits, delta)
            if chunk_audit is not None and block_bits:
                chunk_audit.append((block_bits, tuple(got), delta))
            chunks_b.extend(got)
        for S in chunks_a:
            for T in chunks_b:
                for (u, w) in edges_between(S, T):
                    if t is not UNBOUNDED and len(result.witnesses) == t:
                        result.truncated = True
                        return result
                    raw = (v, u, w)
                    canon = tuple(raw[perm.index(slot)] for slot in range(3))
                    result.witnesses.append(canon)
    return result


def list_sparse_four_russians(G: KPartiteGraph, t: Optional[int],
                              params: Optional[SparseFRParams] = None,
                              chunk_audit: Optional[list] = None
                              ) -> ListingResult:
    """List up to t triangles, pivoting on part 0 (vertex-degree driven)."""
    if params is None:
        params = SparseFRParams.defaults(G)
    return _list_sparse(G, t, params, pivot=0, pa=1, pb=2,
                        chunk_audit=chunk_audit)


def list_sparse_pivoted(G: KPartiteGraph, t: Optional[int],
                        params: Optional[SparseFRParams] = None,
                        chunk_audit: Optional[list] = None) -> ListingResult:
    """List up to t triangles pivoting on part 1, so cost tracks e(V2, V3)."""
    if params is None:
        params = SparseFRParams.defaults(G)
    return _list_sparse(G, t, params, pivot=1, pa=0, pb=2,
                        chunk_audit=chunk_audit)
