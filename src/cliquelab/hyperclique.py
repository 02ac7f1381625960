"""r-uniform k-partite hyperclique listing and detection.

Strategy: for each vertex v of part 0, the adjacency subgraph G_v (tuples
completing a hyperedge with v) is compared block-tuple by block-tuple
against precomputed lookup tables.  Small (r-1)-uniform hypergraphs on a
block tuple are keyed by a fixed-order L-bit compact representation, so
each comparison is one table lookup.
"""

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import UniformHypergraph
from .errors import InvalidParameterError, ResourceLimitError
from .oracles import UNBOUNDED, ListingResult
from .triangle import table_byte_budget

DEFAULT_MAX_TABLE_BITS = 22


@dataclass(frozen=True)
class HypercliqueParams:
    """Block side s and derived compact-representation geometry."""

    s: int
    k: int
    r: int
    max_table_bits: int = DEFAULT_MAX_TABLE_BITS

    @property
    def segment_length(self) -> int:
        return self.s ** (self.r - 1)

    @property
    def index_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """(r-1)-subsets of slots {0..k-2}, lexicographic; fixes segment order."""
        return tuple(combinations(range(self.k - 1), self.r - 1))

    @property
    def L(self) -> int:
        return math.comb(self.k - 1, self.r - 1) * self.segment_length

    def validate(self) -> None:
        if self.s < 1:
            raise InvalidParameterError("s must be >= 1")
        if not 2 <= self.r < self.k:
            raise InvalidParameterError("need 2 <= r < k")
        if self.L > self.max_table_bits:
            raise ResourceLimitError(
                f"compact representation needs {self.L} bits, guard is "
                f"{self.max_table_bits}",
                required=self.L, allowed=self.max_table_bits)


def formula_block_side(n: int, k: int, r: int) -> float:
    """Real-valued s = (log2 n / (2 C(k-1, r-1)))^(1/(r-1))."""
    return (math.log2(n) / (2 * math.comb(k - 1, r - 1))) ** (1.0 / (r - 1))


def choose_block_size(n: int, k: int, r: int,
                      max_table_bits: int = DEFAULT_MAX_TABLE_BITS
                      ) -> HypercliqueParams:
    """Floor the formula block side, then shrink until L fits the guards.

    At desk scale the formula often lands below 1; s is floored at 1, in
    which case L = C(k-1, r-1) is the smallest representation possible and
    only the max_table_bits guard applies.
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 2 <= r < k:
        raise InvalidParameterError("need 2 <= r < k")
    target = min(math.ceil(math.log2(n) / 2), max_table_bits)
    s = max(1, int(formula_block_side(n, k, r)))
    while s > 1 and math.comb(k - 1, r - 1) * s ** (r - 1) > target:
        s -= 1
    params = HypercliqueParams(s=s, k=k, r=r, max_table_bits=max_table_bits)
    params.validate()
    return params


# -- adjacency subgraph ----------------------------------------------------


def adjacency_subgraph(H: UniformHypergraph, v: int) -> UniformHypergraph:
    """G_v: the (k-1)-partite (r-1)-uniform hypergraph of tuples that
    complete a hyperedge with v.  Vertex ids are shifted down by part 0."""
    if H.part_of(v) != 0:
        raise InvalidParameterError("adjacency subgraph expects a part-0 vertex")
    if H.r < 2:
        raise InvalidParameterError("uniformity must be >= 2")
    shift = H.part_sizes[0]
    G_v = UniformHypergraph(H.r - 1, H.part_sizes[1:])
    for e in H.edges:
        if v in e:
            rest = tuple(u - shift for u in e if u != v)
            G_v.add_edge(rest)
    return G_v


# -- compact representation ------------------------------------------------


def _blocks_of_part(H: UniformHypergraph, part: int, s: int) -> List[range]:
    start = H.part_start[part]
    size = H.part_sizes[part]
    out = [range(start + lo, start + min(lo + s, size))
           for lo in range(0, size, s)]
    return out or [range(start, start)]


class BlockGeometry:
    """Block decomposition of parts 1..k-1 plus segment offsets."""

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        params.validate()
        if H.k != params.k or H.r != params.r:
            raise InvalidParameterError("params do not match hypergraph shape")
        self.params = params
        self.H = H
        self.s = params.s
        self.blocks = [_blocks_of_part(H, p, params.s)
                       for p in range(1, H.k)]          # slot -> block list
        self.block_counts = [len(b) for b in self.blocks]
        self.index_sets = params.index_sets
        self.seg_offset = {I: idx * params.segment_length
                           for idx, I in enumerate(self.index_sets)}

    def slot_of(self, u: int) -> int:
        return self.H.part_of(u) - 1

    def block_of(self, u: int) -> int:
        slot = self.slot_of(u)
        return (u - self.H.part_start[slot + 1]) // self.s

    def local_of(self, u: int) -> int:
        slot = self.slot_of(u)
        return (u - self.H.part_start[slot + 1]) % self.s

    def tuple_bit(self, verts: Sequence[int]) -> Tuple[Tuple[int, ...],
                                                       Tuple[int, ...], int]:
        """For a cross-slot (r-1)-tuple: (I, block indices, bit position)."""
        pairs = sorted((self.slot_of(u), u) for u in verts)
        I = tuple(slot for slot, _ in pairs)
        jI = tuple(self.block_of(u) for _, u in pairs)
        pos = 0
        for _, u in pairs:
            pos = pos * self.s + self.local_of(u)
        return I, jI, self.seg_offset[I] + pos


def encode_compact(edges: Iterable[Tuple[int, ...]], geometry: BlockGeometry,
                   block_tuple: Tuple[int, ...]) -> int:
    """L-bit encoding of an (r-1)-uniform hypergraph living on one block
    tuple.  Edges are given as tuples of global ids of parts 1..k-1."""
    rep = 0
    for e in edges:
        I, jI, bit = geometry.tuple_bit(e)
        expect = tuple(block_tuple[slot] for slot in I)
        if jI != expect:
            raise InvalidParameterError(
                f"edge {tuple(e)} lies outside block tuple {block_tuple}")
        rep |= 1 << bit
    return rep


def decode_compact(rep: int, geometry: BlockGeometry,
                   block_tuple: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
    """Inverse of encode_compact: the set of sorted global-id edge tuples."""
    s = geometry.s
    rm1 = geometry.params.r - 1
    out: Set[Tuple[int, ...]] = set()
    seg_len = geometry.params.segment_length
    for I in geometry.index_sets:
        base = geometry.seg_offset[I]
        seg = (rep >> base) & ((1 << seg_len) - 1)
        while seg:
            low = seg & -seg
            pos = low.bit_length() - 1
            seg ^= low
            locals_rev = []
            p = pos
            for _ in range(rm1):
                locals_rev.append(p % s)
                p //= s
            verts = []
            for t, slot in enumerate(I):
                local = locals_rev[rm1 - 1 - t]
                block = geometry.blocks[slot][block_tuple[slot]]
                if local >= len(block):
                    raise InvalidParameterError(
                        "set bit in zero-padded block position")
                verts.append(block[local])
            out.add(tuple(sorted(verts)))
    return out


# -- lookup tables ---------------------------------------------------------


class HypercliqueTables:
    """Per block tuple j, entries keyed by compact representation.

    entry(j, rep) lists the tuples (v_2..v_k) in the block tuple that are
    (k-1)-hypercliques both in the induced subgraph G^j of the input and
    in the rep-encoded hypergraph.  Entries are filled by enumerating,
    for each qualifying candidate tuple, every representation containing
    its required bits.
    """

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        self.geometry = BlockGeometry(H, params)
        geo = self.geometry
        L = params.L
        j_total = 1
        for c in geo.block_counts:
            j_total *= c
        entry_bytes = j_total * (1 << L) * 8
        if entry_bytes > table_byte_budget():
            raise ResourceLimitError(
                f"tables need ~{entry_bytes} bytes, budget is "
                f"{table_byte_budget()}",
                required=entry_bytes, allowed=table_byte_budget())
        self.entries: Dict[Tuple[Tuple[int, ...], int], List[Tuple[int, ...]]] = {}
        self.populated_j: Set[Tuple[int, ...]] = set()
        full = (1 << L) - 1
        for j in product(*[range(c) for c in geo.block_counts]):
            block_ranges = [geo.blocks[slot][j[slot]]
                            for slot in range(H.k - 1)]
            if any(len(b) == 0 for b in block_ranges):
                continue
            for cand in product(*block_ranges):
                if not H.is_hyperclique(cand):
                    continue
                required = 0
                for sub in combinations(cand, H.r - 1):
                    _, _, bit = geo.tuple_bit(sub)
                    required |= 1 << bit
                self.populated_j.add(j)
                free = full & ~required
                # enumerate rep supersets of the required bits
                sub_mask = free
                while True:
                    key = (j, required | sub_mask)
                    self.entries.setdefault(key, []).append(cand)
                    if sub_mask == 0:
                        break
                    sub_mask = (sub_mask - 1) & free

    def entry(self, j: Tuple[int, ...], rep: int) -> List[Tuple[int, ...]]:
        return self.entries.get((j, rep), [])


def build_tables(H: UniformHypergraph, params: HypercliqueParams
                 ) -> HypercliqueTables:
    return HypercliqueTables(H, params)


def compress_all(H: UniformHypergraph, params: HypercliqueParams
                 ) -> Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int]:
    """Segment cache: (v, I, j_I) -> segment bits of G_v^j restricted to I.

    A full representation for any (v, j) is then assembled by concatenating
    C(k-1, r-1) cached segments.
    """
    geo = BlockGeometry(H, params)
    cache: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int] = {}
    part0 = set(H.part_vertices(0))
    off = geo.seg_offset
    for e in H.edges:
        for v in e:
            if v not in part0:
                continue
            rest = tuple(u for u in e if u != v)
            I, jI, bit = geo.tuple_bit(rest)
            key = (v, I, jI)
            cache[key] = cache.get(key, 0) | (1 << (bit - off[I]))
    return cache


def assemble_rep(cache, geo: BlockGeometry, v: int,
                 j: Tuple[int, ...]) -> int:
    rep = 0
    for I in geo.index_sets:
        jI = tuple(j[slot] for slot in I)
        seg = cache.get((v, I, jI))
        if seg:
            rep |= seg << geo.seg_offset[I]
    return rep


# -- listing / detection ---------------------------------------------------


def list_hypercliques(H: UniformHypergraph, k: int, t: Optional[int] = UNBOUNDED,
                      params: Optional[HypercliqueParams] = None
                      ) -> ListingResult:
    """List up to t k-hypercliques via the compressed-table pipeline."""
    if H.k != k:
        raise InvalidParameterError(f"hypergraph has {H.k} parts, expected {k}")
    if not 2 <= H.r < k:
        raise InvalidParameterError("need 2 <= r < k")
    if params is None:
        n = max(2, max(H.part_sizes))
        params = choose_block_size(n, k, H.r)
    tables = build_tables(H, params)
    geo = tables.geometry
    cache = compress_all(H, params)
    result = ListingResult(requested_t=t)
    for v in H.part_vertices(0):
        for j in sorted(tables.populated_j):
            rep = assemble_rep(cache, geo, v, j)
            for cand in tables.entry(j, rep):
                if t is not UNBOUNDED and len(result.witnesses) == t:
                    result.truncated = True
                    return result
                result.witnesses.append((v,) + tuple(cand))
    return result


def detect_hyperclique(H: UniformHypergraph, k: int,
                       params: Optional[HypercliqueParams] = None) -> bool:
    """Detection by listing with t = 1."""
    res = list_hypercliques(H, k, t=1, params=params)
    return len(res.witnesses) > 0 or res.truncated
