"""r-uniform k-partite hyperclique listing and detection.

Strategy: for each vertex v of part 0, the adjacency subgraph G_v (tuples
completing a hyperedge with v) is compared block-tuple by block-tuple
against precomputed lookup tables.  G_v on a block tuple is a fixed-order
L-bit compact representation; the table of a block tuple lists its
(k-1)-hypercliques with the bits each requires, found by a DFS over link
masks, so each comparison tests a few masks.

Each (r-1)-tuple of parts 1..k-1 is placed once per call: its segment key
(I, j_I) and its bit.  The segment cache groups G_v's segments by key, with
the mask of the part-0 vertices that have one there; the probe visits a
block tuple for v only if v lies in the AND of its keys' masks, and then
ORs the rep together from int-keyed lookups.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .bitops import bits_to_list, iter_bits
from .core import UniformHypergraph
from .errors import InvalidParameterError, ResourceLimitError
from .oracles import UNBOUNDED, ListingResult
from .triangle import table_byte_budget


@dataclass(frozen=True)
class HypercliqueParams:
    """Block side s and derived compact-representation geometry."""

    s: int
    k: int
    r: int

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


def formula_block_side(n: int, k: int, r: int) -> float:
    """Real-valued s = (log2 n / (2 C(k-1, r-1)))^(1/(r-1))."""
    return (math.log2(n) / (2 * math.comb(k - 1, r - 1))) ** (1.0 / (r - 1))


def choose_block_size(n: int, k: int, r: int) -> HypercliqueParams:
    """Floor the formula block side, then shrink until L <= ceil(log2 n / 2).

    At desk scale the formula often lands below 1; s is floored at 1, in
    which case L = C(k-1, r-1) is the smallest representation possible.
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 2 <= r < k:
        raise InvalidParameterError("need 2 <= r < k")
    target = math.ceil(math.log2(n) / 2)
    s = max(1, int(formula_block_side(n, k, r)))
    while s > 1 and math.comb(k - 1, r - 1) * s ** (r - 1) > target:
        s -= 1
    params = HypercliqueParams(s=s, k=k, r=r)
    params.validate()
    return params


# -- compact representation ------------------------------------------------


def _blocks_of_part(H: UniformHypergraph, part: int, s: int) -> List[range]:
    start = H.part_start[part]
    size = H.part_sizes[part]
    out = [range(start + lo, start + min(lo + s, size))
           for lo in range(0, size, s)]
    return out or [range(start, start)]


def table_bytes(H: UniformHypergraph, params: HypercliqueParams) -> int:
    """Estimated bytes (8 per word) of the geometry, tables and probe plan,
    from the sizes alone: C(k-1, r-1) index sets and segment offsets, and
    per block tuple C(k-1, r-1) probe keys plus at most s^(k-1) entries of
    ceil(L/64) required-bit words and k-1 candidate vertices."""
    n_sets = math.comb(params.k - 1, params.r - 1)
    block_tuples = math.prod(-(-H.part_sizes[p] // params.s) or 1
                             for p in range(1, H.k))
    entry_words = -(-params.L // 64) + H.k - 1
    return 8 * (2 * n_sets + block_tuples
                * (n_sets + params.s ** (H.k - 1) * entry_words))


class BlockGeometry:
    """Block decomposition of parts 1..k-1 plus segment offsets.

    ``vertex_slot[u]``, ``vertex_block[u]`` and ``vertex_local[u]`` are the
    slot (part - 1), the block index and the position inside the block of
    vertex u; part-0 vertices have slot -1.  Raises ResourceLimitError
    when ``table_bytes`` exceeds the table byte budget, before anything of
    size C(k-1, r-1) is built.
    """

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        params.validate()
        if H.k != params.k or H.r != params.r:
            raise InvalidParameterError("params do not match hypergraph shape")
        need, budget = table_bytes(H, params), table_byte_budget()
        if need > budget:
            raise ResourceLimitError(
                f"tables need ~{need} bytes, budget is {budget}",
                required=need, allowed=budget)
        self.params = params
        self.s = params.s
        self.blocks = [_blocks_of_part(H, p, params.s)
                       for p in range(1, H.k)]          # slot -> block list
        self.index_sets = params.index_sets
        self.seg_offset = {I: idx * params.segment_length
                           for idx, I in enumerate(self.index_sets)}
        self.vertex_slot, self.vertex_block, self.vertex_local = [], [], []
        for p, size in enumerate(H.part_sizes):
            self.vertex_slot += [p - 1] * size
            self.vertex_block += [i // self.s for i in range(size)]
            self.vertex_local += [i % self.s for i in range(size)]

    def tuple_bit(self, verts: Sequence[int]) -> Tuple[Tuple[int, ...],
                                                       Tuple[int, ...], int]:
        """For a cross-slot (r-1)-tuple: (I, block indices, bit position)."""
        us = sorted(verts)
        I = tuple(map(self.vertex_slot.__getitem__, us))
        pos = 0
        for u in us:
            pos = pos * self.s + self.vertex_local[u]
        return (I, tuple(map(self.vertex_block.__getitem__, us)),
                self.seg_offset[I] + pos)


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

SegmentKey = Tuple[Tuple[int, ...], Tuple[int, ...]]      # (I, j_I)


def _link_masks(H: UniformHypergraph) -> Dict[Tuple[int, ...], int]:
    """Sorted (r-1)-tuple -> mask of the vertices completing it to a
    hyperedge.  Built from ``H.edges`` on every call, which callers may
    reassign or mutate."""
    links: Dict[Tuple[int, ...], int] = {}
    rm1 = H.r - 1
    for e in H.edges:
        # the i-th (r-1)-subset in lexicographic order omits e[-1 - i]
        for key, w in zip(combinations(e, rm1), reversed(e)):
            links[key] = links.get(key, 0) | (1 << w)
    return links


class HypercliqueTables:
    """Per populated block tuple j, the (k-1)-hypercliques of parts 1..k-1
    inside j with their required bits.

    ``links`` are the link masks of H, ``part_masks`` are H's, and
    ``placements`` maps every link key outside part 0 to its
    segment key (I, j_I) and its representation bit (as a one-bit int);
    each key is placed once, and the DFS below and ``compress_all`` read
    it.  ``entries[j]`` lists (required, cand) in lexicographic order of
    cand, found by a DFS over link masks: a vertex of the next slot must
    complete every (r-1)-subset of the prefix, so it lies in all their
    links.  required has the bit of every (r-1)-subset of cand.
    entry(j, rep) lists the tuples (v_2..v_k) in the block tuple that are
    (k-1)-hypercliques both in the induced subgraph G^j of the input and
    in the rep-encoded hypergraph: those whose required bits lie in rep.
    A list holds at most s^(k-1) candidates.
    """

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        self.geometry = geo = BlockGeometry(H, params)
        self.links = links = _link_masks(H)
        self.part_masks = part_masks = H.part_masks
        self.placements: Dict[Tuple[int, ...], Tuple[SegmentKey, int]]
        self.placements = placements = {}
        for rest in links:
            # sorted, so a key meeting part 0 starts there
            if geo.vertex_slot[rest[0]] >= 0:
                I, jI, bit = geo.tuple_bit(rest)
                placements[rest] = ((I, jI), 1 << bit)
        self.entries: Dict[Tuple[int, ...],
                           List[Tuple[int, Tuple[int, ...]]]] = {}
        rm1 = H.r - 1
        block = geo.vertex_block
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == H.k - 1:
                required = 0
                for sub in combinations(prefix, rm1):
                    required |= placements[sub][1]
                self.entries.setdefault(tuple(map(block.__getitem__, prefix)),
                                        []).append((required, prefix))
                continue
            cands = part_masks[len(prefix) + 1]
            for sub in combinations(prefix, rm1):
                cands &= links.get(sub, 0)
            # pushed highest first, so prefixes pop in lexicographic order
            stack.extend(prefix + (u,) for u in reversed(bits_to_list(cands)))

    def entry(self, j: Tuple[int, ...], rep: int) -> List[Tuple[int, ...]]:
        return [cand for required, cand in self.entries.get(j, ())
                if not required & ~rep]


def build_tables(H: UniformHypergraph, params: HypercliqueParams
                 ) -> HypercliqueTables:
    return HypercliqueTables(H, params)


def compress_all(tables: HypercliqueTables
                 ) -> Dict[SegmentKey, Tuple[int, Dict[int, int]]]:
    """Segment cache grouped by segment key: (I, j_I) -> (mask, {v: bits}).

    bits is the segment of G_v^j for index set I, at its place in the
    representation, for every part-0 vertex v with a non-empty one; mask
    has the bit of each such v.  The representation of G_v^j is then the
    OR of its C(k-1, r-1) segments.  Read from the link masks, part-0
    mask and placements of ``tables``, so a listing places each tuple
    once.
    """
    links = tables.links
    part0 = tables.part_masks[0]
    segments: Dict[SegmentKey, Dict[int, int]] = {}
    masks: Dict[SegmentKey, int] = {}
    for rest, (key, bit) in tables.placements.items():
        # edges are cross-part, so only part-0-free keys have part-0
        # completions
        completions = links[rest] & part0
        if not completions:
            continue
        masks[key] = masks.get(key, 0) | completions
        segs = segments.setdefault(key, {})
        for v in iter_bits(completions):
            segs[v] = segs.get(v, 0) | bit
    return {key: (masks[key], segs) for key, segs in segments.items()}


# -- listing / detection ---------------------------------------------------


def list_hypercliques(H: UniformHypergraph, k: int, t: Optional[int] = UNBOUNDED,
                      params: Optional[HypercliqueParams] = None
                      ) -> ListingResult:
    """List up to t k-hypercliques via the compressed-table pipeline."""
    if H.k != k:
        raise InvalidParameterError(f"hypergraph has {H.k} parts, expected {k}")
    if not 2 <= H.r < k:
        raise InvalidParameterError("need 2 <= r < k")
    result = ListingResult(requested_t=t)
    if params is None:
        n = max(2, max(H.part_sizes))
        params = choose_block_size(n, k, H.r)
    tables = build_tables(H, params)
    cache = compress_all(tables)
    # One record per populated j, in sorted order: the part-0 vertices
    # with every segment of j non-empty (the AND of the keys' masks; every
    # candidate has a required bit in every segment, so only they can
    # hit) and the segment dicts.
    plan = []
    for j in sorted(tables.entries):
        mask = H.part_masks[0]
        segs = []
        for I in tables.geometry.index_sets:
            group = cache.get((I, tuple(map(j.__getitem__, I))))
            if group is None:
                break
            mask &= group[0]
            segs.append(group[1])
        else:
            if mask:
                plan.append((j, mask, segs))
    for v in H.part_vertices(0):
        bit = 1 << v
        for j, mask, segs in plan:
            if not mask & bit:
                continue
            rep = 0
            for seg in segs:
                rep |= seg[v]
            for cand in tables.entry(j, rep):
                if t is not UNBOUNDED and len(result.witnesses) == t:
                    result.truncated = True
                    return result
                result.witnesses.append((v,) + cand)
    return result


def detect_hyperclique(H: UniformHypergraph, k: int,
                       params: Optional[HypercliqueParams] = None) -> bool:
    """Detection by listing with t = 1."""
    return bool(list_hypercliques(H, k, t=1, params=params).witnesses)
