"""r-uniform k-partite hyperclique listing and detection.

By default a DFS over link masks walks parts 0..k-1, narrows each next
part to the AND of the links of the prefix's (r-1)-subsets, and yields
the hits in lexicographic order for ``ListingResult.take`` to cut at t;
its part 0 is narrowed to the heads of the link keys.  Both engines run
``check_table_budget`` first; ``triangle.check_table_bytes`` checks bytes.

With ``params`` the paper's compressed-table engine runs, as the
reference: for each vertex v of part 0, the adjacency subgraph G_v (tuples
completing a hyperedge with v) is compared block-tuple by block-tuple
against precomputed lookup tables.  G_v on a block tuple is a fixed-order
L-bit compact representation; the table of a block tuple lists its
(k-1)-hypercliques with the bits each requires, found by the same DFS
over parts 1..k-1, so each comparison tests a few masks.

Each (r-1)-tuple of parts 1..k-1 is placed on its first read, once per
call, by ``BlockGeometry.tuple_bit``, the only writer of the layout: its
segment key (I, j_I) and its bit, which the geometry keeps as a dict
entry.  The segment cache groups G_v's segments, read off the hyperedges
meeting part 0, by key, with the mask of the part-0 vertices that have one
there; the probe walks only the vertices in some mask, visits a block
tuple for v only if v lies in the AND of its keys' masks, ORs the rep
together from int-keyed lookups, and yields its hits in block-major order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .bitops import bits_to_list, iter_bits, mask_from_vertices
from .core import UniformHypergraph
from .errors import InvalidParameterError
from .oracles import UNBOUNDED, ListingResult
from .triangle import check_table_bytes


@dataclass(frozen=True)
class HypercliqueParams:
    """Block side s and derived compact-representation geometry."""

    s: int
    k: int
    r: int

    def __post_init__(self):
        if self.s < 1:
            raise InvalidParameterError("s must be >= 1")
        if not 2 <= self.r < self.k:
            raise InvalidParameterError("need 2 <= r < k")

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
    return HypercliqueParams(s=s, k=k, r=r)


# -- compact representation ------------------------------------------------

SegmentKey = Tuple[Tuple[int, ...], Tuple[int, ...]]      # (I, j_I)


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


def check_table_budget(H: UniformHypergraph,
                       params: HypercliqueParams) -> None:
    """Raise unless params fit H and ``table_bytes`` fits the budget.  Both
    engines run it first: at s = 1 its block-tuple count, the product of
    the sizes of parts 1..k-1, caps the prefixes the DFS can expand, the
    levels below depth r-1 that no link prunes included."""
    if H.k != params.k or H.r != params.r:
        raise InvalidParameterError("params do not match hypergraph shape")
    check_table_bytes(table_bytes(H, params))


class BlockGeometry(dict):
    """Block decomposition of parts 1..k-1 plus segment offsets; its
    ``tuple_bit`` is the one place the compact layout is written.

    As a dict it caches placements: reading tuple ``rest`` places it by
    ``tuple_bit`` on first read, as ((I, j_I), one-bit int).

    Read from H's part layout, so nothing is built per vertex: vertex u of
    part p >= 1 sits in slot p - 1, block ``(u - part_start[p]) // s``, at
    offset ``(u - part_start[p]) % s`` inside it.  ``check_table_budget``
    runs first, before anything of size C(k-1, r-1) is built.
    """

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        check_table_budget(H, params)
        self.s = params.s
        self.part_start = H.part_start
        self.index_sets = params.index_sets
        self.seg_offset = {I: idx * params.segment_length
                           for idx, I in enumerate(self.index_sets)}

    def tuple_bit(self, verts: Sequence[int]) -> Tuple[Tuple[int, ...],
                                                       Tuple[int, ...], int]:
        """For a cross-slot (r-1)-tuple: (I, block indices, bit position).

        The bit lies in I's segment, the ``index_sets.index(I)``-th run of
        s^(r-1) bits, at the offsets of the tuple's vertices read as base-s
        digits, the lowest slot most significant.
        """
        start, s = self.part_start, self.s
        I, jI, pos = (), (), 0
        for u in sorted(verts):
            # u's part is the last one starting at or below u; slot is one less
            slot = bisect_right(start, u) - 2
            block, local = divmod(u - start[slot + 1], s)
            I, jI, pos = I + (slot,), jI + (block,), pos * s + local
        return I, jI, self.seg_offset[I] + pos

    def __missing__(self, rest: Tuple[int, ...]) -> Tuple[SegmentKey, int]:
        I, jI, bit = self.tuple_bit(rest)
        self[rest] = placed = ((I, jI), 1 << bit)
        return placed


# -- lookup tables ---------------------------------------------------------


def _link_masks(H: UniformHypergraph) -> Dict[Tuple[int, ...], int]:
    """Sorted (r-1)-tuple -> mask of the later vertices completing it, one
    update per hyperedge: e[-1] under e[:-1], the only completions the DFS
    reads.  Built from ``H.edges`` once per listing, which callers may
    reassign or mutate."""
    links: Dict[Tuple[int, ...], int] = {}
    for e in H.edges:
        key = e[:-1]
        links[key] = links.get(key, 0) | (1 << e[-1])
    return links


class HypercliqueTables:
    """Per populated block tuple j, the (k-1)-hypercliques of parts 1..k-1
    inside j with their required bits.

    ``edges`` are H's, for ``compress_all``; ``geometry`` places each
    tuple that it or the loop below reads, once.  ``entries[j]`` lists
    (required, cand) in lexicographic order of cand, found by ``_dfs`` over
    parts 1..k-1; required has the bit of every (r-1)-subset of cand.
    entry(j, rep) lists the tuples (v_2..v_k) in the block tuple that are
    (k-1)-hypercliques both in the induced subgraph G^j of the input and
    in the rep-encoded hypergraph: those whose required bits lie in rep.
    A list holds at most s^(k-1) candidates.
    """

    def __init__(self, H: UniformHypergraph, params: HypercliqueParams):
        self.geometry = geometry = BlockGeometry(H, params)
        self.edges = H.edges
        self.entries: Dict[Tuple[int, ...],
                           List[Tuple[int, Tuple[int, ...]]]] = {}
        rm1 = H.r - 1
        starts, s = H.part_start[1:], params.s
        for cand in _dfs(H.part_masks[1:], _link_masks(H), rm1):
            required = 0
            for sub in combinations(cand, rm1):
                required |= geometry[sub][1]
            j = tuple((u - lo) // s for u, lo in zip(cand, starts))
            self.entries.setdefault(j, []).append((required, cand))

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
    OR of its C(k-1, r-1) segments.  Each hyperedge e meeting part 0 gives
    v = e[0] and G_v's tuple e[1:], placed through ``tables.geometry``.
    """
    geometry = tables.geometry
    end0 = geometry.part_start[1]
    segments: Dict[SegmentKey, Dict[int, int]] = {}
    for e in tables.edges:
        v = e[0]
        # sorted, so an edge meeting part 0 starts there
        if v >= end0:
            continue
        key, bit = geometry[e[1:]]
        segs = segments.setdefault(key, {})
        segs[v] = segs.get(v, 0) | bit
    return {key: (mask_from_vertices(segs), segs)
            for key, segs in segments.items()}


# -- listing / detection ---------------------------------------------------


def list_hypercliques(H: UniformHypergraph, k: int, t: Optional[int] = UNBOUNDED,
                      params: Optional[HypercliqueParams] = None
                      ) -> ListingResult:
    """List up to t k-hypercliques: by the link-mask DFS in lexicographic
    order, or with ``params`` by the compressed-table engine at that
    geometry, in block-major order."""
    if H.k != k:
        raise InvalidParameterError(f"hypergraph has {H.k} parts, expected {k}")
    if not 2 <= H.r < k:
        raise InvalidParameterError("need 2 <= r < k")
    result = ListingResult(requested_t=t)
    if params is None:
        check_table_budget(H, choose_block_size(max(2, max(H.part_sizes)),
                                                k, H.r))
        links = _link_masks(H)
        # every hit starts a link key, so part 0 narrows to the key heads
        heads = mask_from_vertices({key[0] for key in links})
        return result.take(_dfs([H.part_masks[0] & heads, *H.part_masks[1:]],
                                links, H.r - 1))
    tables = build_tables(H, params)
    return result.take(_probe(tables, compress_all(tables), H.part_masks[0]))


def _dfs(part_masks: Sequence[int], links: Dict[Tuple[int, ...], int],
         rm1: int) -> Iterator[Tuple[int, ...]]:
    """Extend the empty prefix by one vertex of each next part of
    part_masks, in the AND of the links of the prefix's rm1-subsets, and
    yield the full tuples in lexicographic order."""
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == len(part_masks):
            yield prefix
            continue
        cands = part_masks[len(prefix)]
        for sub in combinations(prefix, rm1):
            cands &= links.get(sub, 0)
            if not cands:
                break
        # pushed highest first, so prefixes pop in lexicographic order
        stack.extend(prefix + (u,) for u in reversed(bits_to_list(cands)))


def _probe(tables: HypercliqueTables, cache: dict, part0: int
           ) -> Iterator[Tuple[int, ...]]:
    """Yield (v,) + cand for every table hit of every part-0 vertex v,
    ascending in v, then in sorted j order.  A populated j is planned with
    the ``part0`` vertices whose every segment of j is in ``cache`` (the AND
    of the keys' masks: every candidate has a required bit in every
    segment, so only they can hit); only v in some plan mask are walked."""
    plan, reach = [], 0
    for j in sorted(tables.entries):
        mask, segs = part0, []
        for I in tables.geometry.index_sets:
            group = cache.get((I, tuple(map(j.__getitem__, I))))
            if group is None:
                break
            mask &= group[0]
            segs.append(group[1])
        else:
            if mask:
                plan.append((j, mask, segs))
                reach |= mask
    for v in iter_bits(reach):
        bit = 1 << v
        for j, mask, segs in plan:
            if not mask & bit:
                continue
            rep = 0
            for seg in segs:
                rep |= seg[v]
            for cand in tables.entry(j, rep):
                yield (v,) + cand


def detect_hyperclique(H: UniformHypergraph, k: int,
                       params: Optional[HypercliqueParams] = None) -> bool:
    """Detection by listing with t = 0, which draws at most one hit."""
    return list_hypercliques(H, k, t=0, params=params).truncated
