"""Graph and hypergraph representations with k-partition handling.

Global vertex ids are contiguous per part (part 0 first), so a single
bit-row per vertex spans all parts and one AND intersects neighbourhoods
across parts.  A view from ``KPartiteGraph.restrict`` selects vertex
subsets by per-part masks over the same rows.  All structures are treated
as immutable after construction.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .bitops import bits_to_list, iter_bits, mask_range
from .errors import InvalidParameterError


class KPartiteGraph:
    """k-partite graph with bit-packed symmetric cross-part adjacency rows.

    ``adjacency[v]`` is an int whose bit ``u`` says whether (v, u) is an
    edge.  No intra-part edges are allowed.  Engines read the vertices of
    part i only through ``part_masks[i]`` or ``part_vertices(i)``, so they
    run unchanged on a view from ``restrict``.  ``n_total`` counts the
    graph's vertices; ``len(adjacency)`` is the width of the id space.
    ``part_start`` is None on a view, whose parts need not be contiguous.
    """

    __slots__ = ("part_sizes", "adjacency", "part_start", "part_masks",
                 "_part_of", "n_total")

    def __init__(self, part_sizes: Sequence[int],
                 adjacency: Optional[List[int]] = None):
        if any(s < 0 for s in part_sizes):
            raise InvalidParameterError("negative part size")
        self.part_sizes = list(part_sizes)
        self.part_start = []
        off = 0
        for s in self.part_sizes:
            self.part_start.append(off)
            off += s
        n = off
        self.n_total = n
        self.part_masks = [
            mask_range(self.part_start[i], self.part_start[i] + s)
            for i, s in enumerate(self.part_sizes)
        ]
        self._part_of = []
        for i, s in enumerate(self.part_sizes):
            self._part_of.extend([i] * s)
        if adjacency is None:
            adjacency = [0] * n
        if len(adjacency) != n:
            raise InvalidParameterError(
                f"adjacency has {len(adjacency)} rows, expected {n}")
        self.adjacency = adjacency

    def restrict(self, masks: Sequence[int]) -> "KPartiteGraph":
        """View of the subgraph induced by per-part vertex masks.

        Part i of the view is ``masks[i]``.  The view shares ``adjacency``
        and copies no row, so its vertices keep this graph's ids.  Each
        mask must lie inside one part of this graph, and the masks must be
        pairwise disjoint.
        """
        seen = 0
        for m in masks:
            if m & seen:
                raise InvalidParameterError("vertex masks overlap")
            if m and not any((m & ~p) == 0 for p in self.part_masks):
                raise InvalidParameterError(
                    "vertex mask does not lie inside one part")
            seen |= m
        view = object.__new__(KPartiteGraph)
        view.adjacency = self.adjacency
        view.part_masks = list(masks)
        view.part_sizes = [m.bit_count() for m in view.part_masks]
        view.n_total = sum(view.part_sizes)
        view.part_start = None
        view._part_of = None
        return view

    # -- basic accessors ---------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    def part_of(self, v: int) -> int:
        if self._part_of is not None:
            return self._part_of[v]
        for i, mask in enumerate(self.part_masks):
            if (mask >> v) & 1:
                return i
        raise InvalidParameterError(f"vertex {v} is not in the graph")

    def part_vertices(self, i: int) -> Sequence[int]:
        if self.part_start is None:
            return bits_to_list(self.part_masks[i])
        start = self.part_start[i]
        return range(start, start + self.part_sizes[i])

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adjacency[u] >> v) & 1 == 1

    def _vertex_mask(self) -> int:
        keep = 0
        for mask in self.part_masks:
            keep |= mask
        return keep

    def edges(self) -> Iterable[Tuple[int, int]]:
        """All edges as (u, v) with u < v."""
        keep = self._vertex_mask()
        for u in iter_bits(keep):
            for v in iter_bits((self.adjacency[u] & keep) >> (u + 1)):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        keep = self._vertex_mask()
        return sum((self.adjacency[u] & keep).bit_count()
                   for u in iter_bits(keep)) // 2

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, part_sizes: Sequence[int],
                   edges: Iterable[Tuple[int, int]]) -> "KPartiteGraph":
        g = cls(part_sizes)
        adj = g.adjacency
        for u, v in edges:
            if not (0 <= u < g.n_total and 0 <= v < g.n_total):
                raise InvalidParameterError(f"vertex id out of range: ({u},{v})")
            if g._part_of[u] == g._part_of[v]:
                raise InvalidParameterError(f"intra-part edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return g

    def validate(self) -> None:
        """Full-scan check of symmetry, no-intra-part and id-range invariants."""
        full = mask_range(0, len(self.adjacency))
        for mask in self.part_masks:
            for u in iter_bits(mask):
                row = self.adjacency[u]
                if row & ~full:
                    raise InvalidParameterError(f"row {u} references invalid ids")
                if row & mask:
                    raise InvalidParameterError(f"intra-part edge at vertex {u}")
                for v in iter_bits(row):
                    if not (self.adjacency[v] >> u) & 1:
                        raise InvalidParameterError(f"asymmetric edge ({u},{v})")


@dataclass(frozen=True)
class NeighborSet:
    """Neighbours of one vertex inside a single part, as a global-id bitmask."""

    part: int
    bits: int

    @property
    def degree(self) -> int:
        return self.bits.bit_count()

    def vertices(self) -> List[int]:
        return bits_to_list(self.bits)


class UniformHypergraph:
    """k-partite r-uniform hypergraph keyed by sorted cross-part tuples."""

    __slots__ = ("r", "part_sizes", "edges", "part_start", "_part_of")

    def __init__(self, r: int, part_sizes: Sequence[int],
                 edges: Optional[Iterable[Tuple[int, ...]]] = None):
        if r < 1:
            raise InvalidParameterError("uniformity r must be >= 1")
        self.r = r
        self.part_sizes = list(part_sizes)
        self.part_start = []
        off = 0
        for s in self.part_sizes:
            self.part_start.append(off)
            off += s
        self._part_of = []
        for i, s in enumerate(self.part_sizes):
            self._part_of.extend([i] * s)
        self.edges: Set[Tuple[int, ...]] = set()
        if edges is not None:
            for e in edges:
                self.add_edge(e)

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def n_total(self) -> int:
        return len(self._part_of)

    def part_of(self, v: int) -> int:
        return self._part_of[v]

    def part_vertices(self, i: int) -> range:
        start = self.part_start[i]
        return range(start, start + self.part_sizes[i])

    def add_edge(self, verts: Iterable[int]) -> None:
        e = tuple(sorted(verts))
        if len(e) != self.r or len(set(e)) != self.r:
            raise InvalidParameterError(f"hyperedge {e} is not {self.r} distinct vertices")
        parts = set()
        for v in e:
            if not 0 <= v < self.n_total:
                raise InvalidParameterError(f"vertex id out of range: {v}")
            parts.add(self._part_of[v])
        if len(parts) != self.r:
            raise InvalidParameterError(f"hyperedge {e} has vertices in a shared part")
        self.edges.add(e)

    def has_edge(self, verts: Iterable[int]) -> bool:
        return tuple(sorted(verts)) in self.edges

    def is_hyperclique(self, verts: Sequence[int]) -> bool:
        """True iff every r-subset of verts spanning r distinct parts is present.

        For r = 1 this degenerates to per-vertex membership.
        """
        for sub in combinations(sorted(verts), self.r):
            if len({self._part_of[v] for v in sub}) == self.r:
                if tuple(sub) not in self.edges:
                    return False
        return True


# -- operations -----------------------------------------------------------


def kpartify(adjacency: Sequence[int], k: int) -> KPartiteGraph:
    """Blow up a general symmetric graph into k vertex-set copies.

    The output has k parts of size n; (u_i, v_j) is an edge iff (u, v) is
    an input edge and i != j.  The output has a cross-part k-clique iff the
    input has a k-clique.
    """
    if k < 2:
        raise InvalidParameterError("k must be >= 2")
    n = len(adjacency)
    full = mask_range(0, n)
    for u, row in enumerate(adjacency):
        if row & ~full:
            raise InvalidParameterError(f"row {u} references invalid ids")
        if (row >> u) & 1:
            raise InvalidParameterError(f"self-loop at vertex {u}")
    out = KPartiteGraph([n] * k)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            shift = j * n
            for u in range(n):
                out.adjacency[i * n + u] |= adjacency[u] << shift
    return out


def neighbors_in_part(G: KPartiteGraph, v: int, i: int) -> NeighborSet:
    """N_i(v): the neighbours of v inside part i, as a bitmask."""
    if not 0 <= v < len(G.adjacency):
        raise InvalidParameterError(f"vertex id out of range: {v}")
    if not 0 <= i < G.k:
        raise InvalidParameterError(f"part index out of range: {i}")
    if G.part_of(v) == i:
        raise InvalidParameterError("intra-part neighbourhoods are undefined")
    return NeighborSet(part=i, bits=G.adjacency[v] & G.part_masks[i])


def degree_product(G: KPartiteGraph, v: int) -> int:
    """Product of v's degrees into parts 1..k-1; v must lie in part 0."""
    if G.part_of(v) != 0:
        raise InvalidParameterError("degree_product expects a part-0 vertex")
    prod = 1
    row = G.adjacency[v]
    for i in range(1, G.k):
        prod *= (row & G.part_masks[i]).bit_count()
        if prod == 0:
            return 0
    return prod
