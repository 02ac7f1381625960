"""Graph and hypergraph representations with k-partition handling.

Global vertex ids are contiguous per part (part 0 first), so a single
bit-row per vertex spans all parts and one AND intersects neighbourhoods
across parts.  A view from ``KPartiteGraph.restrict`` selects vertex
subsets by per-part masks over the same rows.  All structures are treated
as immutable after construction.
"""

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
            if m:
                for p in self.part_masks:
                    if not m & ~p:
                        break
                else:
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
        n, part_of = g.n_total, g._part_of
        neighbours = defaultdict(list)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"vertex id out of range: ({u},{v})")
            if part_of[u] == part_of[v]:
                raise InvalidParameterError(f"intra-part edge ({u},{v})")
            neighbours[u].append(v)
            neighbours[v].append(u)
        fill_rows(g.adjacency, neighbours)
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
        self.add_sorted_edge(tuple(sorted(verts)))

    def add_sorted_edge(self, e: Tuple[int, ...]) -> None:
        """``add_edge`` for a tuple already in ascending order."""
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


def fill_rows(adjacency: List[int], neighbours: Dict[int, List[int]]) -> None:
    """Set ``adjacency[u]`` to the bit-row of ``neighbours[u]`` for each key.

    Each row is built once: its bits go into a bytearray as wide as its
    highest neighbour, which becomes one int.  A row then costs
    O(degree + width / 8) steps instead of one big-int copy per edge, and
    vertices without a key are not touched.  Every list is non-empty;
    repeated neighbours are harmless.
    """
    for u, vs in neighbours.items():
        row = bytearray((max(vs) >> 3) + 1)
        for v in vs:
            row[v >> 3] |= 1 << (v & 7)
        adjacency[u] = int.from_bytes(row, "little")

