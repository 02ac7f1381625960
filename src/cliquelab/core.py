"""Graph and hypergraph representations with k-partition handling.

Global vertex ids are contiguous per part (part 0 first), so a single
bit-row per vertex spans all parts and one AND intersects neighbourhoods
across parts.  ``PartLayout`` holds the parts of both structures, built
once from the part sizes: no per-vertex table, so a declared vertex costs
one mask bit until it gets an edge.  A view from ``KPartiteGraph.restrict``
keeps one vertex mask's share of each part, over the same rows.  All
structures are treated as immutable after construction.
"""

from bisect import bisect_right
from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .bitops import bits_to_list, iter_bits, mask_range
from .errors import InvalidParameterError


class PartLayout:
    """The k parts of a vertex set: ``part_sizes``, ``part_start``,
    ``part_masks`` and ``n_total``.

    Part i holds ids ``part_start[i]`` up to ``part_start[i] +
    part_sizes[i]``, and ``part_masks[i]`` has their bits.  On a view
    ``part_start`` is None and part i is ``part_masks[i]``.
    """

    __slots__ = ("part_sizes", "part_start", "part_masks", "n_total")

    def __init__(self, part_sizes: Sequence[int]):
        if any(s < 0 for s in part_sizes):
            raise InvalidParameterError("negative part size")
        self.part_sizes = list(part_sizes)
        self.part_start = []
        self.part_masks = []
        off = 0
        for s in self.part_sizes:
            self.part_start.append(off)
            self.part_masks.append(mask_range(off, off + s))
            off += s
        self.n_total = off

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    def part_of(self, v: int) -> int:
        """The part holding vertex v: a bisect on ``part_start``, or a
        mask scan on a view."""
        if self.part_start is not None:
            if 0 <= v < self.n_total:
                # the last part starting at or below v; it is not empty
                return bisect_right(self.part_start, v) - 1
        elif v >= 0:
            for i, mask in enumerate(self.part_masks):
                if (mask >> v) & 1:
                    return i
        raise InvalidParameterError(f"vertex {v} is not in the graph")

    def part_vertices(self, i: int) -> Sequence[int]:
        if self.part_start is None:
            return bits_to_list(self.part_masks[i])
        start = self.part_start[i]
        return range(start, start + self.part_sizes[i])


class KPartiteGraph(PartLayout):
    """k-partite graph with bit-packed symmetric cross-part adjacency rows.

    ``adjacency[v]`` is an int whose bit ``u`` says whether (v, u) is an
    edge.  No intra-part edges are allowed.  Engines read the vertices of
    part i only through ``part_masks[i]`` or ``part_vertices(i)``, so they
    run unchanged on a view from ``restrict``.  ``n_total`` counts the
    graph's vertices; ``len(adjacency)`` is the width of the id space.
    The parts come from ``PartLayout``; a graph adds only ``adjacency``.
    """

    __slots__ = ("adjacency",)

    def __init__(self, part_sizes: Sequence[int],
                 adjacency: Optional[List[int]] = None):
        super().__init__(part_sizes)
        n = self.n_total
        if adjacency is None:
            adjacency = [0] * n
        if len(adjacency) != n:
            raise InvalidParameterError(
                f"adjacency has {len(adjacency)} rows, expected {n}")
        self.adjacency = adjacency

    def restrict(self, keep: int, first: int = 0) -> "KPartiteGraph":
        """View of the subgraph induced on the ``keep`` vertices of parts
        ``first`` onward.

        Part i of the view is ``keep & part_masks[first + i]``, so its
        parts are disjoint and inside this graph's parts whatever ``keep``
        holds: bits outside them are ignored.  ``first`` is a part index,
        ``0 <= first < k``.  The view shares ``adjacency`` and copies no
        row, so its vertices keep this graph's ids.
        """
        if not 0 <= first < len(self.part_masks):
            raise InvalidParameterError(
                f"first part {first} is not in 0..{self.k - 1}")
        return self._view([keep & m for m in self.part_masks[first:]])

    def _view(self, part_masks: List[int]) -> "KPartiteGraph":
        """View whose part i is ``part_masks[i]``, taken as it is: each
        mask lies in one part of this graph, later than the one before."""
        view = object.__new__(KPartiteGraph)
        view.adjacency = self.adjacency
        view.part_masks = part_masks
        view.part_sizes = [m.bit_count() for m in part_masks]
        view.n_total = sum(view.part_sizes)
        view.part_start = None
        return view

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adjacency[u] >> v) & 1 == 1

    def is_cross_clique(self, verts: Sequence[int]) -> bool:
        """True iff verts has one vertex in each part, in part order, and
        every pair is an edge; False for any id not in the graph."""
        return (len(verts) == self.k
                and all(v >= 0 and (m >> v) & 1
                        for m, v in zip(self.part_masks, verts))
                and all(self.has_edge(a, b)
                        for a, b in combinations(verts, 2)))

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

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, part_sizes: Sequence[int],
                   edges: Iterable[Tuple[int, int]]) -> "KPartiteGraph":
        g = cls(part_sizes)
        n, part_of = g.n_total, g.part_of
        neighbours = defaultdict(list)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"vertex id out of range: ({u},{v})")
            if part_of(u) == part_of(v):
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


class UniformHypergraph(PartLayout):
    """k-partite r-uniform hypergraph keyed by sorted cross-part tuples."""

    __slots__ = ("r", "edges")

    def __init__(self, r: int, part_sizes: Sequence[int]):
        if r < 1:
            raise InvalidParameterError("uniformity r must be >= 1")
        super().__init__(part_sizes)
        self.r = r
        self.edges: Set[Tuple[int, ...]] = set()

    def add_edge(self, verts: Iterable[int]) -> None:
        self.add_sorted_edge(tuple(sorted(verts)))

    def add_sorted_edge(self, e: Tuple[int, ...]) -> None:
        """``add_edge`` for a tuple already in ascending order."""
        if len(e) != self.r or len(set(e)) != self.r:
            raise InvalidParameterError(f"hyperedge {e} is not {self.r} distinct vertices")
        n = self.n_total
        if e[0] < 0 or e[-1] >= n:
            bad = next(v for v in e if not 0 <= v < n)
            raise InvalidParameterError(f"vertex id out of range: {bad}")
        # ascending ids, so each vertex must lie past the end of the part
        # of the one before it
        start, sizes = self.part_start, self.part_sizes
        end = 0
        for v in e:
            if v < end:
                raise InvalidParameterError(f"hyperedge {e} has vertices in a shared part")
            i = bisect_right(start, v) - 1
            end = start[i] + sizes[i]
        self.edges.add(e)

    def has_edge(self, verts: Iterable[int]) -> bool:
        return tuple(sorted(verts)) in self.edges

    def is_hyperclique(self, verts: Sequence[int]) -> bool:
        """True iff every r-subset of verts spanning r distinct parts is present.

        For r = 1 this degenerates to per-vertex membership.
        """
        for sub in combinations(sorted(verts), self.r):
            if len(set(map(self.part_of, sub))) == self.r:
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

