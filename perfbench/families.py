"""Instance families the benchmark needs but ``cliquelab.generate`` lacks.

Both families start from the program's own G(n, p) output and only mask
rows (plus, for a planted K4, add the plant's edges), so the cost of
building them moves with ``cliquelab.generate``.
"""

from itertools import combinations
from typing import Optional, Tuple

from cliquelab.bitops import mask_range
from cliquelab.core import KPartiteGraph
from cliquelab.generate import GenSpec, generate

# Share of each part that a light hub vertex keeps edges into.
LIGHT_FRAC = 0.25


def _cut(G: KPartiteGraph, xs: int, ys: int) -> None:
    """Remove every edge between the vertex masks xs and ys, in place."""
    adj = G.adjacency
    for mask, other in ((xs, ys), (ys, xs)):
        while mask:
            low = mask & -mask
            adj[low.bit_length() - 1] &= ~other
            mask ^= low


def _halves(G: KPartiteGraph, part: int) -> Tuple[int, int]:
    start, size = G.part_start[part], G.part_sizes[part]
    mid = start + size // 2
    return mask_range(start, mid), mask_range(mid, start + size)


def mask_triangle_free(G: KPartiteGraph, parts: Tuple[int, int, int]) -> None:
    """Make the three given parts of G triangle-free, in place.

    With parts (A, B, C) and each of B and C split into a lower and an
    upper half: A keeps its edges to B and to the lower half of C; B-C
    edges survive only from the lower half of B to the upper half of C.  A
    triangle would need its C vertex in both halves, so none exists, yet
    A-B, A-C and B-C all stay dense.
    """
    a, b, c = parts
    upper_b = _halves(G, b)[1]
    lower_c, upper_c = _halves(G, c)
    _cut(G, G.part_masks[a], upper_c)
    _cut(G, G.part_masks[b], lower_c)
    _cut(G, upper_b, upper_c)


def triangle_free(n: int, p: float, seed: int) -> KPartiteGraph:
    """Dense triangle-free 3-partite graph with n vertices per part."""
    G = generate(GenSpec("gnp-kpartite", n, 3, p, seed)).graph
    mask_triangle_free(G, (0, 1, 2))
    return G


def hub_k4(n: int, p: float, seed: int, planted: bool
           ) -> Tuple[KPartiteGraph, Optional[Tuple[int, ...]]]:
    """4-partite graph: a hub part 0 joined to a triangle-free family.

    Parts 1-3 are masked triangle-free, so the graph has no K4 unless one
    is planted.  Hub roles are fixed so that the k-clique recursion takes
    the same branches on every instance:

    * hub vertex 0 keeps all its G(n, p) edges: the heaviest vertex;
    * hub vertex 1 keeps, in part 1, only edges outside vertex 0's
      neighbourhood: heavy again exactly in the splits that keep that
      outside;
    * every other hub vertex keeps only its edges into the first
      ``LIGHT_FRAC`` share of each part: light everywhere.

    With ``planted`` one K4 is added after masking on the last vertex of
    every part, so that at each halving level ``find_witness`` tries every
    other half-combination first and its work does not hinge on where a
    random plant falls.
    """
    G = generate(GenSpec("gnp-kpartite", n, 4, p, seed)).graph
    mask_triangle_free(G, (1, 2, 3))
    hub = G.part_start[0]
    _cut(G, 1 << (hub + 1), G.adjacency[hub] & G.part_masks[1])
    width = max(1, int(n * LIGHT_FRAC))
    far = 0
    for i in range(1, 4):
        start = G.part_start[i]
        far |= mask_range(start + width, start + G.part_sizes[i])
    _cut(G, mask_range(hub + 2, hub + n), far)
    plant = None
    if planted:
        plant = tuple(G.part_start[i] + n - 1 for i in range(4))
        for u, v in combinations(plant, 2):
            G.adjacency[u] |= 1 << v
            G.adjacency[v] |= 1 << u
    return G, plant
