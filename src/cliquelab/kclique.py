"""Divide-and-conquer reduction from k-clique to triangle detection.

The recursion: at depth cap D hand the graph to the leaf; while a heavy
vertex exists (cross-part degree product >= alpha * product of part
sizes), give its neighbourhood to the leaf at k-1 and recurse on the
2^(k-1) - 1 split combinations that exclude the all-neighbour one;
otherwise reduce to (k-1)-clique on every part-0 vertex's neighbourhood.
The leaf applies that per-vertex reduction down to k = 3, where it calls
the pluggable triangle detector, so every path ends in the detector.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .bitops import iter_bits, mask_from_vertices
from .core import KPartiteGraph
from .errors import InternalInconsistencyError, InvalidParameterError
from .triangle import detect_naive

ALPHA_MAX = 0.5

TriangleDetector = Callable[[KPartiteGraph], Optional[Tuple[int, int, int]]]


@dataclass
class RecursionParams:
    depth_cap: int          # D
    alpha: float            # heavy-vertex threshold, clamped to (0, 1)
    depth: int = 0          # current depth d

    def __post_init__(self):
        if self.depth_cap < 0 or not 0 < self.alpha < 1:
            raise InvalidParameterError("need D >= 0 and 0 < alpha < 1")
        if not 0 <= self.depth <= self.depth_cap:
            raise InvalidParameterError("need 0 <= d <= D")

    def child(self) -> "RecursionParams":
        return RecursionParams(self.depth_cap, self.alpha, self.depth + 1)


@dataclass
class TraceNode:
    """Diagnostic record of one recursion node; vertex ids are global."""

    depth: int
    part_sizes: List[int]
    branch: str                       # depth-cap | heavy-vertex | sparse-base
    heavy_vertex: Optional[int] = None
    parent_product: Optional[int] = None
    child_product_sum: Optional[int] = None


def choose_params(n: int, k: int) -> RecursionParams:
    """D = floor(log2 n / 4k), so D = 0 below 2^(4k) vertices; alpha = 1/2.

    The paper's alpha is log2((k - a) log2 n) / D for a base detector that
    costs n^3 (log n)^a.  At a = 0 that is at least 1/2 for every n below
    2^228 and every k >= 3, so the clamp ALPHA_MAX, which keeps the
    heavy-vertex branch reachable instead of sending every call to the
    sparse base, always wins; a > 0 could lower it only once D >= 2.
    """
    if n < 2 or k < 3:
        raise InvalidParameterError("need n >= 2 and k >= 3")
    return RecursionParams(depth_cap=max(0, int(math.log2(n) / (4 * k))),
                           alpha=ALPHA_MAX)


def find_heavy_vertex(G: KPartiteGraph, alpha: float) -> Optional[int]:
    """Part-0 vertex whose degree product reaches alpha * prod |V_i|.

    Among qualifiers returns the maximum-product one (ties: lowest id).
    """
    if not 0 < alpha < 1:
        raise InvalidParameterError("alpha must be in (0, 1)")
    cap = 1
    for s in G.part_sizes[1:]:
        cap *= s
    if cap == 0:
        return None
    rest = G.part_masks[1:]
    best_v, best_prod = None, -1
    for v in iter_bits(G.part_masks[0]):
        row = G.adjacency[v]
        prod = 1
        for m in rest:
            prod *= (row & m).bit_count()
            if prod == 0:
                break
        if prod * 1.0 >= alpha * cap and prod > best_prod:
            best_v, best_prod = v, prod
    return best_v


def _leaf(G: KPartiteGraph, k: int, triangle_detector: TriangleDetector
          ) -> bool:
    """Per-vertex reduction from k-clique down to the triangle detector."""
    if k == 3:
        return triangle_detector(G) is not None
    return kclique_via_k1(
        G, k, lambda sub: _leaf(sub, k - 1, triangle_detector))


def kclique_via_k1(G: KPartiteGraph, k: int,
                   k1_solver: Callable[[KPartiteGraph], bool]) -> bool:
    """Reduce k-clique to (k-1)-clique on per-vertex neighbourhoods.

    A clique through v lies in v's neighbourhood, so for each v in part 0
    whose neighbourhood meets every other part, the (k-1)-solver runs once
    on the (k-1)-part view of that whole neighbourhood.
    """
    if k < 4:
        raise InvalidParameterError("kclique_via_k1 requires k >= 4")
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    masks = G.part_masks[1:]
    for v in iter_bits(G.part_masks[0]):
        row = G.adjacency[v]
        nbrs = [row & m for m in masks]
        if all(nbrs) and k1_solver(G.restrict(nbrs)):
            return True
    return False


def detect_kclique(G: KPartiteGraph, k: int,
                   triangle_detector: TriangleDetector = detect_naive,
                   params: Optional[RecursionParams] = None,
                   trace: Optional[List[TraceNode]] = None) -> bool:
    """KCliqueRec: true iff G contains a cross-part k-clique."""
    if k < 3:
        raise InvalidParameterError("k must be >= 3")
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    if k == 3:
        return triangle_detector(G) is not None
    if any(s == 0 for s in G.part_sizes):
        return False
    if params is None:
        params = choose_params(max(2, G.n_total), k)

    # Step 1: depth cap reached -> the per-vertex leaf.
    if params.depth >= params.depth_cap:
        if trace is not None:
            trace.append(TraceNode(depth=params.depth,
                                   part_sizes=list(G.part_sizes),
                                   branch="depth-cap"))
        return _leaf(G, k, triangle_detector)

    # Step 2: heavy vertex.
    v = find_heavy_vertex(G, params.alpha)
    if v is not None:
        # 2a: leaf (k-1)-clique test inside v's neighbourhood.
        nbr = [G.adjacency[v] & G.part_masks[i] for i in range(1, k)]
        if _leaf(G.restrict(nbr), k - 1, triangle_detector):
            if trace is not None:
                trace.append(TraceNode(depth=params.depth,
                                       part_sizes=list(G.part_sizes),
                                       branch="heavy-vertex", heavy_vertex=v))
            return True
        # 2b: recurse on the 2^(k-1) - 1 combinations, omitting all-ones.
        splits = [(G.part_masks[i] & ~nbr[i - 1], nbr[i - 1])
                  for i in range(1, k)]
        parent_product = math.prod(G.part_sizes)
        child_sum = 0
        answer = False
        for combo in range((1 << (k - 1)) - 1):
            chosen = [G.part_masks[0]] + [splits[i][(combo >> i) & 1]
                                          for i in range(k - 1)]
            prod = math.prod(m.bit_count() for m in chosen)
            child_sum += prod
            if prod == 0:
                continue
            if detect_kclique(G.restrict(chosen), k, triangle_detector,
                              params.child(), trace):
                answer = True
                break
        if trace is not None:
            trace.append(TraceNode(
                depth=params.depth, part_sizes=list(G.part_sizes),
                branch="heavy-vertex", heavy_vertex=v,
                parent_product=parent_product,
                child_product_sum=child_sum))
        return answer

    # Step 3: all part-0 degrees are light -> trivial reduction to (k-1).
    if trace is not None:
        trace.append(TraceNode(depth=params.depth,
                               part_sizes=list(G.part_sizes),
                               branch="sparse-base"))
    return kclique_via_k1(
        G, k, lambda child: detect_kclique(child, k - 1, triangle_detector))


def find_witness(detector: Callable[[KPartiteGraph, int], bool],
                 G: KPartiteGraph, k: int) -> Optional[Tuple[int, ...]]:
    """Turn a k-clique decision procedure into a finding procedure.

    Recursive halving: split every part into two halves, find a combination
    of halves on which the detector still succeeds, recurse.  The returned
    tuple is edge-verified before being reported.
    """
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    if not detector(G, k):
        return None

    def recurse(cur: KPartiteGraph) -> Tuple[int, ...]:
        if all(s == 1 for s in cur.part_sizes):
            return tuple(m.bit_length() - 1 for m in cur.part_masks)
        halves = []
        for i in range(k):
            verts = cur.part_vertices(i)
            if len(verts) == 1:
                halves.append((cur.part_masks[i], cur.part_masks[i]))
            else:
                mid = len(verts) // 2
                halves.append((mask_from_vertices(verts[:mid]),
                               mask_from_vertices(verts[mid:])))
        for combo in range(1 << k):
            chosen = [halves[i][(combo >> i) & 1] for i in range(k)]
            if not all(chosen):
                continue
            sub = cur.restrict(chosen)
            if detector(sub, k):
                return recurse(sub)
        raise InternalInconsistencyError(
            "detector succeeded on the parent but on no half combination")

    witness = recurse(G)
    for i in range(k):
        for j in range(i + 1, k):
            if not G.has_edge(witness[i], witness[j]):
                raise InternalInconsistencyError(
                    f"witness {witness} fails edge check ({i},{j})")
    return witness
