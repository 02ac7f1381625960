"""Divide-and-conquer reduction from k-clique to triangle detection.

The recursion: at depth cap D hand the graph to the leaf; while a heavy
vertex exists (cross-part degree product >= alpha * product of part
sizes), give its neighbourhood to the leaf at k-1 and recurse on the
2^(k-1) - 1 split combinations that exclude the all-neighbour one;
otherwise reduce to (k-1)-clique on every part-0 vertex's neighbourhood.
The leaf applies that per-vertex reduction down to k = 3, where it calls
the pluggable triangle detector, so every path ends in the detector and
every level returns the clique it found: the detector's triple, extended.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from .bitops import iter_bits, mask_from_vertices
from .core import KPartiteGraph
from .errors import InternalInconsistencyError, InvalidParameterError
from .triangle import detect_naive

ALPHA_MAX = 0.5

TriangleDetector = Callable[[KPartiteGraph], Optional[Tuple[int, int, int]]]
Witness = Optional[Tuple[int, ...]]


@dataclass
class RecursionParams:
    depth_cap: int          # D
    alpha: float            # heavy-vertex threshold, clamped to (0, 1)

    def __post_init__(self):
        if self.depth_cap < 0 or not 0 < self.alpha < 1:
            raise InvalidParameterError("need D >= 0 and 0 < alpha < 1")


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


def _checked(G: KPartiteGraph, witness: Witness) -> Witness:
    """The final check of every reported witness: one vertex in each part
    of G, in part order, and every pair an edge."""
    if witness is not None and not (
            len(witness) == G.k
            and all((m >> v) & 1 for m, v in zip(G.part_masks, witness))
            and all(G.has_edge(a, b) for a, b in combinations(witness, 2))):
        raise InternalInconsistencyError(
            f"witness {witness} is not a cross-part clique in part order")
    return witness


def _leaf(G: KPartiteGraph, k: int, triangle_detector: TriangleDetector
          ) -> Witness:
    """Per-vertex reduction from k-clique down to the triangle detector."""
    if k == 3:
        return triangle_detector(G)
    return kclique_via_k1(
        G, k, lambda sub: _leaf(sub, k - 1, triangle_detector))


def kclique_via_k1(G: KPartiteGraph, k: int,
                   k1_solver: Callable[[KPartiteGraph], Witness]) -> Witness:
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
        if all(nbrs) and (sub := k1_solver(G.restrict(nbrs))) is not None:
            return (v,) + sub
    return None


def find_kclique(G: KPartiteGraph, k: int,
                 triangle_detector: TriangleDetector = detect_naive,
                 params: Optional[RecursionParams] = None,
                 trace: Optional[List[TraceNode]] = None) -> Witness:
    """KCliqueRec: a cross-part k-clique of G in part order, or None."""
    if k < 3:
        raise InvalidParameterError("k must be >= 3")
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    return _checked(G, _search(G, k, triangle_detector, params, trace, 0))


def detect_kclique(G: KPartiteGraph, k: int,
                   triangle_detector: TriangleDetector = detect_naive,
                   params: Optional[RecursionParams] = None,
                   trace: Optional[List[TraceNode]] = None) -> bool:
    """True iff G contains a cross-part k-clique."""
    return find_kclique(G, k, triangle_detector, params, trace) is not None


def _search(G: KPartiteGraph, k: int, triangle_detector: TriangleDetector,
            params: Optional[RecursionParams],
            trace: Optional[List[TraceNode]], depth: int) -> Witness:
    """The recursion at depth ``depth`` of the heavy-vertex splits."""
    if k == 3:
        return triangle_detector(G)
    if any(s == 0 for s in G.part_sizes):
        return None
    if params is None:
        params = choose_params(max(2, G.n_total), k)

    # Step 1: depth cap reached -> the per-vertex leaf.
    if depth >= params.depth_cap:
        if trace is not None:
            trace.append(TraceNode(depth=depth,
                                   part_sizes=list(G.part_sizes),
                                   branch="depth-cap"))
        return _leaf(G, k, triangle_detector)

    # Step 2: heavy vertex.
    v = find_heavy_vertex(G, params.alpha)
    if v is not None:
        # 2a: leaf (k-1)-clique test inside v's neighbourhood.
        nbr = [G.adjacency[v] & G.part_masks[i] for i in range(1, k)]
        sub = _leaf(G.restrict(nbr), k - 1, triangle_detector)
        if sub is not None:
            if trace is not None:
                trace.append(TraceNode(depth=depth,
                                       part_sizes=list(G.part_sizes),
                                       branch="heavy-vertex", heavy_vertex=v))
            return (v,) + sub
        # 2b: recurse on the 2^(k-1) - 1 combinations, omitting all-ones.
        splits = [(G.part_masks[i] & ~nbr[i - 1], nbr[i - 1])
                  for i in range(1, k)]
        parent_product = math.prod(G.part_sizes)
        child_sum = 0
        witness = None
        for combo in range((1 << (k - 1)) - 1):
            chosen = [G.part_masks[0]] + [splits[i][(combo >> i) & 1]
                                          for i in range(k - 1)]
            prod = math.prod(m.bit_count() for m in chosen)
            child_sum += prod
            if prod == 0:
                continue
            witness = _search(G.restrict(chosen), k, triangle_detector,
                              params, trace, depth + 1)
            if witness is not None:
                break
        if trace is not None:
            trace.append(TraceNode(
                depth=depth, part_sizes=list(G.part_sizes),
                branch="heavy-vertex", heavy_vertex=v,
                parent_product=parent_product,
                child_product_sum=child_sum))
        return witness

    # Step 3: all part-0 degrees are light -> trivial reduction to (k-1).
    if trace is not None:
        trace.append(TraceNode(depth=depth,
                               part_sizes=list(G.part_sizes),
                               branch="sparse-base"))
    return kclique_via_k1(G, k, lambda child: _search(
        child, k - 1, triangle_detector, None, None, 0))


def find_witness(detector: Callable[[KPartiteGraph, int], bool],
                 G: KPartiteGraph, k: int) -> Optional[Tuple[int, ...]]:
    """Turn a k-clique decision procedure into a finding procedure.

    Repeated halving: split every part into two halves, keep a combination
    of halves on which the detector still succeeds, and halve again until
    every part has one vertex.  The returned tuple passes the same final
    check as ``find_kclique``'s.
    """
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    if not detector(G, k):
        return None

    cur = G
    while not all(s == 1 for s in cur.part_sizes):
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
                cur = sub
                break
        else:
            raise InternalInconsistencyError(
                "detector succeeded on the parent but on no half combination")
    return _checked(G, tuple(m.bit_length() - 1 for m in cur.part_masks))
