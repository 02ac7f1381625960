"""Divide-and-conquer reduction from k-clique to triangle detection.

One recursive function, ``_search``.  At depth cap D it is the leaf: the
per-vertex reduction to (k-1)-clique on each part-0 vertex's
neighbourhood, whose children stay at the cap.  Below the cap, while a
heavy vertex exists (cross-part degree product >= alpha * product of part
sizes), its neighbourhood goes to the leaf at k-1 and the search recurses
on the 2^(k-1) - 1 split combinations that exclude the all-neighbour one;
otherwise the per-vertex reduction runs with fresh parameters.  Every
path ends in the pluggable triangle detector at k = 3, and every level
returns the clique it found: the detector's triple, extended.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

from .bitops import bits_to_list, split_bits
from .core import KPartiteGraph
from .errors import (InternalInconsistencyError, InvalidParameterError,
                     ResourceLimitError)
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
    The test ``prod * 1.0 >= alpha * cap`` is one int threshold, found
    once; past the float range it is ``prod >= alpha * cap``, exact.
    """
    if not 0 < alpha < 1:
        raise InvalidParameterError("alpha must be in (0, 1)")
    cap = math.prod(G.part_sizes[1:])
    if cap == 0:
        return None
    try:
        t = alpha * cap
    except OverflowError:       # cap is past the float range
        num, den = alpha.as_integer_ratio()
        least = -(-num * cap // den)
    else:                       # the least int whose float reaches t
        least = math.ceil(t)
        if least > 1 << 53:     # ints down to the midpoint below t round up
            half = int(t - math.nextafter(t, 0)) >> 1
            least -= half if float(least - half) >= t else half - 1
    rest = G.part_masks[1:]
    best_v, best_prod = None, least - 1
    for v in bits_to_list(G.part_masks[0]):
        row = G.adjacency[v]
        prod = 1
        for m in rest:
            prod *= (row & m).bit_count()
            if prod == 0:
                break
        if prod > best_prod:
            best_v, best_prod = v, prod
    return best_v


def _checked(G: KPartiteGraph, witness: Witness) -> Witness:
    """The final check of every reported witness."""
    if witness is not None and not G.is_cross_clique(witness):
        raise InternalInconsistencyError(
            f"witness {witness} is not a cross-part clique in part order")
    return witness


def kclique_via_k1(G: KPartiteGraph, k: int,
                   k1_solver: Callable[[KPartiteGraph], Witness]) -> Witness:
    """Reduce k-clique to (k-1)-clique on per-vertex neighbourhoods.

    A clique through v lies in v's neighbourhood, so for each v in part 0
    whose neighbourhood meets every other part, the (k-1)-solver runs once
    on the (k-1)-part view of that whole neighbourhood.
    """
    if k < 4:
        raise InvalidParameterError("kclique_via_k1 requires k >= 4")
    if len(G.part_masks) != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    masks = G.part_masks[1:]
    for v in bits_to_list(G.part_masks[0]):
        row = G.adjacency[v]
        nbrs = [row & m for m in masks]
        if all(nbrs) and (sub := k1_solver(G._view(nbrs))) is not None:
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
    try:
        return _checked(G, _search(G, k, triangle_detector, params, trace, 0))
    except RecursionError:
        raise ResourceLimitError(f"k = {k} nests the recursion past the "
                                 "interpreter's recursion limit") from None


def detect_kclique(G: KPartiteGraph, k: int,
                   triangle_detector: TriangleDetector = detect_naive,
                   params: Optional[RecursionParams] = None,
                   trace: Optional[List[TraceNode]] = None) -> bool:
    """True iff G contains a cross-part k-clique."""
    return find_kclique(G, k, triangle_detector, params, trace) is not None


def _search(G: KPartiteGraph, k: int, triangle_detector: TriangleDetector,
            params: Optional[RecursionParams],
            trace: Optional[List[TraceNode]], depth: int) -> Witness:
    """The recursion at depth ``depth`` of the heavy-vertex splits.

    At the depth cap it is the per-vertex leaf: its children stay at the
    cap, untraced, so every path ends in ``triangle_detector`` at k = 3.
    A traced node is recorded once, after its children.
    """
    if k == 3:
        return triangle_detector(G)
    if 0 in G.part_sizes:
        return None
    if params is None:
        params = choose_params(max(2, G.n_total), k)
    leaf = sparse = triangle_detector   # what a k = 3 ``_search`` calls
    if k > 4:
        leaf = partial(_search, k=k - 1, triangle_detector=triangle_detector,
                       params=params, trace=None, depth=params.depth_cap)
        sparse = partial(_search, k=k - 1, triangle_detector=triangle_detector,
                         params=None, trace=None, depth=0)

    v = parent_product = child_sum = None
    # Step 1: depth cap reached -> the per-vertex leaf.
    if depth >= params.depth_cap:
        branch = "depth-cap"
        witness = kclique_via_k1(G, k, leaf)
    # Step 2: heavy vertex.
    elif (v := find_heavy_vertex(G, params.alpha)) is not None:
        branch = "heavy-vertex"
        # 2a: leaf (k-1)-clique test inside v's neighbourhood.
        row = G.adjacency[v]
        witness = leaf(G.restrict(row, 1))
        if witness is not None:
            witness = (v,) + witness
        else:
            # 2b: recurse on the 2^(k-1) - 1 combinations, omitting all-ones.
            splits = [(m & ~row, m & row) for m in G.part_masks[1:]]
            parent_product = math.prod(G.part_sizes)
            child_sum = 0
            for combo in range((1 << (k - 1)) - 1):
                masks, prod = [G.part_masks[0]], G.part_sizes[0]
                for i, pair in enumerate(splits):
                    m = pair[(combo >> i) & 1]
                    masks.append(m)
                    prod *= m.bit_count()
                child_sum += prod
                if prod == 0:
                    continue
                witness = _search(G._view(masks), k, triangle_detector,
                                  params, trace, depth + 1)
                if witness is not None:
                    break
    # Step 3: all part-0 degrees are light -> trivial reduction to (k-1).
    else:
        branch = "sparse-base"
        witness = kclique_via_k1(G, k, sparse)
    if trace is not None:
        trace.append(TraceNode(depth, list(G.part_sizes), branch, v,
                               parent_product, child_sum))
    return witness


def find_witness(detector: Callable[[KPartiteGraph, int], bool],
                 G: KPartiteGraph, k: int) -> Optional[Tuple[int, ...]]:
    """Turn a k-clique decision procedure into a finding procedure.

    Repeated halving: split every part of two or more vertices into two
    halves, keep a combination of halves on which the detector still
    succeeds, and halve again until every part has one vertex.  Part 0
    varies fastest, and each view is asked once.  A graph with an empty
    part has no clique, so the detector is not asked.  The returned tuple
    passes the same final check as ``find_kclique``'s.
    """
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    if 0 in G.part_sizes or not detector(G, k):
        return None

    cur = G
    while any(s > 1 for s in cur.part_sizes):
        whole, halves = 0, []
        for m, size in zip(cur.part_masks, cur.part_sizes):
            if size > 1:    # the low floor(size / 2) vertices, the rest
                low = split_bits(m, size // 2)[0]
                halves.append((low, m ^ low))
            else:           # a part of one vertex is kept whole
                whole |= m
        for combo in range(1 << len(halves)):
            keep = whole
            for i, pair in enumerate(halves):
                keep |= pair[(combo >> i) & 1]
            sub = cur.restrict(keep)
            if detector(sub, k):
                cur = sub
                break
        else:
            raise InternalInconsistencyError(
                "detector succeeded on the parent but on no half combination")
    return _checked(G, tuple(m.bit_length() - 1 for m in cur.part_masks))
