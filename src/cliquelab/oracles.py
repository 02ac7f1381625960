"""Brute-force reference implementations.

These are deliberately naive -- plain loops over vertex tuples with
set-based membership, no bit-rows, no tables -- so that they share no
search logic with the engines they verify.  The one piece they do share
is the t-cutoff: every lister, oracle or engine, yields its witnesses in
order and ``ListingResult.take`` keeps the first t.
"""

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Dict, Iterable, List, Optional, Tuple

from .core import KPartiteGraph, UniformHypergraph
from .errors import InvalidParameterError

UNBOUNDED = None


@dataclass
class ListingResult:
    """Deduplicated witness list with truncation flag.

    ``requested_t`` is None when the caller asked for everything; in that
    case ``len(witnesses)`` equals the instance's total witness count.
    A negative ``requested_t`` is rejected here, once for every lister.
    """

    witnesses: List[Tuple[int, ...]] = field(default_factory=list)
    truncated: bool = False
    requested_t: Optional[int] = UNBOUNDED

    def __post_init__(self):
        if self.requested_t is not UNBOUNDED and self.requested_t < 0:
            raise InvalidParameterError(
                f"t must be non-negative, got {self.requested_t}")

    def take(self, hits: Iterable[Tuple[int, ...]]) -> "ListingResult":
        """Fill ``witnesses`` with the first ``requested_t`` items of hits
        (all of them when t is None) and set ``truncated`` iff one more
        exists; at most t + 1 items are drawn.  Returns self."""
        t = self.requested_t
        if t is UNBOUNDED:
            self.witnesses.extend(hits)
        else:
            hits = iter(hits)
            self.witnesses.extend(islice(hits, t))
            self.truncated = next(hits, None) is not None
        return self

    def __len__(self) -> int:
        return len(self.witnesses)

    def as_set(self) -> set:
        return set(self.witnesses)


def _adjacency_sets(G: KPartiteGraph) -> Dict[int, set]:
    """Per-vertex neighbour sets built by a plain pairwise scan."""
    verts = [v for i in range(G.k) for v in G.part_vertices(i)]
    nbrs: Dict[int, set] = {v: set() for v in verts}
    for a, u in enumerate(verts):
        for v in verts[a + 1:]:
            if G.has_edge(u, v):
                nbrs[u].add(v)
                nbrs[v].add(u)
    return nbrs


def brute_triangles(G: KPartiteGraph,
                    t: Optional[int] = UNBOUNDED) -> ListingResult:
    """All cross-part triangles of a 3-part graph, lexicographically."""
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    nbrs = _adjacency_sets(G)
    result = ListingResult(requested_t=t)
    return result.take((v1, v2, v3)
                       for v1 in G.part_vertices(0)
                       for v2 in G.part_vertices(1) if v2 in nbrs[v1]
                       for v3 in G.part_vertices(2)
                       if v3 in nbrs[v1] and v3 in nbrs[v2])


def brute_kclique(G: KPartiteGraph, k: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically first cross-part k-clique, or None.

    Exhaustive nested search with candidate-set pruning; no bit tricks.
    """
    if G.k != k:
        raise InvalidParameterError(f"graph has {G.k} parts, expected {k}")
    nbrs = _adjacency_sets(G)

    def extend(prefix: List[int], part: int) -> Optional[Tuple[int, ...]]:
        if part == k:
            return tuple(prefix)
        for v in G.part_vertices(part):
            if all(v in nbrs[u] for u in prefix):
                found = extend(prefix + [v], part + 1)
                if found is not None:
                    return found
        return None

    return extend([], 0)


def brute_hypercliques(H: UniformHypergraph, k: int,
                       t: Optional[int] = UNBOUNDED) -> ListingResult:
    """All k-tuples whose every cross-part r-subset is a hyperedge."""
    if H.k != k:
        raise InvalidParameterError(f"hypergraph has {H.k} parts, expected {k}")
    if H.r > k:
        raise InvalidParameterError(f"uniformity r={H.r} exceeds k={k}")
    edges = H.edges
    result = ListingResult(requested_t=t)

    def ok(prefix: List[int]) -> bool:
        # Check only the r-subsets completed by the newest vertex.
        v = prefix[-1]
        for rest in combinations(prefix[:-1], H.r - 1):
            if tuple(sorted(rest + (v,))) not in edges:
                return False
        return True

    def extend(prefix: List[int], part: int):
        if part == k:
            yield tuple(prefix)
            return
        for v in H.part_vertices(part):
            prefix.append(v)
            if len(prefix) < H.r or ok(prefix):
                yield from extend(prefix, part + 1)
            prefix.pop()

    return result.take(extend([], 0))
