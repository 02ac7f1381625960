"""Seed-deterministic random instance generators.

Supported kinds: G(n, p) k-partite graphs, the same with planted
cross-part cliques, r-uniform random hypergraphs, and hypergraphs with
planted hypercliques.  Plants are chosen before any noise edge is drawn,
so noise can only add witnesses, never remove a plant.  numpy, which
draws the noise in batches, is imported on the first draw.
"""

from dataclasses import dataclass
from itertools import combinations, compress, islice, product
from math import prod
from typing import List, Optional, Tuple, Union

from .core import KPartiteGraph, UniformHypergraph
from .errors import InvalidParameterError
from .rng import CounterRng, bernoulli_at

KINDS = ("gnp-kpartite", "planted-clique", "gnp-hypergraph",
         "planted-hyperclique")


@dataclass(frozen=True)
class GenSpec:
    """Instance recipe; the same spec always yields the same instance."""

    kind: str
    n_per_part: int
    k: int
    p: float
    seed: int
    r: Optional[int] = None      # uniformity, hypergraph kinds only
    plant_count: int = 0         # planted kinds only

    @property
    def part_sizes(self) -> Tuple[int, ...]:
        return (self.n_per_part,) * self.k

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError("p must be in [0, 1]")
        if self.n_per_part < 1 or self.k < 2:
            raise InvalidParameterError("need n_per_part >= 1 and k >= 2")
        hyper = self.kind in ("gnp-hypergraph", "planted-hyperclique")
        if hyper:
            if self.r is None or not 2 <= self.r <= self.k:
                raise InvalidParameterError("need 2 <= r <= k for hypergraphs")
        elif self.r is not None:
            raise InvalidParameterError("r only applies to hypergraph kinds")
        planted = self.kind in ("planted-clique", "planted-hyperclique")
        if planted and self.plant_count < 1:
            raise InvalidParameterError("planted kinds need plant_count >= 1")
        if not planted and self.plant_count != 0:
            raise InvalidParameterError("plant_count only applies to planted kinds")
        if planted and self.plant_count > self.n_per_part ** self.k:
            raise InvalidParameterError("plant_count exceeds distinct tuples")


@dataclass
class GeneratedInstance:
    spec: GenSpec
    graph: Union[KPartiteGraph, UniformHypergraph]
    witnesses: List[Tuple[int, ...]]     # the planted tuples, [] otherwise


def _plant_tuples(rng: CounterRng, g, count: int) -> List[Tuple[int, ...]]:
    """count distinct one-vertex-per-part tuples, drawn before any noise."""
    plants: List[Tuple[int, ...]] = []
    seen = set()
    while len(plants) < count:
        t = tuple(g.part_start[i] + rng.below(g.part_sizes[i])
                  for i in range(g.k))
        if t not in seen:
            seen.add(t)
            plants.append(t)
    return plants


# Draws per numpy batch (and bits per transpose tile): bounds the
# generator's scratch memory at a few MB whatever the graph size.
_BATCH = 1 << 16


def _gnp_rows(rng: CounterRng, G: KPartiteGraph, p: float) -> None:
    """OR independent Bernoulli(p) cross-part edges into G's rows.

    Row u owns draws u*n .. u*n + n - 1 of the stream, and pair u < v is
    decided by draw u*n + v, so the instance depends only on (seed, part
    sizes, p).  Parts are contiguous, so the cross pairs above u are the
    columns after u's part: those draws are taken in batches and packed
    into upper rows, which a tiled bit transpose then mirrors.
    """
    import numpy as np
    n = G.n_total
    base = rng.counter
    rng.counter += n * n
    nbytes = (n + 7) // 8
    upper = np.zeros((n, nbytes), dtype=np.uint8)
    for lo, size in zip(G.part_start, G.part_sizes):
        hi = lo + size
        if hi == n:
            continue
        cols = np.arange(hi, n, dtype=np.uint64)
        step = max(1, _BATCH // (n - hi))
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            rows = np.arange(r0, r1, dtype=np.uint64)[:, None]
            hits = np.zeros((r1 - r0, n), dtype=bool)
            hits[:, hi:] = bernoulli_at(rng.seed, base + rows * n + cols, p)
            upper[r0:r1] = np.packbits(hits, axis=1, bitorder="little")
    tile = max(8, _BATCH // n // 8 * 8)
    for t0 in range(0, n, tile):
        t1 = min(t0 + tile, n)
        below = np.unpackbits(upper[:, t0 // 8:(t1 + 7) // 8], axis=1,
                              count=t1 - t0, bitorder="little")
        rows = upper[t0:t1] | np.packbits(below.T, axis=1, bitorder="little")
        for u, row in zip(range(t0, t1), rows):
            G.adjacency[u] |= int.from_bytes(row.tobytes(), "little")


def generate(spec: GenSpec) -> GeneratedInstance:
    """Materialize a spec into a graph or hypergraph instance."""
    rng = CounterRng(spec.seed)
    if spec.kind in ("gnp-kpartite", "planted-clique"):
        G = KPartiteGraph(list(spec.part_sizes))
        witnesses: List[Tuple[int, ...]] = []
        if spec.kind == "planted-clique":
            witnesses = _plant_tuples(rng, G, spec.plant_count)
            for w in witnesses:
                for u, v in combinations(w, 2):
                    G.adjacency[u] |= 1 << v
                    G.adjacency[v] |= 1 << u
        _gnp_rows(rng, G, spec.p)
        return GeneratedInstance(spec=spec, graph=G, witnesses=witnesses)

    H = UniformHypergraph(spec.r, list(spec.part_sizes))
    witnesses = []
    if spec.kind == "planted-hyperclique":
        witnesses = _plant_tuples(rng, H, spec.plant_count)
        for w in witnesses:
            for sub in combinations(w, spec.r):
                H.add_edge(sub)
    # Tuple number t of a part combination (in ``product`` order) is kept
    # iff the stream's next draw t is below p.  Parts are contiguous and
    # taken in ascending order, so every tuple is already sorted.
    for part_combo in combinations(range(H.k), spec.r):
        tuples = product(*(H.part_vertices(i) for i in part_combo))
        left = prod(H.part_sizes[i] for i in part_combo)
        while left:
            size = min(left, _BATCH)
            hits = rng.bernoulli_flags(size, spec.p).tolist()
            H.edges.update(compress(islice(tuples, size), hits))
            left -= size
    return GeneratedInstance(spec=spec, graph=H, witnesses=witnesses)
