"""Weak regularity partitioning and the sampled density check.

Partitions a random bipartite graph until the sampled cut-density
estimate is within epsilon * n^2 on random disjoint subset pairs, then
shows what happens on a structured graph where a coarse partition fails.
"""

from cliquelab import (GenSpec, KPartiteGraph, PseudoregularPartition,
                       RegularityConfig, check_pseudoregular_sampled,
                       edge_count_between, generate, weak_regular_partition)
from cliquelab.regularity import _density_matrix


def quadrant_graph(m: int) -> KPartiteGraph:
    """Two parts of 2m vertices; complete between the first halves only."""
    G = KPartiteGraph([2 * m, 2 * m])
    for u in range(m):
        for v in range(2 * m, 3 * m):
            G.adjacency[u] |= 1 << v
            G.adjacency[v] |= 1 << u
    return G


def main() -> None:
    G = generate(GenSpec("gnp-kpartite", 128, 2, 0.5, seed=9)).graph
    G = KPartiteGraph([0, *G.part_sizes], G.adjacency)   # parts V2, V3
    cfg = RegularityConfig(epsilon=0.05, rng_seed=0)
    P = weak_regular_partition(G, cfg)
    print(f"random G(128,128,0.5): {P.piece_count} pieces, "
          f"verified={P.verified}")
    rep = check_pseudoregular_sampled(G, P, 0.05, 2000, seed=1)
    print(f"sampled check: {rep.violations}/{rep.samples} violations, "
          f"max normalized error {rep.max_error:.5f}")

    # A structured graph where one piece per side is not enough: all edges
    # sit between the first halves, so the uniform density estimate is off
    # by ~3/16 n^2 on the half-aligned subset pair.
    m = 48
    Q = quadrant_graph(m)
    coarse = PseudoregularPartition(
        [Q.part_masks[0], Q.part_masks[1]],
        _density_matrix(Q, [Q.part_masks[0], Q.part_masks[1]]),
        epsilon=0.02)
    S = (1 << m) - 1                      # connected half of side one
    T = ((1 << m) - 1) << (2 * m)         # connected half of side two
    exact = edge_count_between(Q, S, T)
    est = float(coarse.densities[0][1]) * m * m
    n = 4 * m
    print(f"quadrant graph, coarse 2-piece partition: e(S,T)={exact} vs "
          f"estimate {est:.0f}; error {abs(exact - est) / n**2:.3f} n^2 "
          f"exceeds epsilon=0.02")

    aligned = [((1 << m) - 1) << off for off in (0, m, 2 * m, 3 * m)]
    PA = PseudoregularPartition(aligned, _density_matrix(Q, aligned),
                                epsilon=0.02)
    repq = check_pseudoregular_sampled(Q, PA, 0.02, 2000, seed=2)
    print(f"aligned 4-piece partition: {repq.violations} violations, "
          f"max normalized error {repq.max_error:.5f}")


if __name__ == "__main__":
    main()
