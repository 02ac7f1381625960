"""Walk through the triangle engines on one random tripartite instance.

Generates a seeded G(n, p) tripartite graph, runs the bit-parallel and
block-table detectors, then lists triangles three ways: brute force, the
row-AND lister, and the regularity-partition pipeline.
"""

from cliquelab import (GenSpec, RegularityConfig, brute_triangles,
                       detect_four_russians, detect_naive, generate,
                       list_row_and, list_triangles)


def main() -> None:
    spec = GenSpec("gnp-kpartite", n_per_part=48, k=3, p=0.1, seed=7)
    G = generate(spec).graph
    print(f"instance: 3 parts x {spec.n_per_part} vertices, "
          f"p={spec.p}, seed={spec.seed}, {len(list(G.edges()))} edges")

    w = detect_naive(G)
    print(f"bit-parallel detector: witness {w}")
    w = detect_four_russians(G)
    print(f"block-table detector:  witness {w}")

    truth = brute_triangles(G)
    print(f"brute force: {len(truth)} triangles total")

    sparse = list_row_and(G, None)
    print(f"row-AND lister: {len(sparse)} triangles, "
          f"set match = {sparse.as_set() == truth.as_set()}")

    cfg = RegularityConfig(epsilon=0.15, rng_seed=0, sample_count=60)
    detail = list_triangles(G, 10, cfg)
    print(f"regularity pipeline (t=10): {len(detail.result)} triangles, "
          f"{detail.piece_count} partition pieces, "
          f"verified={detail.partition_verified}")
    for plan in detail.plans[:3]:
        print(f"  piece pair {plan.piece_pair}: density={plan.density:.3f}, "
              f"low_density={plan.low_density}")


if __name__ == "__main__":
    main()
