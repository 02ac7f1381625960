"""Divide-and-conquer k-clique detection on a planted instance.

Plants a 5-clique in sparse 5-partite noise, runs the recursion with a
trace attached, summarizes which branches it took and prints the clique
it carried up, then recovers a clique from the yes/no detector alone by
part halving (the generic decision-to-search reduction).
"""

from collections import Counter

from cliquelab import (GenSpec, RecursionParams, choose_params,
                       detect_kclique, find_kclique, find_witness, generate)


def main() -> None:
    spec = GenSpec("planted-clique", n_per_part=12, k=5, p=0.15, seed=3,
                   plant_count=1)
    inst = generate(spec)
    G = inst.graph
    print(f"instance: 5 parts x {spec.n_per_part}, noise p={spec.p}, "
          f"planted witness {inst.witnesses[0]}")

    auto = choose_params(G.n_total, 5)
    print(f"auto parameters: depth cap {auto.depth_cap}, "
          f"alpha {auto.alpha:.3f}")

    trace = []
    carried = find_kclique(G, 5, params=RecursionParams(2, 0.3), trace=trace)
    branches = Counter(node.branch for node in trace)
    print(f"detected: {carried is not None}; "
          f"recursion nodes by branch: {dict(branches)}")
    print(f"witness carried up the traced recursion: {carried}")

    shrink_ok = all(
        node.child_product_sum <= (1 - 0.3) * node.parent_product
        for node in trace
        if node.branch == "heavy-vertex" and node.child_product_sum is not None)
    print(f"shrinkage inequality held at every split node: {shrink_ok}")

    witness = find_witness(detect_kclique, G, 5)
    print(f"witness via part halving of the yes/no detector: {witness}")


if __name__ == "__main__":
    main()
