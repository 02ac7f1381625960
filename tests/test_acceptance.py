"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so the verdicts are visible in the captured output either way.
"""

import math
import random
import statistics
from itertools import combinations, product

from cliquelab.bitops import iter_bits, mask_range
from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.generate import GenSpec, generate
from cliquelab.hyperclique import (BlockGeometry, HypercliqueParams,
                                   detect_hyperclique, formula_block_side,
                                   list_hypercliques)
from cliquelab.kclique import (RecursionParams, choose_params, detect_kclique,
                               find_witness)
from cliquelab.listing import list_triangles
from cliquelab.oracles import brute_hypercliques, brute_kclique, brute_triangles
from cliquelab.regularity import (PseudoregularPartition, RegularityConfig,
                                  _density_matrix, check_pseudoregular_sampled,
                                  weak_regular_partition)
from cliquelab.triangle import detect_four_russians, detect_naive, list_row_and
from tests.scalar_reference import detect_scalar_reference, time_callable
from tests.test_hyperclique import blocks_of


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


LEAN_CFG = RegularityConfig(epsilon=0.2, rng_seed=0, sample_count=40)


def test_ac1_triangle_oracle_equivalence():
    sizes = [5] * 400 + [10] * 300 + [20] * 200 + [40] * 100
    ps = [0.05, 0.1, 0.3, 0.5, 0.9]
    mismatches = 0
    for i, n in enumerate(sizes):
        spec = GenSpec("gnp-kpartite", n, 3, ps[i % 5], seed=i)
        G = generate(spec).graph
        oracle = brute_triangles(G)
        truth = oracle.as_set()
        for det in (detect_naive, detect_four_russians):
            w = det(G)
            if (w is None) != (not truth) or (w is not None and w not in truth):
                mismatches += 1
        if list_row_and(G, None).as_set() != truth:
            mismatches += 1
        if list_triangles(G, None, LEAN_CFG).result.as_set() != truth:
            mismatches += 1
    ok = mismatches == 0
    _verdict("AC1 triangle-oracle-equivalence", ok,
             f"{len(sizes)} instances, {mismatches} mismatches")
    assert ok


def test_ac2_kclique_equivalence():
    rng = random.Random(2)
    cases = []
    for i in range(150):
        cases.append(GenSpec("gnp-kpartite", rng.randint(3, 14), 4,
                             rng.choice([0.3, 0.5, 0.7, 0.9]), seed=i))
    for i in range(150):
        cases.append(GenSpec("gnp-kpartite", rng.randint(3, 9), 5,
                             rng.choice([0.4, 0.6, 0.8, 0.95]), seed=1000 + i))
    for i in range(30):
        cases.append(GenSpec("planted-clique", rng.randint(4, 10), 4,
                             rng.choice([0.1, 0.3]), seed=2000 + i,
                             plant_count=1))
    for i in range(20):
        cases.append(GenSpec("planted-clique", rng.randint(4, 8), 5,
                             rng.choice([0.1, 0.2]), seed=3000 + i,
                             plant_count=1))
    mismatches = 0
    for spec in cases:
        G = generate(spec).graph
        k = spec.k
        want = brute_kclique(G, k) is not None
        manual = RecursionParams(depth_cap=2, alpha=0.3)
        for det in (detect_naive, detect_four_russians):
            for params in (choose_params(max(2, G.n_total), k),
                           RecursionParams(manual.depth_cap, manual.alpha)):
                if detect_kclique(G, k, det, params=params) != want:
                    mismatches += 1
        w = find_witness(detect_kclique, G, k)
        if (w is None) == want:
            mismatches += 1
        if w is not None:
            if len({G.part_of(v) for v in w}) != k or any(
                    not G.has_edge(a, b) for a, b in combinations(w, 2)):
                mismatches += 1
    ok = mismatches == 0
    _verdict("AC2 kclique-equivalence", ok,
             f"{len(cases)} instances x 4 configurations, "
             f"{mismatches} mismatches")
    assert ok


def _dense_vertex_instance(seed: int) -> KPartiteGraph:
    """Sparse 4-partite noise plus one part-0 vertex wired to 6 of 8
    vertices in every other part (degree product 216 >= 0.3 * 512)."""
    G = generate(GenSpec("gnp-kpartite", 8, 4, 0.05, seed)).graph
    rng = random.Random(10_000 + seed)
    for part in range(1, 4):
        for v in rng.sample(list(G.part_vertices(part)), 6):
            G.adjacency[0] |= 1 << v
            G.adjacency[v] |= 1
    return G


def test_ac3_recursion_shrinkage_invariant():
    params = RecursionParams(depth_cap=2, alpha=0.3)
    violations = 0
    fired = 0
    for seed in range(100):
        G = _dense_vertex_instance(seed)
        trace = []
        detect_kclique(G, 4,
                       params=RecursionParams(params.depth_cap, params.alpha),
                       trace=trace)
        heavy = [n for n in trace if n.branch == "heavy-vertex"]
        if heavy:
            fired += 1
        for node in trace:
            if node.depth > params.depth_cap:
                violations += 1
            if node.branch == "heavy-vertex" and \
                    node.child_product_sum is not None:
                if node.child_product_sum > \
                        (1 - params.alpha) * node.parent_product:
                    violations += 1
    ok = violations == 0 and fired == 100
    _verdict("AC3 recursion-shrinkage-invariant", ok,
             f"heavy branch fired on {fired}/100 instances, "
             f"{violations} violations")
    assert ok


def test_ac4_hyperclique_equivalence():
    rng = random.Random(4)
    cases = []
    for i in range(120):
        cases.append(GenSpec("gnp-hypergraph", rng.randint(3, 12), 4,
                             rng.choice([0.3, 0.5, 0.7, 0.9]), seed=i, r=3))
    for i in range(80):
        cases.append(GenSpec("gnp-hypergraph", rng.randint(3, 6), 5,
                             rng.choice([0.5, 0.7, 0.9]), seed=500 + i, r=3))
    for i in range(30):
        cases.append(GenSpec("planted-hyperclique", rng.randint(3, 8), 4,
                             rng.choice([0.05, 0.2]), seed=700 + i, r=3,
                             plant_count=rng.randint(1, 3)))
    for i in range(20):
        cases.append(GenSpec("planted-hyperclique", rng.randint(3, 5), 5,
                             rng.choice([0.05, 0.2]), seed=800 + i, r=3,
                             plant_count=1))
    mismatches = 0
    for spec in cases:
        H = generate(spec).graph
        k = spec.k
        truth = brute_hypercliques(H, k).as_set()
        res = list_hypercliques(H, k)
        if res.as_set() != truth or len(res) != len(res.as_set()):
            mismatches += 1
        if truth:
            t = max(1, len(truth) // 2)
            bounded = list_hypercliques(H, k, t=t)
            got = bounded.as_set()
            if len(bounded) != min(t, len(truth)) or len(got) != len(bounded) \
                    or not got <= truth:
                mismatches += 1
    # r=2 differential check against the graph k-clique engine
    for seed in range(20):
        H = generate(GenSpec("gnp-hypergraph", 6, 4, 0.5, seed, r=2)).graph
        G = KPartiteGraph.from_edges(H.part_sizes, sorted(H.edges))
        if detect_hyperclique(H, 4) != detect_kclique(G, 4):
            mismatches += 1
    ok = mismatches == 0
    _verdict("AC4 hyperclique-equivalence", ok,
             f"{len(cases)} listing instances + 20 pairwise cross-checks, "
             f"{mismatches} mismatches")
    assert ok


def test_ac5_compact_representation():
    failures = 0
    # 10^4 encode/decode roundtrips on random block subgraphs, through the
    # engine's placement: encode ORs each edge's tuple_bit, decode inverts
    # tuple_bit over the block tuple's cross-slot pairs
    rng = random.Random(5)
    h = UniformHypergraph(3, [2, 5, 4, 5])
    geo = BlockGeometry(h, HypercliqueParams(s=2, k=4, r=3))
    slot_blocks = blocks_of(h, 2)
    for _ in range(10_000):
        j = tuple(rng.randrange(len(b)) for b in slot_blocks)
        blocks = [b[i] for b, i in zip(slot_blocks, j)]
        edges = set()
        for _ in range(rng.randrange(5)):
            slots = sorted(rng.sample(range(3), 2))
            verts = []
            for slot in slots:
                block = blocks[slot]
                verts.append(block[rng.randrange(len(block))])
            edges.add(tuple(sorted(verts)))
        rep = 0
        for e in edges:
            rep |= 1 << geo.tuple_bit(e)[2]
        inverse = {geo.tuple_bit(e)[2]: e for I in geo.index_sets
                   for e in product(*[blocks[slot] for slot in I])}
        if {inverse.get(b) for b in iter_bits(rep)} != edges:
            failures += 1
    # representation-length bound with the formula-derived real-valued s
    checked = 0
    for log_n in range(10, 21):
        for (k, r) in ((4, 3), (5, 3), (5, 4), (4, 2)):
            s_real = formula_block_side(2 ** log_n, k, r)
            L_real = math.comb(k - 1, r - 1) * s_real ** (r - 1)
            checked += 1
            if L_real > 0.5 * log_n + 1e-9:
                failures += 1
    ok = failures == 0
    _verdict("AC5 compact-representation", ok,
             f"10000 roundtrips + {checked} length bounds, "
             f"{failures} failures")
    assert ok


def test_ac6_pseudoregularity_sampled():
    G = generate(GenSpec("gnp-kpartite", 512, 2, 0.5, seed=6)).graph
    G = KPartiteGraph([0, *G.part_sizes], G.adjacency)
    cfg = RegularityConfig(epsilon=0.05, rng_seed=1)
    P = weak_regular_partition(G, cfg)
    rep = check_pseudoregular_sampled(G, P, 0.05, 10_000, seed=2)
    frac = 1 - rep.violations / rep.samples

    # complete bipartite, single piece per side
    C = KPartiteGraph([0, 64, 64])
    for u in range(64):
        for v in range(64, 128):
            C.adjacency[u] |= 1 << v
            C.adjacency[v] |= 1 << u
    Pc = weak_regular_partition(C, RegularityConfig(epsilon=0.05, rng_seed=0))
    rep_c = check_pseudoregular_sampled(C, Pc, 0.05, 2000, seed=3)

    # quadrant graph with the aligned two-blocks-per-side partition
    m = 32
    Q = KPartiteGraph([2 * m, 2 * m])
    for u in range(m):
        for v in range(2 * m, 3 * m):
            Q.adjacency[u] |= 1 << v
            Q.adjacency[v] |= 1 << u
    pieces = [((1 << m) - 1) << off for off in (0, m, 2 * m, 3 * m)]
    Pq = PseudoregularPartition(pieces, _density_matrix(Q, pieces),
                                epsilon=0.05)
    rep_q = check_pseudoregular_sampled(Q, Pq, 0.05, 2000, seed=4)

    ok = frac >= 0.99 and rep_c.violations == 0 and rep_q.violations == 0
    _verdict("AC6 pseudoregularity-sampled", ok,
             f"random fraction {frac:.4f}, aligned constructions "
             f"{rep_c.violations}+{rep_q.violations} violations")
    assert ok


def test_ac7_listing_truncation_no_duplicates():
    # 100 vertex-disjoint planted triangles, no noise: exactly 100 total
    n = 100
    G = KPartiteGraph([n, n, n])
    for i in range(n):
        for a, b in combinations((i, n + i, 2 * n + i), 2):
            G.adjacency[a] |= 1 << b
            G.adjacency[b] |= 1 << a
    truth = brute_triangles(G).as_set()
    assert len(truth) == 100
    issues = 0
    # LEAN_CFG runs the sampled partition check; the default epsilon is
    # certified exactly
    for cfg in (LEAN_CFG, None):
        res = list_triangles(G, 50, cfg).result
        got = res.witnesses
        if len(got) != 50 or len(set(got)) != 50 or not set(got) <= truth:
            issues += 1
        full = list_triangles(G, None, cfg).result
        if len(full.witnesses) != len(set(full.witnesses)) or \
                full.as_set() != truth:
            issues += 1
    ok = issues == 0
    _verdict("AC7 listing-truncation-no-duplicates", ok,
             f"list_triangles at sampled and certified epsilon, t=50 of "
             f"100, {issues} issues")
    assert ok


def _dense_triangle_free(n: int) -> KPartiteGraph:
    """G(n, n, n, 0.5) cut down to a dense graph with no triangle.

    Part 0 keeps its edges to part 1 and to the lower half of part 2;
    part 1-part 2 edges survive only from the lower half of part 1 to the
    upper half of part 2.  A triangle's part-2 vertex would have to lie in
    both halves, so every detector must search the whole instance.
    """
    G = generate(GenSpec("gnp-kpartite", n, 3, 0.5, seed=0)).graph
    part0, part1 = G.part_masks[0], G.part_masks[1]
    s1, s2, half = G.part_start[1], G.part_start[2], n // 2
    lower1 = mask_range(s1, s1 + half)
    lower2, upper2 = mask_range(s2, s2 + half), mask_range(s2 + half, s2 + n)
    keep = ([part1 | lower2] * n                              # part 0
            + [part0 | upper2] * half + [part0] * (n - half)  # part 1
            + [part0] * half + [lower1] * (n - half))         # part 2
    for v, mask in enumerate(keep):
        G.adjacency[v] &= mask
    return G


def test_ac8_benchmark_sanity():
    # Binding check: on a dense triangle-free instance neither detector
    # can stop early, so the ratio compares bit-at-a-time probing with
    # whole-row intersection over the full search.
    n = 128
    G = _dense_triangle_free(n)
    assert detect_scalar_reference(G) is None
    assert detect_naive(G) is None
    scalar = statistics.median(
        time_callable(lambda: detect_scalar_reference(G), repeats=5))
    naive = statistics.median(
        time_callable(lambda: detect_naive(G), repeats=5))
    ratio = scalar / naive

    ok = ratio >= 8.0
    _verdict("AC8 benchmark-sanity", ok,
             f"scalar/bit-parallel ratio {ratio:.2f}x on a triangle-free "
             f"instance at n={n}, need >= 8x")
    assert ok
