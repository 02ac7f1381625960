"""Divide-and-conquer k-clique detection, parameters, and witnesses."""

import hashlib
import math
import random
from dataclasses import astuple
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquelab.bitops import iter_bits
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InternalInconsistencyError, InvalidParameterError
from cliquelab.generate import GenSpec, generate
from cliquelab.kclique import (ALPHA_MAX, RecursionParams, choose_params,
                               detect_kclique, find_heavy_vertex,
                               find_kclique, find_witness, kclique_via_k1)
from cliquelab.oracles import brute_kclique
from cliquelab.triangle import detect_four_russians, detect_naive
from tests.test_core import random_graph
from tests.test_oracles import complete_kpartite


def test_choose_params_arithmetic():
    p = choose_params(2 ** 16, 4)
    assert p.depth_cap == 1
    assert p.alpha == ALPHA_MAX          # raw value log2(64) = 6, clamped
    p = choose_params(2 ** 32, 4)
    assert p.depth_cap == 2
    assert p.alpha == ALPHA_MAX          # raw log2(128)/2 = 3.5, clamped
    p = choose_params(2, 5)
    assert p.depth_cap == 0              # the leaf at once


def _formula_params(n, k):
    """The paper's D and alpha for an n^3 base detector, alpha clamped to
    [2^-20, 1/2]: the formula that choose_params reduces to a constant."""
    log = math.log2(n)
    D = max(0, int(log / (4 * k)))
    raw = math.log2(max(k * log, 2.0)) / max(D, 1)
    return D, min(ALPHA_MAX, max(2.0 ** -20, raw))


def test_choose_params_matches_paper_formula_below_2_228():
    for k in range(3, 11):
        for L in range(1, 228):
            for n in (2 ** L - 1, 2 ** L, 2 ** L + 1):
                if n >= 2:
                    p = choose_params(n, k)
                    assert (p.depth_cap, p.alpha) == _formula_params(n, k)
    # the bound is tight: from 2^228 on the raw alpha at k = 3 is below 1/2
    assert _formula_params(2 ** 228, 3)[1] < ALPHA_MAX


def test_recursion_params_validation():
    with pytest.raises(InvalidParameterError):
        RecursionParams(depth_cap=-1, alpha=0.5)
    with pytest.raises(InvalidParameterError):
        RecursionParams(depth_cap=2, alpha=1.0)


def test_find_heavy_vertex_complete_tiebreak():
    g = complete_kpartite([3, 3, 3, 3])
    assert find_heavy_vertex(g, 0.9) == 0


def test_find_heavy_vertex_single_candidate():
    g = KPartiteGraph([3, 2, 2])
    for v in list(g.part_vertices(1)) + list(g.part_vertices(2)):
        g.adjacency[1] |= 1 << v
        g.adjacency[v] |= 1 << 1
    assert find_heavy_vertex(g, 0.5) == 1
    assert find_heavy_vertex(g, 0.5) is not None


def test_find_heavy_vertex_matches_scan():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, [5, 5, 5, 5], 0.6)
        alpha = rng.choice([0.1, 0.3, 0.6])
        cap = 125
        best = None
        best_prod = -1
        for v in g.part_vertices(0):
            prod = 1
            for i in range(1, 4):
                prod *= (g.adjacency[v] & g.part_masks[i]).bit_count()
            if prod >= alpha * cap and prod > best_prod:
                best, best_prod = v, prod
        assert find_heavy_vertex(g, alpha) == best


def _is_part_clique(g, w):
    return ([g.part_of(v) for v in w] == list(range(g.k))
            and all(g.has_edge(a, b) for a, b in combinations(w, 2)))


def test_kclique_via_k1_basics():
    g = complete_kpartite([3, 3, 3, 3])
    # the first part-0 vertex, then the solver's triangle in its neighbours
    assert kclique_via_k1(g, 4, detect_naive) == (0,) + detect_naive(
        g.restrict(g.part_masks[1:]))
    lonely = KPartiteGraph([1, 3, 3, 3])
    assert kclique_via_k1(lonely, 4, detect_naive) is None


def test_kclique_via_k1_matches_oracle():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, [6, 6, 6, 6], rng.choice([0.3, 0.6, 0.9]))
        got = kclique_via_k1(g, 4, detect_naive)
        assert (got is None) == (brute_kclique(g, 4) is None)
        assert got is None or _is_part_clique(g, got)


def test_detect_k3_delegates():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, [5, 5, 5], 0.3)
        assert detect_kclique(g, 3) == (detect_naive(g) is not None)


def test_detect_kclique_matches_oracle_both_bases():
    rng = random.Random(77)
    for k in (4, 5):
        for _ in range(25):
            sizes = [rng.randint(1, 6)] * k
            g = random_graph(rng, sizes, rng.choice([0.4, 0.7, 0.95]))
            want = brute_kclique(g, k) is not None
            assert detect_kclique(g, k, triangle_detector=detect_naive) == want
            assert detect_kclique(g, k,
                                  triangle_detector=detect_four_russians) == want


def test_detect_kclique_planted():
    for seed in range(10):
        inst = generate(GenSpec("planted-clique", 10, 5, 0.1, seed,
                                plant_count=1))
        assert detect_kclique(inst.graph, 5)


def test_empty_part_is_false():
    assert not detect_kclique(KPartiteGraph([0, 2, 2, 2]), 4)


def test_monotone_under_edge_addition():
    rng = random.Random(55)
    for _ in range(15):
        g = random_graph(rng, [5, 5, 5, 5], 0.5)
        before = detect_kclique(g, 4)
        # add a few random cross edges
        verts = list(range(g.n_total))
        for _ in range(8):
            u, v = rng.sample(verts, 2)
            if g.part_of(u) != g.part_of(v):
                g.adjacency[u] |= 1 << v
                g.adjacency[v] |= 1 << u
        after = detect_kclique(g, 4)
        assert after or not before


def test_trace_branches_and_invariants():
    rng = random.Random(10)
    params = RecursionParams(depth_cap=2, alpha=0.3)
    seen_branches = set()
    for _ in range(40):
        g = random_graph(rng, [6, 6, 6, 6], rng.choice([0.2, 0.5, 0.8]))
        trace = []
        detect_kclique(g, 4, params=RecursionParams(params.depth_cap,
                                                    params.alpha), trace=trace)
        for node in trace:
            seen_branches.add(node.branch)
            assert node.branch in ("depth-cap", "heavy-vertex", "sparse-base")
            assert node.depth <= params.depth_cap
            if node.child_product_sum is not None:
                assert node.child_product_sum <= \
                    (1 - params.alpha) * node.parent_product
    assert "heavy-vertex" in seen_branches


def test_find_witness_complete_and_free():
    g = complete_kpartite([2, 2, 2, 2])
    w = find_witness(detect_kclique, g, 4)
    assert w is not None
    for a, b in combinations(w, 2):
        assert g.has_edge(a, b)
    assert find_witness(detect_kclique, KPartiteGraph([2, 2, 2, 2]), 4) is None


def test_find_witness_on_planted_instances():
    for seed in range(8):
        inst = generate(GenSpec("planted-clique", 8, 4, 0.25, seed,
                                plant_count=1))
        w = find_witness(detect_kclique, inst.graph, 4)
        assert w is not None
        for a, b in combinations(w, 2):
            assert inst.graph.has_edge(a, b)


def test_find_witness_flags_inconsistent_detector():
    g = complete_kpartite([2, 2, 2])

    def bad_detector(sub, k):
        return sub.n_total == g.n_total     # true at parent, false below

    with pytest.raises(InternalInconsistencyError):
        find_witness(bad_detector, g, 3)


def test_find_witness_edge_checks_its_result():
    # a detector that says yes everywhere halves down to a non-clique
    with pytest.raises(InternalInconsistencyError):
        find_witness(lambda sub, k: True, KPartiteGraph([2, 2, 2]), 3)


@st.composite
def kclique_instances(draw):
    k = draw(st.sampled_from([3, 4, 5]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    if draw(st.integers(0, 3)) == 0:        # an empty part in a quarter
        sizes[draw(st.integers(0, k - 1))] = 0
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.2, 0.95)))
    return random_graph(random.Random(draw(st.integers(0, 2**32))),
                        sizes, p), k


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kclique_instances(),
       st.sampled_from([detect_naive, detect_four_russians]),
       st.sampled_from([None, (1, 0.05), (2, 0.05), (2, 0.3)]))
def test_find_kclique_matches_oracle_and_detect(instance, det, manual):
    g, k = instance
    params = None if manual is None else RecursionParams(*manual)
    trace = []
    got = find_kclique(g, k, det, params, trace)
    assert (got is None) == (brute_kclique(g, k) is None)
    assert got is None or _is_part_clique(g, got)
    detect_trace = []
    assert detect_kclique(g, k, det, params, detect_trace) is (got is not None)
    assert detect_trace == trace


def _top_of_each_part(sub):
    return tuple(m.bit_length() - 1 for m in sub.part_masks)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("fault", ["non-edge", "part-order", "short"])
@pytest.mark.parametrize("manual", [None, (2, 0.05)])
def test_find_kclique_rejects_a_non_triangle_from_the_detector(k, fault,
                                                               manual):
    # complete k-partite but for the edge between the top vertices of the
    # last two parts, so the top-of-each-part triple is no triangle
    g = complete_kpartite([2] * k)
    a, b = (m.bit_length() - 1 for m in g.part_masks[-2:])
    g.adjacency[a] &= ~(1 << b)
    g.adjacency[b] &= ~(1 << a)
    bad = {"non-edge": _top_of_each_part,
           "part-order": lambda sub: detect_naive(sub)[::-1],
           "short": lambda sub: detect_naive(sub)[:2]}[fault]
    params = None if manual is None else RecursionParams(*manual)
    with pytest.raises(InternalInconsistencyError):
        find_kclique(g, k, bad, params)


def test_kclique_via_k1_one_call_per_vertex_on_whole_neighbourhood():
    rng = random.Random(12)
    for _ in range(20):
        g = random_graph(rng, [5, 3, 7, 4], rng.choice([0.3, 0.6, 0.9]))
        calls = []

        def solver(sub):
            calls.append(sub.part_masks)
            return None

        assert kclique_via_k1(g, 4, solver) is None
        want = []
        for v in g.part_vertices(0):
            nbrs = [g.adjacency[v] & g.part_masks[i] for i in range(1, 4)]
            if all(nbrs):
                want.append(nbrs)
        assert calls == want


@pytest.mark.parametrize("k", [4, 5])
def test_default_params_reach_triangle_detector(k):
    # Complete k-partite graph without the edges between its last two
    # parts: no k-clique, yet the per-vertex reduction reaches k = 3.
    g = complete_kpartite([3] * k)
    a, b = g.part_masks[-2:]
    for u in iter_bits(a):
        g.adjacency[u] &= ~b
    for u in iter_bits(b):
        g.adjacency[u] &= ~a
    calls = []

    def counting(sub):
        calls.append(sub.part_sizes)
        return detect_naive(sub)

    assert brute_kclique(g, k) is None
    assert not detect_kclique(g, k, triangle_detector=counting)
    assert calls


def _pin_specs(k):
    rng = random.Random(80 + k)
    hi = 12 if k == 4 else 8
    specs = [GenSpec("gnp-kpartite", rng.randint(3, hi), k,
                     rng.choice([0.3, 0.5, 0.7, 0.9]), seed=100 * k + i)
             for i in range(30)]
    specs += [GenSpec("planted-clique", rng.randint(4, hi), k,
                      rng.choice([0.1, 0.3]), seed=100 * k + 50 + i,
                      plant_count=1) for i in range(10)]
    return specs


def _pin_digest(k, det, params):
    """sha256 prefix over decisions, trace nodes, witnesses and the
    (view, answer, trace) sequence of find_witness's detector calls."""
    record = []
    for spec in _pin_specs(k):
        G = generate(spec).graph
        trace = []
        found = detect_kclique(G, k, det, params, trace)
        calls = []

        def detector(sub, kk):
            sub_trace = []
            got = detect_kclique(sub, kk, det, params, sub_trace)
            calls.append((tuple(sub.part_masks), got,
                          [astuple(n) for n in sub_trace]))
            return got

        witness = find_witness(detector, G, k)
        record.append((found, [astuple(n) for n in trace], witness, calls))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


# Recorded before the per-vertex leaf replaced exhaustive search and the
# neighbourhood tiling, which must not change any decision, trace,
# witness or witness-detector call.  Both detectors give the same digest,
# since only detector booleans reach the record.
PINNED_DIGESTS = {
    (4, None): "eb48deab008c10c9",
    (4, (2, 0.05)): "116de63f2e5ab4b1",
    (4, (2, 0.3)): "6f1ab94275051571",
    (5, None): "9cf519ca113572a4",
    (5, (2, 0.05)): "e9a1e641bd02a3a5",
    (5, (2, 0.3)): "6cbfae683961ecda",
}


@pytest.mark.parametrize("k, manual", list(PINNED_DIGESTS))
@pytest.mark.parametrize("det", [detect_naive, detect_four_russians])
def test_decisions_traces_and_witnesses_pinned(k, manual, det):
    params = None if manual is None else RecursionParams(*manual)
    assert _pin_digest(k, det, params) == PINNED_DIGESTS[k, manual]
