"""Sanity checks of the brute-force references against hand counts."""

import random
from itertools import combinations

import pytest

from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.oracles import (ListingResult, brute_hypercliques,
                               brute_kclique, brute_triangles)
from tests.test_core import random_graph


def complete_kpartite(sizes):
    g = KPartiteGraph(sizes)
    n = g.n_total
    for u in range(n):
        for v in range(u + 1, n):
            if g.part_of(u) != g.part_of(v):
                g.adjacency[u] |= 1 << v
                g.adjacency[v] |= 1 << u
    return g


HITS = [(0, 3), (0, 4), (1, 3), (1, 4)]


@pytest.mark.parametrize("t, hits, want, cut", [
    (0, [], [], False),
    (0, HITS, [], True),
    (3, HITS[:3], HITS[:3], False),
    (3, HITS, HITS[:3], True),
    (None, HITS, HITS, False),
    (None, [], [], False),
])
def test_take_keeps_first_t(t, hits, want, cut):
    res = ListingResult(requested_t=t)
    assert res.take(iter(hits)) is res
    assert (res.witnesses, res.truncated) == (want, cut)


@pytest.mark.parametrize("t", [0, 1, 3])
def test_take_draws_at_most_t_plus_one(t):
    def hits():
        for i in range(t + 1):
            yield (i,)
        raise AssertionError("drawn past item t + 1")
    res = ListingResult(requested_t=t).take(hits())
    assert res.witnesses == [(i,) for i in range(t)] and res.truncated


def test_triangles_complete_count():
    g = complete_kpartite([2, 3, 4])
    res = brute_triangles(g)
    assert len(res) == 2 * 3 * 4
    assert not res.truncated
    assert res.witnesses == sorted(res.witnesses)


def test_triangles_truncation_boundary():
    g = complete_kpartite([2, 2, 2])
    assert len(brute_triangles(g, t=3).witnesses) == 3
    assert brute_triangles(g, t=3).truncated
    # exactly t triangles present: not flagged truncated
    res = brute_triangles(g, t=8)
    assert len(res) == 8 and not res.truncated


def test_triangles_handcount():
    # one triangle (0,2,4); edge (1,3) does not extend
    g = KPartiteGraph.from_edges([2, 2, 2],
                                 [(0, 2), (0, 4), (2, 4), (1, 3)])
    assert brute_triangles(g).witnesses == [(0, 2, 4)]


def test_kclique_lexicographic_first():
    g = complete_kpartite([2, 2, 2, 2])
    assert brute_kclique(g, 4) == (0, 2, 4, 6)


def test_kclique_none_when_edge_missing():
    g = complete_kpartite([1, 1, 1, 1])
    g.adjacency[0] &= ~(1 << 3)
    g.adjacency[3] &= ~1
    assert brute_kclique(g, 4) is None


def test_kclique_agrees_with_itertools_scan():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, [4, 4, 4, 4], 0.55)
        found = brute_kclique(g, 4)
        parts = [list(g.part_vertices(i)) for i in range(4)]
        all_cliques = [c for c in
                       (tuple([a, b, cc, d]) for a in parts[0]
                        for b in parts[1] for cc in parts[2] for d in parts[3])
                       if all(g.has_edge(x, y) for x, y in combinations(c, 2))]
        assert (found is None) == (not all_cliques)
        if all_cliques:
            assert found == min(all_cliques)


def test_hyperclique_complete_and_truncated():
    h = UniformHypergraph(3, [2, 2, 2, 2])
    for pc in combinations(range(4), 3):
        for verts in [(a, b, c) for a in h.part_vertices(pc[0])
                      for b in h.part_vertices(pc[1])
                      for c in h.part_vertices(pc[2])]:
            h.add_edge(verts)
    res = brute_hypercliques(h, 4)
    assert len(res) == 16 and not res.truncated
    res5 = brute_hypercliques(h, 4, t=5)
    assert len(res5) == 5 and res5.truncated


def test_hyperclique_missing_edge_excludes_tuples():
    h = UniformHypergraph(3, [2, 2, 2, 2])
    for pc in combinations(range(4), 3):
        for verts in [(a, b, c) for a in h.part_vertices(pc[0])
                      for b in h.part_vertices(pc[1])
                      for c in h.part_vertices(pc[2])]:
            h.add_edge(verts)
    h.edges.discard((0, 2, 4))
    res = brute_hypercliques(h, 4)
    assert len(res) == 16 - 2     # the two tuples through (0,2,4) drop out
    assert all(not (w[0] == 0 and w[1] == 2 and w[2] == 4)
               for w in res.witnesses)
