"""Graph/hypergraph representation and vertex-mask view behaviour."""

import random

import pytest

from cliquelab.bitops import iter_bits, mask_from_vertices, mask_range
from cliquelab.core import (KPartiteGraph, UniformHypergraph, degree_product,
                            kpartify, neighbors_in_part)
from cliquelab.errors import InvalidParameterError


def random_graph(rng, sizes, p):
    g = KPartiteGraph(sizes)
    n = g.n_total
    for u in range(n):
        for v in range(u + 1, n):
            if g.part_of(u) != g.part_of(v) and rng.random() < p:
                g.adjacency[u] |= 1 << v
                g.adjacency[v] |= 1 << u
    return g


def test_bitops_basics():
    assert mask_range(2, 5) == 0b11100
    assert mask_from_vertices([0, 3]) == 0b1001
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(0)) == []


def test_part_layout():
    g = KPartiteGraph([2, 3, 1])
    assert g.k == 3 and g.n_total == 6
    assert list(g.part_vertices(1)) == [2, 3, 4]
    assert [g.part_of(v) for v in range(6)] == [0, 0, 1, 1, 1, 2]
    assert g.part_masks[1] == 0b011100


def test_from_edges_rejects_intra_part():
    with pytest.raises(InvalidParameterError):
        KPartiteGraph.from_edges([2, 2], [(0, 1)])
    with pytest.raises(InvalidParameterError):
        KPartiteGraph.from_edges([2, 2], [(0, 9)])


def test_validate_catches_asymmetry():
    g = KPartiteGraph([1, 1])
    g.adjacency[0] = 0b10   # edge 0->1 without the mirror
    with pytest.raises(InvalidParameterError):
        g.validate()


def test_edges_and_count():
    g = KPartiteGraph.from_edges([2, 2], [(0, 2), (1, 3), (0, 3)])
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert g.edge_count() == 3
    g.validate()


def test_restrict_keeps_global_ids_and_shares_rows():
    rng = random.Random(7)
    g = random_graph(rng, [4, 4, 4], 0.5)
    keep = [mask_from_vertices(s) for s in ({1, 3}, {5, 6}, {9, 11})]
    sub = g.restrict(keep)
    assert sub.adjacency is g.adjacency
    assert sub.part_sizes == [2, 2, 2] and sub.n_total == 6
    assert sub.part_start is None
    assert [list(sub.part_vertices(i)) for i in range(3)] == \
        [[1, 3], [5, 6], [9, 11]]
    assert [sub.part_of(v) for v in (1, 3, 5, 6, 9, 11)] == [0, 0, 1, 1, 2, 2]
    kept = {1, 3, 5, 6, 9, 11}
    assert sorted(sub.edges()) == [(u, v) for u, v in g.edges()
                                   if u in kept and v in kept]
    assert sub.edge_count() == len(list(sub.edges()))
    sub.validate()


def test_restrict_empty_part():
    g = random_graph(random.Random(1), [3, 3, 3], 0.5)
    sub = g.restrict([0b11, 0, 1 << 6])
    assert sub.part_sizes == [2, 0, 1]
    assert list(sub.part_vertices(1)) == []


def test_subset_family_validation():
    g = KPartiteGraph([2, 2])
    with pytest.raises(InvalidParameterError):
        g.restrict([0b101])                 # spans two parts
    with pytest.raises(InvalidParameterError):
        g.restrict([0b1, 0b1])              # overlap
    with pytest.raises(InvalidParameterError):
        g.restrict([1 << 4])                # outside the graph
    view = g.restrict([0b1000, 0b1])        # parts may come in any order
    with pytest.raises(InvalidParameterError):
        view.restrict([0b10])               # inside g, outside the view
    with pytest.raises(InvalidParameterError):
        view.part_of(1)


def test_neighbors_and_degree_product():
    g = KPartiteGraph.from_edges([1, 2, 2], [(0, 1), (0, 2), (0, 3)])
    assert neighbors_in_part(g, 0, 1).degree == 2
    assert neighbors_in_part(g, 0, 2).vertices() == [3]
    assert degree_product(g, 0) == 2


def test_kpartify_has_cross_clique_iff_clique():
    # triangle 0-1-2 plus isolated 3
    adj = [0b0110, 0b0101, 0b0011, 0]
    g = kpartify(adj, 3)
    assert g.part_sizes == [4, 4, 4]
    assert g.has_edge(0, 5) and g.has_edge(0, 6)
    assert not g.has_edge(0, 4)     # same source vertex, no self-pairing
    g.validate()


def test_hypergraph_edge_validation():
    h = UniformHypergraph(3, [2, 2, 2, 2])
    h.add_edge((0, 2, 4))
    assert h.has_edge((4, 0, 2))
    with pytest.raises(InvalidParameterError):
        h.add_edge((0, 1, 4))       # two vertices in part 0
    with pytest.raises(InvalidParameterError):
        h.add_edge((0, 2))          # wrong arity


def test_is_hyperclique():
    h = UniformHypergraph(3, [1, 1, 1, 1])
    for e in [(0, 1, 2), (0, 1, 3), (0, 2, 3)]:
        h.add_edge(e)
    assert not h.is_hyperclique((0, 1, 2, 3))
    h.add_edge((1, 2, 3))
    assert h.is_hyperclique((0, 1, 2, 3))
    assert h.is_hyperclique((0, 1, 2))
