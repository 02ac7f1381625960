"""Graph/hypergraph representation and vertex-mask view behaviour."""

import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquelab.bitops import (iter_bits, mask_from_vertices, mask_range,
                              split_bits)
from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.errors import InvalidParameterError
from cliquelab.generate import GenSpec, generate
from cliquelab.kclique import find_heavy_vertex


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


@given(st.integers(min_value=0, max_value=(1 << 200) - 1),
       st.integers(min_value=1, max_value=12))
def test_split_bits_property(mask, size):
    chunks = split_bits(mask, size)
    union = 0
    for c in chunks:
        assert c and union & c == 0
        assert union.bit_length() <= (c & -c).bit_length() - 1  # ascending
        union |= c
    assert union == mask
    assert all(c.bit_count() == size for c in chunks[:-1])
    assert all(c.bit_count() <= size for c in chunks)
    assert len(chunks) == -(-mask.bit_count() // size)


def test_split_bits_exact():
    assert split_bits(0b1011101, 2) == [0b0000101, 0b0011000, 0b1000000]
    assert split_bits(0, 3) == []
    with pytest.raises(InvalidParameterError):
        split_bits(0b11, 0)


def test_part_layout():
    g = KPartiteGraph([2, 3, 1])
    assert g.k == 3 and g.n_total == 6
    assert list(g.part_vertices(1)) == [2, 3, 4]
    assert [g.part_of(v) for v in range(6)] == [0, 0, 1, 1, 1, 2]
    assert g.part_masks[1] == 0b011100
    view = g.restrict([0b10, 0b1000, 0])
    h = UniformHypergraph(2, [0, 2, 0, 1, 0])
    assert h.part_start == [0, 0, 2, 2, 3] and h.n_total == 3
    assert h.part_masks == [0, 0b11, 0, 0b100, 0]
    assert [h.part_of(v) for v in range(3)] == [1, 1, 3]
    assert list(h.part_vertices(3)) == [2]
    # every id outside the structure raises the same typed error
    for layout, outside in ((g, (-1, 6, 7, 1 << 70)),
                            (view, (-1, 0, 2, 5, 6, 1 << 70)),
                            (h, (-1, 3, 1 << 70))):
        for v in outside:
            with pytest.raises(InvalidParameterError):
                layout.part_of(v)


@pytest.mark.parametrize("make", [KPartiteGraph, partial(UniformHypergraph, 2)],
                         ids=["graph", "hypergraph"])
def test_negative_part_size_rejected(make):
    for sizes in ([-1, 2, 2], [2, -1, 2], [3, 0, -3]):
        with pytest.raises(InvalidParameterError, match="negative part size"):
            make(sizes)


@pytest.mark.parametrize("make, per_vertex", [
    (KPartiteGraph, 10),        # its adjacency list alone takes 8
    (partial(UniformHypergraph, 3), 1),
], ids=["graph", "hypergraph"])
def test_construction_allocates_no_per_vertex_part_table(make, per_vertex):
    sizes = [1 << 20] * 4
    tracemalloc.start()
    try:
        obj = make(sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj.n_total == 1 << 22
    assert peak < per_vertex * obj.n_total


def test_from_edges_rejects_intra_part():
    with pytest.raises(InvalidParameterError):
        KPartiteGraph.from_edges([2, 2], [(0, 1)])
    with pytest.raises(InvalidParameterError):
        KPartiteGraph.from_edges([2, 2], [(0, 9)])


def test_from_edges_builds_generated_rows():
    g = generate(GenSpec("gnp-kpartite", 9, 3, 0.5, 4)).graph
    edges = list(g.edges())
    random.Random(1).shuffle(edges)
    # each edge twice, once per orientation: repeats are harmless
    twin = KPartiteGraph.from_edges(g.part_sizes,
                                    edges + [(v, u) for u, v in edges])
    assert twin.adjacency == g.adjacency
    twin.validate()


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


def test_find_heavy_vertex_products():
    # Part 0 is 0..3, part 1 is {4, 5}, part 2 is {6, 7}.  Degree
    # products into parts 1 and 2: 1, 2, 4, 4; the cap is 2 * 2 = 4.
    g = KPartiteGraph.from_edges([4, 2, 2], [
        (0, 4), (0, 6),
        (1, 4), (1, 5), (1, 6),
        (2, 4), (2, 5), (2, 6), (2, 7),
        (3, 4), (3, 5), (3, 6), (3, 7)])
    p0, p1, p2 = g.part_masks
    for a, b in ((p1, p2), (p2, p1)):       # either order of parts 1 and 2
        whole = g.restrict([p0, a, b])
        assert find_heavy_vertex(whole, 0.2) == 2      # tie: lowest id
        no_two = g.restrict([p0 & ~(1 << 2), a, b])
        assert find_heavy_vertex(no_two, 0.2) == 3     # maximum product
        light = g.restrict([0b0011, a, b])
        assert find_heavy_vertex(light, 0.4) == 1      # 2 >= 0.4 * 4
        assert find_heavy_vertex(light, 0.6) is None   # 2 < 0.6 * 4
    assert find_heavy_vertex(g, 0.2) == 2


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
