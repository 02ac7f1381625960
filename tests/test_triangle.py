"""Triangle detection and sparse listing engines."""

import random

import pytest

from cliquelab.bitops import iter_bits
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError, ResourceLimitError
from cliquelab.oracles import brute_triangles
from cliquelab.triangle import (BlockScheme, SparseFRParams, _chunks_of,
                                build_block_edge_table, default_block_size,
                                detect_four_russians, detect_naive,
                                list_sparse_four_russians, list_sparse_pivoted)
from tests.test_core import random_graph
from tests.test_oracles import complete_kpartite


def test_detect_naive_single_triangle():
    g = KPartiteGraph.from_edges([1, 1, 1], [(0, 1), (0, 2), (1, 2)])
    assert detect_naive(g) == (0, 1, 2)


def test_detect_naive_bipartite_only():
    g = KPartiteGraph([3, 3, 3])
    for u in g.part_vertices(0):
        for v in g.part_vertices(1):
            g.adjacency[u] |= 1 << v
            g.adjacency[v] |= 1 << u
    assert detect_naive(g) is None


def test_detect_naive_wrong_part_count():
    with pytest.raises(InvalidParameterError):
        detect_naive(KPartiteGraph([2, 2]))


def test_block_scheme_partitions_part():
    g = KPartiteGraph([3, 7, 5])
    scheme = BlockScheme.cover(g, 1, 3)
    assert [list(b) for b in scheme.blocks] == [[3, 4, 5], [6, 7, 8], [9]]
    scheme0 = BlockScheme.cover(g, 0, 5)
    assert [list(b) for b in scheme0.blocks] == [[0, 1, 2]]


def test_block_table_singleton_entries_match_edges():
    g = random_graph(random.Random(2), [3, 4, 4], 0.5)
    table = build_block_edge_table(g, 1)
    for bi, block2 in enumerate(table.scheme2.blocks):
        for bj, block3 in enumerate(table.scheme3.blocks):
            u, w = block2[0], block3[0]
            assert bool(table.entry(bi, bj, 1, 1)) == g.has_edge(u, w)
            assert not table.entry(bi, bj, 0, 1)
            assert not table.entry(bi, bj, 1, 0)


def test_block_table_random_queries_vs_scan():
    rng = random.Random(5)
    g = random_graph(rng, [4, 8, 8], 0.4)
    b = 4
    table = build_block_edge_table(g, b)
    for _ in range(500):
        bi = rng.randrange(len(table.scheme2.blocks))
        bj = rng.randrange(len(table.scheme3.blocks))
        block2, block3 = table.scheme2.blocks[bi], table.scheme3.blocks[bj]
        S = rng.getrandbits(len(block2))
        T = rng.getrandbits(len(block3))
        want = any(g.has_edge(block2[i], block3[j])
                   for i in iter_bits(S) for j in iter_bits(T))
        assert bool(table.entry(bi, bj, S, T)) == want


def test_block_table_guard():
    g = KPartiteGraph([2, 40, 40])
    with pytest.raises(ResourceLimitError) as exc:
        build_block_edge_table(g, 20, max_index_bits=26)
    assert exc.value.required > exc.value.allowed


def test_detect_four_russians_agrees_with_naive():
    rng = random.Random(13)
    for _ in range(60):
        sizes = [rng.randint(1, 12) for _ in range(3)]
        g = random_graph(rng, sizes, rng.choice([0.05, 0.2, 0.5, 0.9]))
        naive = detect_naive(g)
        fr = detect_four_russians(g)
        assert (naive is None) == (fr is None)
        if fr is not None:
            v1, v2, v3 = fr
            assert g.has_edge(v1, v2) and g.has_edge(v1, v3) and g.has_edge(v2, v3)


def test_detect_four_russians_planted_unique_triangle():
    rng = random.Random(0)
    g = KPartiteGraph([64, 64, 64])
    plant = (3, 64 + 17, 128 + 50)
    for a in plant:
        for b in plant:
            if a < b:
                g.adjacency[a] |= 1 << b
                g.adjacency[b] |= 1 << a
    assert detect_four_russians(g) == plant


def test_detect_four_russians_rejects_foreign_table():
    g1 = random_graph(random.Random(1), [4, 4, 4], 0.5)
    g2 = random_graph(random.Random(2), [4, 4, 4], 0.5)
    table = build_block_edge_table(g1, 2)
    with pytest.raises(InvalidParameterError):
        detect_four_russians(g2, table)


def test_default_block_size_quarter_log():
    assert default_block_size(2 ** 16) == 4
    assert default_block_size(2) == 1


def test_sparse_params_validation_and_clamp():
    with pytest.raises(InvalidParameterError):
        SparseFRParams(s=4, delta=5).validate()
    with pytest.raises(ResourceLimitError):
        SparseFRParams(s=100, delta=50, max_index_bits=26).validate()
    g = KPartiteGraph([100, 100, 100])
    p = SparseFRParams.defaults(g)
    p.validate()
    pp = SparseFRParams.paper(g)
    pp.validate()


def test_sparse_listing_complete():
    g = complete_kpartite([3, 3, 3])
    res = list_sparse_four_russians(g, None)
    assert len(res) == 27 and not res.truncated
    res5 = list_sparse_four_russians(g, 5)
    assert len(res5) == 5 and res5.truncated
    assert res5.as_set() <= res.as_set()


def test_sparse_listing_matches_oracle():
    rng = random.Random(21)
    for _ in range(40):
        sizes = [rng.randint(1, 10) for _ in range(3)]
        g = random_graph(rng, sizes, rng.choice([0.1, 0.4, 0.8]))
        want = brute_triangles(g).as_set()
        assert list_sparse_four_russians(g, None).as_set() == want
        assert list_sparse_pivoted(g, None).as_set() == want


def test_sparse_pivoted_empty_v2v3():
    g = KPartiteGraph([3, 3, 3])
    for u in g.part_vertices(0):
        for v in g.part_vertices(1):
            g.adjacency[u] |= 1 << v
            g.adjacency[v] |= 1 << u
    assert len(list_sparse_pivoted(g, None)) == 0


def test_chunk_partition_property():
    rng = random.Random(4)
    g = random_graph(rng, [8, 12, 12], 0.6)
    audit = []
    params = SparseFRParams(s=12, delta=3)
    list_sparse_four_russians(g, None, params, chunk_audit=audit)
    assert audit
    for block_bits, chunks, delta in audit:
        union = 0
        for c in chunks:
            assert c.bit_count() <= delta
            assert union & c == 0
            union |= c
        assert union == block_bits
        assert len(chunks) == -(-block_bits.bit_count() // delta)


def test_chunks_of_exact():
    assert _chunks_of(0b1011101, 2) == [0b0000101, 0b0011000, 0b1000000]
    assert _chunks_of(0, 3) == []


def test_listing_witnesses_in_canonical_part_order():
    g = random_graph(random.Random(8), [5, 5, 5], 0.6)
    for res in (list_sparse_four_russians(g, None), list_sparse_pivoted(g, None)):
        for (a, b, c) in res.witnesses:
            assert g.part_of(a) == 0 and g.part_of(b) == 1 and g.part_of(c) == 2
