"""Triangle detection and sparse listing engines."""

import random
from collections import Counter

import pytest

from cliquelab.bitops import iter_bits, split_bits
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError, ResourceLimitError
from cliquelab.oracles import brute_triangles
from cliquelab.triangle import (block_table_bytes, build_block_edge_table,
                                default_block_size, detect_four_russians,
                                detect_naive, list_row_and)
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


def first_by_v2(triangles):
    """The triangle that ``detect_naive`` returns: smallest by (v2, v3, v1)."""
    return min(triangles, key=lambda w: (w[1], w[2], w[0]), default=None)


# Empty parts, single vertices and p in {0, 1}, beside mid densities.  The
# last two sizes give part-1 masks and part-2 rows of 8 or more bits, which
# ``bits_to_list`` walks by bytes; the view drops every third vertex.
@pytest.mark.parametrize("sizes", [[0, 4, 4], [4, 0, 4], [4, 4, 0], [1, 1, 1],
                                   [5, 7, 10], [10, 1, 7], [3, 24, 40],
                                   [1, 9, 64]])
@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
def test_detect_naive_returns_first_triangle_by_v2_v3_v1(sizes, p):
    rng = random.Random(len(sizes) * 97 + sum(sizes) + int(p * 10))
    for _ in range(6):
        g = random_graph(rng, sizes, p)
        view = g.restrict(sum(1 << v for v in range(g.n_total) if v % 3))
        for h in (g, view):
            assert detect_naive(h) == first_by_v2(brute_triangles(h).witnesses)


def test_detect_naive_wrong_part_count():
    with pytest.raises(InvalidParameterError):
        detect_naive(KPartiteGraph([2, 2]))


def test_block_scheme_partitions_part():
    g = KPartiteGraph([3, 7, 5])
    table = build_block_edge_table(g, 3)
    assert [list(iter_bits(b)) for b in table.blocks] == [[3, 4, 5], [6, 7, 8], [9]]
    blocks0 = split_bits(g.part_masks[0], 5)
    assert [list(iter_bits(b)) for b in blocks0] == [[0, 1, 2]]


def reach_by_scan(g, S):
    want = 0
    for u in iter_bits(S):
        want |= g.adjacency[u] & g.part_masks[2]
    return want


def test_block_table_singleton_entries_match_edges():
    g = random_graph(random.Random(2), [3, 4, 4], 0.5)
    table = build_block_edge_table(g, 1)
    assert table.blocks == [1 << u for u in g.part_vertices(1)]
    assert table.shifts == list(g.part_vertices(1))
    for block, sub in zip(table.blocks, table.reach):
        assert sub == {0: 0, 1: reach_by_scan(g, block)}


def test_block_table_random_queries_vs_scan():
    rng = random.Random(5)
    g = random_graph(rng, [4, 9, 8], 0.4)
    table = build_block_edge_table(g, 4)
    assert [blk.bit_count() for blk in table.blocks] == [4, 4, 1]
    for _ in range(500):
        i = rng.randrange(len(table.blocks))
        S = table.blocks[i] & rng.getrandbits(len(g.adjacency))
        assert table.reach[i][S >> table.shifts[i]] == reach_by_scan(g, S)
    for block, sub in zip(table.blocks, table.reach):
        assert len(sub) == 1 << block.bit_count()


def test_block_table_guard():
    g = KPartiteGraph([2, 40, 40])
    with pytest.raises(ResourceLimitError) as exc:
        build_block_edge_table(g, 20)
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


def test_four_russians_builds_its_table_from_the_queried_graph():
    # A is triangle-free; B moves two of its edges and closes (0, 64, 189).
    # Python hashes ints modulo 2^61 - 1, so bits i and i + 61 of a row
    # hash alike, and hash((part masks, rows)) is equal for A and B: a
    # table check by that hash could not tell them apart.
    edges_a = [(0, 64), (0, 189), (64, 128), (125, 189)]
    edges_b = [(0, 64), (0, 189), (64, 189), (125, 128)]
    a = KPartiteGraph.from_edges([64] * 3, edges_a)
    b = KPartiteGraph.from_edges([64] * 3, edges_b)
    assert hash((tuple(a.part_masks), tuple(a.adjacency))) == \
        hash((tuple(b.part_masks), tuple(b.adjacency)))
    for bs in (1, 3, 6):
        assert detect_four_russians(a, bs) is None
        assert detect_four_russians(b, bs) == detect_naive(b) == (0, 64, 189)


def test_default_block_size_half_log():
    # b = floor(log2(n_total) / 2) while the tables fit the budget
    assert default_block_size(KPartiteGraph([1, 1, 2 ** 16 - 2])) == 8
    assert default_block_size(KPartiteGraph([384] * 3)) == 5
    assert default_block_size(KPartiteGraph([96] * 3)) == 4
    assert default_block_size(KPartiteGraph([1, 1, 0])) == 1
    assert default_block_size(KPartiteGraph([0, 0, 0])) == 1
    # 8192 per part: b = 7 and b = 6 exceed the 256 MB default budget
    g = KPartiteGraph([8192] * 3)
    assert block_table_bytes(g, 6) > 1 << 28 >= block_table_bytes(g, 5)
    assert default_block_size(g) == 5


def test_default_block_size_steps_down_to_budget(monkeypatch):
    g = random_graph(random.Random(9), [20, 24, 20], 0.3)
    b = default_block_size(g)
    want = detect_four_russians(g)
    assert want is not None and detect_naive(g) is not None
    low, high = block_table_bytes(g, 1), block_table_bytes(g, b)
    assert b > 1 and low < high
    monkeypatch.setenv("CLIQUELAB_MAX_TABLE_BYTES", str((low + high) // 2))
    assert 1 <= default_block_size(g) < b
    assert detect_four_russians(g) == want
    monkeypatch.setenv("CLIQUELAB_MAX_TABLE_BYTES", "10")
    with pytest.raises(ResourceLimitError):
        detect_four_russians(g)


def dense_triangle_free(n):
    """Parts 0-1 and 0-(lower half of 2) complete, 1-(upper half of 2)
    complete: every pair of parts is dense, yet no triangle exists."""
    g = KPartiteGraph([n, n, n])
    lower = g.part_vertices(2)[:n // 2]
    upper = g.part_vertices(2)[n // 2:]
    for a, b in ([(u, v) for u in g.part_vertices(0) for v in g.part_vertices(1)]
                 + [(u, w) for u in g.part_vertices(0) for w in lower]
                 + [(v, w) for v in g.part_vertices(1) for w in upper]):
        g.adjacency[a] |= 1 << b
        g.adjacency[b] |= 1 << a
    return g


def fr_cases():
    rng = random.Random(17)
    for sizes in ([0, 5, 5], [5, 0, 5], [5, 5, 0], [1, 1, 1], [7, 11, 13],
                  [12, 17, 9]):
        for p in (0.0, 0.1, 0.5, 1.0):
            yield random_graph(rng, sizes, p)
    yield dense_triangle_free(10)
    # one added part-1 edge into the lower half of part 2 closes a
    # triangle with every part-0 vertex
    planted = dense_triangle_free(10)
    v, w = planted.part_vertices(1)[7], planted.part_vertices(2)[3]
    planted.adjacency[v] |= 1 << w
    planted.adjacency[w] |= 1 << v
    yield planted


def test_four_russians_witness_independent_of_block_size():
    for g in fr_cases():
        want = detect_four_russians(g)
        assert (want is None) == (detect_naive(g) is None)
        if want is not None:
            v1, v2, v3 = want
            assert g.has_edge(v1, v2) and g.has_edge(v1, v3) and g.has_edge(v2, v3)
        for b in range(1, 9):
            assert detect_four_russians(g, b) == want


def test_sparse_listing_complete():
    g = complete_kpartite([3, 3, 3])
    res = list_row_and(g, None)
    assert len(res) == 27 and not res.truncated
    res5 = list_row_and(g, 5)
    assert len(res5) == 5 and res5.truncated
    assert res5.as_set() <= res.as_set()


def test_sparse_listing_matches_oracle():
    rng = random.Random(21)
    for _ in range(40):
        sizes = [rng.randint(1, 10) for _ in range(3)]
        g = random_graph(rng, sizes, rng.choice([0.1, 0.4, 0.8]))
        assert list_row_and(g, None).as_set() == \
            brute_triangles(g).as_set()


def test_sparse_listing_empty_v2v3():
    # V1-V2 edges only: no V2 vertex has a V3 neighbour, nothing to list
    g = KPartiteGraph([3, 3, 3])
    for u in g.part_vertices(0):
        for v in g.part_vertices(1):
            g.adjacency[u] |= 1 << v
            g.adjacency[v] |= 1 << u
    assert len(list_row_and(g, None)) == 0


class CountingRows(list):
    """Adjacency rows that count how often each row is read by index."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def test_sparse_listing_reads_each_dead_v2_row_once():
    # V1 is joined to all of V2 and V3, but only V2 vertices 4-6 have V3
    # neighbours.  Rows 7-9 close no triangle: the lister drops them up
    # front, where the bare row-AND loop reads each once per V1 vertex.
    v1, v2, v3 = range(0, 4), range(4, 10), range(10, 14)
    g = KPartiteGraph.from_edges(
        [4, 6, 4], [(a, b) for a in v1 for b in v2]
        + [(a, c) for a in v1 for c in v3]
        + [(b, c) for b in v2[:3] for c in v3])
    rows = CountingRows(g.adjacency)
    res = list_row_and(KPartiteGraph(g.part_sizes, rows), None)
    assert res.witnesses == brute_triangles(g).witnesses
    assert len(res) == 48 and not res.truncated
    assert all(rows.reads[b] <= 1 for b in v2[3:])


def test_sparse_listing_order_and_prefix():
    # The lister emits lexicographically in (v1, v2, v3), the oracle's
    # order; a t-cutoff returns the first t of the full list.
    rng = random.Random(86)
    for g in (random_graph(rng, [86, 86, 86], 0.3),
              random_graph(rng, [7, 9, 6], 0.5)):
        full = list_row_and(g, None).witnesses
        assert full == sorted(full) == brute_triangles(g).witnesses
        for t in (0, 1, 7, len(full) // 2, len(full) - 1):
            res = list_row_and(g, t)
            assert res.witnesses == full[:t] and res.truncated
        assert not list_row_and(g, len(full)).truncated


def test_sparse_listing_large_part():
    # one part of 8192 vertices, one triangle
    g = KPartiteGraph.from_edges([1, 8192, 1],
                                 [(0, 77), (0, 8193), (77, 8193)])
    res = list_row_and(g, None)
    assert res.witnesses == [(0, 77, 8193)] and not res.truncated


def test_listing_witnesses_in_canonical_part_order():
    g = random_graph(random.Random(8), [5, 5, 5], 0.6)
    for (a, b, c) in list_row_and(g, None).witnesses:
        assert g.part_of(a) == 0 and g.part_of(b) == 1 and g.part_of(c) == 2
