"""Hyperclique compact representation, tables, and listing."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquelab import hyperclique
from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.errors import InvalidParameterError, ResourceLimitError
from cliquelab.generate import GenSpec, generate
from cliquelab.hyperclique import (BlockGeometry, HypercliqueParams,
                                   _link_masks, build_tables,
                                   choose_block_size, compress_all,
                                   detect_hyperclique, formula_block_side,
                                   list_hypercliques)
from cliquelab.kclique import detect_kclique
from cliquelab.oracles import brute_hypercliques, brute_kclique


def complete_hypergraph(r, sizes):
    h = UniformHypergraph(r, sizes)
    k = len(sizes)
    for pc in combinations(range(k), r):
        for verts in product(*[h.part_vertices(i) for i in pc]):
            h.add_edge(verts)
    return h


def part0_subgraph(h, v):
    """G_v of a part-0 vertex v, as the table engine reads it: the tails
    e[1:] of the hyperedges that start at v."""
    return {e[1:] for e in h.edges if e[0] == v}


def test_adjacency_subgraph_single_edge():
    # the link map holds the edge once, under its head, with its last
    # vertex; G_v comes from the edge's tail
    h = UniformHypergraph(3, [2, 2, 2, 2])
    h.add_edge((0, 2, 4))
    assert _link_masks(h) == {(0, 2): 1 << 4}
    assert part0_subgraph(h, 0) == {(2, 4)}
    assert part0_subgraph(h, 1) == set()


def test_adjacency_subgraph_matches_filter_scan():
    for seed in range(5):
        h = generate(GenSpec("gnp-hypergraph", 5, 4, 0.4, seed, r=3)).graph
        links = _link_masks(h)
        # one bit per hyperedge, not one per (r-1)-subset of it
        assert sum(mask.bit_count() for mask in links.values()) \
            == len(h.edges)
        assert set(links) == {e[:-1] for e in h.edges}
        # each mask holds exactly the later vertices completing its key
        for sub, mask in links.items():
            assert mask == sum(1 << w for w in range(h.n_total)
                               if w > sub[-1] and sub + (w,) in h.edges)
        for v in h.part_vertices(0):
            want = {tuple(u for u in e if u != v) for e in h.edges if v in e}
            assert part0_subgraph(h, v) == want


def test_choose_block_size_arithmetic():
    # log2 n = 96, k=4, r=3: s = sqrt(96/6) = 4, L = 3*16 = 48 = 96/2
    p = choose_block_size(2 ** 96, 4, 3)
    assert p.s == 4 and p.L == 48
    # k=4, r=2: s = log2 n / 6 and L = 3 s = half of log2 n
    p = choose_block_size(2 ** 36, 4, 2)
    assert p.s == 6 and p.L == 18
    # floor at 1
    p = choose_block_size(256, 4, 3)
    assert p.s == 1 and p.L == 3


def test_choose_block_size_halving_identity():
    # with the real-valued s from the formula, L is exactly half of log2 n
    for (k, r) in ((4, 3), (5, 3), (5, 4), (4, 2)):
        for log_n in (10, 14, 20):
            s_real = formula_block_side(2 ** log_n, k, r)
            L_real = math.comb(k - 1, r - 1) * s_real ** (r - 1)
            assert L_real == pytest.approx(log_n / 2)


def test_choose_block_size_guard():
    with pytest.raises(InvalidParameterError):
        choose_block_size(100, 4, 4)


def test_segment_encoding_row_major_example():
    # s=2, r-1=2: edges at local (0,0) and (1,1) take segment bits 0 and 3;
    # the first index-set segment sits in the low bits of the rep
    h = UniformHypergraph(3, [1, 2, 2, 1])
    geo = BlockGeometry(h, HypercliqueParams(s=2, k=4, r=3))
    # locals (0,0) and (1,1) in parts 1 and 2
    assert geo.tuple_bit((1, 3)) == ((0, 1), (0, 0), 0)
    assert geo.tuple_bit((2, 4)) == ((0, 1), (0, 0), 3)


def blocks_of(h, s):
    """Per slot (part p >= 1 is slot p - 1), its blocks of s ids in order,
    the last one short, read from the part layout."""
    return [[range(lo, min(lo + s, start + size))
             for lo in range(start, start + size, s)]
            for start, size in zip(h.part_start[1:], h.part_sizes[1:])]


def test_tables_edgeless_and_complete():
    params = HypercliqueParams(s=1, k=4, r=3)
    empty = UniformHypergraph(3, [2, 2, 2, 2])
    tables = build_tables(empty, params)
    assert not tables.entries

    full = complete_hypergraph(3, [2, 2, 2, 2])
    tables = build_tables(full, params)
    for j in product(range(2), repeat=3):
        hits = tables.entry(j, (1 << params.L) - 1)
        assert len(hits) == 1       # s=1: one candidate tuple per block tuple


def test_table_entries_match_exhaustive_check():
    rng = random.Random(8)
    h = generate(GenSpec("gnp-hypergraph", 4, 4, 0.5, 3, r=3)).graph
    params = HypercliqueParams(s=2, k=4, r=3)
    tables = build_tables(h, params)
    geo = tables.geometry
    blocks = blocks_of(h, 2)
    for _ in range(300):
        j = tuple(rng.randrange(len(blocks[slot])) for slot in range(3))
        rep = rng.getrandbits(params.L)
        got = set(tables.entry(j, rep))
        # the rep holds a pair iff its bit is set; bits of no pair of j
        # (padding) hold nothing
        want = set()
        for cand in product(*[blocks[slot][j[slot]] for slot in range(3)]):
            if h.is_hyperclique(cand) and all(
                    rep >> geo.tuple_bit(sub)[2] & 1
                    for sub in combinations(cand, 2)):
                want.add(cand)
        assert got == want


def test_table_memory_guard():
    h = complete_hypergraph(3, [40, 40, 40, 40])
    params = HypercliqueParams(s=2, k=4, r=3)
    import os
    os.environ["CLIQUELAB_MAX_TABLE_BYTES"] = "1000"
    try:
        with pytest.raises(ResourceLimitError):
            build_tables(h, params)
    finally:
        del os.environ["CLIQUELAB_MAX_TABLE_BYTES"]


def test_compress_all_matches_direct_encoding():
    for seed in range(4):
        h = generate(GenSpec("gnp-hypergraph", 4, 4, 0.4, seed, r=3)).graph
        params = HypercliqueParams(s=2, k=4, r=3)
        tables = build_tables(h, params)
        geo = tables.geometry
        cache = compress_all(tables)
        for v in h.part_vertices(0):
            gv_edges = [tuple(u for u in e if u != v)
                        for e in h.edges if v in e]
            for j in product(*[range(len(b)) for b in blocks_of(h, 2)]):
                direct = 0
                for e in gv_edges:
                    I, jI, bit = geo.tuple_bit(e)
                    if jI == tuple(j[slot] for slot in I):
                        direct |= 1 << bit
                rep = 0
                for I in geo.index_sets:
                    jI = tuple(j[slot] for slot in I)
                    mask, segs = cache.get((I, jI), (0, {}))
                    assert (mask >> v) & 1 == (v in segs)
                    rep |= segs.get(v, 0)
                assert rep == direct


def _count_builds(monkeypatch):
    """Count BlockGeometry and _link_masks calls, and tuple_bit placements
    per tuple."""
    calls, placed = Counter(), Counter()
    for name in ("BlockGeometry", "_link_masks"):
        def counting(*args, real=getattr(hyperclique, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(hyperclique, name, counting)

    def counting_bit(geo, verts, real=BlockGeometry.tuple_bit):
        placed[tuple(verts)] += 1
        return real(geo, verts)
    monkeypatch.setattr(BlockGeometry, "tuple_bit", counting_bit)
    return calls, placed


def _count_cases():
    planted = generate(GenSpec("planted-hyperclique", 6, 4, 0.4, 3, r=3,
                               plant_count=1)).graph
    return [(complete_hypergraph(3, [2, 2, 2, 2]), 16),
            (planted, len(brute_hypercliques(planted, 4)))]


def test_listing_builds_one_geometry_and_one_link_map(monkeypatch):
    # the tables, the segment cache and the probe plan share one geometry
    # and one set of link masks, and place each (r-1)-tuple of parts
    # 1..k-1 at most once: exactly the tails of the part-0 hyperedges,
    # which the segment cache reads, and the pairs of the table
    # candidates, which their required bits read
    calls, placed = _count_builds(monkeypatch)
    for h, hits in _count_cases():
        tails = {e[1:] for e in h.edges if h.part_of(e[0]) == 0}
        pairs = {sub for cand in product(*map(h.part_vertices, (1, 2, 3)))
                 if h.is_hyperclique(cand)
                 for sub in combinations(cand, 2)}
        for s in (1, 2):
            calls.clear()
            placed.clear()
            params = HypercliqueParams(s=s, k=4, r=3)
            assert len(list_hypercliques(h, 4, params=params)) == hits
            assert calls == {"BlockGeometry": 1, "_link_masks": 1}
            assert placed and max(placed.values()) == 1
            assert set(placed) == tails | pairs
            assert all(h.part_of(u) > 0 for sub in placed for u in sub)


def test_default_listing_builds_link_masks_once_and_no_geometry(monkeypatch):
    # the DFS reads the link masks alone: no geometry, no placement
    calls, placed = _count_builds(monkeypatch)
    for h, hits in _count_cases():
        calls.clear()
        assert len(list_hypercliques(h, 4)) == hits
        assert calls == {"_link_masks": 1}
        assert not placed


def test_dfs_matches_table_engine_order_at_s1():
    for n in (10, 24):
        for seed in (1, 2):
            h = generate(GenSpec("planted-hyperclique", n, 4, 0.4, seed, r=3,
                                 plant_count=1)).graph
            table = list_hypercliques(h, 4, params=HypercliqueParams(1, 4, 3))
            default = list_hypercliques(h, 4)
            assert default.witnesses == table.witnesses
            assert default.witnesses


def test_listing_complete_16_and_truncated():
    h = complete_hypergraph(3, [2, 2, 2, 2])
    res = list_hypercliques(h, 4)
    assert len(res) == 16 and not res.truncated
    res5 = list_hypercliques(h, 4, t=5)
    assert len(res5) == 5 and res5.truncated
    assert res5.as_set() <= res.as_set()


def test_large_part0_costs_nothing_per_vertex():
    # 2^18 - 6 part-0 vertices, one 4-hyperclique at the top of part 0 and
    # two edges of vertex 0 that close none: the geometry is read from the
    # part layout and the probe visits only vertices with a segment, so the
    # listing allocates nothing per part-0 vertex
    n0 = (1 << 18) - 6
    a, b, c, d = n0 - 1, n0 + 1, n0 + 3, n0 + 5
    h = UniformHypergraph(3, [n0, 2, 2, 2],
                          list(combinations((a, b, c, d), 3))
                          + [(0, n0, n0 + 2), (0, n0, n0 + 4)])
    tracemalloc.start()
    try:
        res = list_hypercliques(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.witnesses == [(a, b, c, d)] and not res.truncated
    assert peak < 2_000_000, peak


def test_listing_missing_edge_excludes():
    h = complete_hypergraph(3, [2, 2, 2, 2])
    h.edges.discard((0, 2, 4))
    res = list_hypercliques(h, 4)
    assert len(res) == 14
    for w in res.witnesses:
        assert not {0, 2, 4} <= set(w)


def test_listing_matches_oracle_random():
    rng = random.Random(19)
    for seed in range(15):
        h = generate(GenSpec("gnp-hypergraph", rng.randint(3, 6), 4,
                             rng.choice([0.3, 0.6, 0.9]), seed, r=3)).graph
        want = brute_hypercliques(h, 4).as_set()
        assert list_hypercliques(h, 4).as_set() == want


def test_observation_subgraph_equivalence():
    # (v_1..v_k) is a hyperclique iff G_v holds every pair of the rest and
    # the rest is one, and iff each vertex lies in the links of every pair
    # before it, which is all the DFS reads
    rng = random.Random(30)
    for seed in range(5):
        h = generate(GenSpec("gnp-hypergraph", 4, 4, 0.6, seed, r=3)).graph
        links = _link_masks(h)
        for _ in range(200):
            verts = tuple(h.part_vertices(i)[rng.randrange(h.part_sizes[i])]
                          for i in range(4))
            lhs = h.is_hyperclique(verts)
            gv = part0_subgraph(h, verts[0])
            rest = verts[1:]
            rhs = (set(combinations(rest, 2)) <= gv
                   and h.is_hyperclique(rest))
            assert lhs == rhs
            assert lhs == all(links.get(sub, 0) >> verts[d] & 1
                              for d in range(2, 4)
                              for sub in combinations(verts[:d], 2))


def test_r2_cross_checks_kclique_module():
    for seed in range(6):
        h = generate(GenSpec("gnp-hypergraph", 6, 4, 0.5, seed, r=2)).graph
        g = KPartiteGraph.from_edges(h.part_sizes, sorted(h.edges))
        want = brute_kclique(g, 4) is not None
        assert detect_hyperclique(h, 4) == want
        assert detect_kclique(g, 4) == want


def test_detect_trivial_cases():
    assert detect_hyperclique(complete_hypergraph(3, [2, 2, 2, 2]), 4)
    assert not detect_hyperclique(UniformHypergraph(3, [2, 2, 2, 2]), 4)


@st.composite
def hyper_cases(draw):
    """Random hypergraph with empty, single-vertex and short-block parts,
    a block side s and a threshold t at the edges of the oracle's count."""
    k = draw(st.sampled_from([3, 4, 5]))
    r = draw(st.integers(2, k - 1))
    sizes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    p = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    h = UniformHypergraph(r, sizes)
    for pc in combinations(range(k), r):
        for verts in product(*[h.part_vertices(i) for i in pc]):
            if rng.random() < p:
                h.add_edge(verts)
    total = len(brute_hypercliques(h, k))
    return h, draw(st.sampled_from([1, 2, 3])), draw(
        st.sampled_from([0, 1, 2, max(0, total - 1), total, None]))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hyper_cases())
def test_listing_order_matches_sorted_oracle(case):
    h, s, t = case
    k = h.k
    params = HypercliqueParams(s=s, k=k, r=h.r)

    def order(w):
        rest = w[1:]
        blocks = tuple((u - h.part_start[i + 1]) // s
                       for i, u in enumerate(rest))
        return (w[0], blocks, rest)

    want = sorted(brute_hypercliques(h, k).as_set(), key=order)
    res = list_hypercliques(h, k, t=t, params=params)
    assert res.witnesses == want[:t]
    assert res.truncated == (t is not None and len(want) > t)
    assert detect_hyperclique(h, k, params) == bool(want)
    tables = build_tables(h, params)
    assert all(len(lst) <= s ** (k - 1) for lst in tables.entries.values())


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hyper_cases())
def test_default_listing_is_sorted_oracle_prefix(case):
    h, _, t = case
    want = sorted(brute_hypercliques(h, h.k).as_set())
    res = list_hypercliques(h, h.k, t=t)
    assert res.witnesses == want[:t]
    assert res.truncated == (t is not None and len(want) > t)
    assert detect_hyperclique(h, h.k) == bool(want)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hyper_cases())
def test_tuple_bit_is_injective_inside_segments(case):
    # on every block tuple (an empty part has one empty block), distinct
    # cross-slot (r-1)-tuples take distinct bits, each in its index set's
    # segment and below L, and the block indices of j
    h, s, _ = case
    params = HypercliqueParams(s=s, k=h.k, r=h.r)
    geo = BlockGeometry(h, params)
    width = params.segment_length
    for j in product(*[list(enumerate(b)) or [(0, range(0))]
                       for b in blocks_of(h, s)]):
        seen = {}
        for I in params.index_sets:
            for verts in product(*[j[slot][1] for slot in I]):
                got_I, jI, bit = geo.tuple_bit(verts)
                assert got_I == I
                assert jI == tuple(j[slot][0] for slot in I)
                assert geo.seg_offset[I] <= bit < geo.seg_offset[I] + width
                assert bit < params.L
                assert seen.setdefault(bit, verts) == verts
