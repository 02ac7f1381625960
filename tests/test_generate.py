"""Counter-based RNG and instance generators."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.generate import GenSpec, _gnp_rows, generate
from cliquelab.rng import CounterRng, splitmix64, splitmix64_at


def test_splitmix64_pure_function_of_seed_and_counter():
    assert splitmix64(1, 5) == splitmix64(1, 5)
    assert splitmix64(1, 5) != splitmix64(1, 6)
    assert splitmix64(2, 5) != splitmix64(1, 5)
    assert 0 <= splitmix64(123, 456) < (1 << 64)


def test_splitmix64_array_matches_scalar():
    arr = splitmix64_at(99, np.arange(3, 19, dtype=np.uint64))
    assert arr.dtype == np.uint64
    for i in range(16):
        assert int(arr[i]) == splitmix64(99, 3 + i)


def test_counter_rng_stream_position():
    a = CounterRng(7)
    first = [a.next64() for _ in range(4)]
    b = CounterRng(7)
    assert [b.next64() for _ in range(4)] == first


def test_below_and_sample():
    rng = CounterRng(5)
    draws = [rng.below(10) for _ in range(200)]
    assert set(draws) <= set(range(10))


def test_genspec_validation():
    with pytest.raises(InvalidParameterError):
        GenSpec("nope", 4, 3, 0.5, 0)
    with pytest.raises(InvalidParameterError):
        GenSpec("gnp-kpartite", 4, 3, 1.5, 0)
    with pytest.raises(InvalidParameterError):
        GenSpec("gnp-kpartite", 4, 3, 0.5, 0, r=2)       # r without hyper kind
    with pytest.raises(InvalidParameterError):
        GenSpec("gnp-hypergraph", 4, 3, 0.5, 0)          # hyper without r
    with pytest.raises(InvalidParameterError):
        GenSpec("planted-clique", 4, 3, 0.5, 0)          # no plant_count
    with pytest.raises(InvalidParameterError):
        GenSpec("gnp-kpartite", 4, 3, 0.5, 0, plant_count=1)


def test_gnp_extremes():
    g0 = generate(GenSpec("gnp-kpartite", 4, 3, 0.0, 1)).graph
    assert g0.edge_count() == 0
    g1 = generate(GenSpec("gnp-kpartite", 4, 3, 1.0, 1)).graph
    assert g1.edge_count() == 3 * 16
    g1.validate()


def test_same_seed_bit_identical():
    a = generate(GenSpec("gnp-kpartite", 16, 3, 0.37, 42)).graph
    b = generate(GenSpec("gnp-kpartite", 16, 3, 0.37, 42)).graph
    assert a.adjacency == b.adjacency
    c = generate(GenSpec("gnp-kpartite", 16, 3, 0.37, 43)).graph
    assert a.adjacency != c.adjacency

    ha = generate(GenSpec("gnp-hypergraph", 6, 4, 0.5, 9, r=3)).graph
    hb = generate(GenSpec("gnp-hypergraph", 6, 4, 0.5, 9, r=3)).graph
    assert ha.edges == hb.edges


def test_planted_clique_witnesses_present():
    for seed in range(6):
        inst = generate(GenSpec("planted-clique", 9, 4, 0.1, seed,
                                plant_count=3))
        assert len(inst.witnesses) == 3
        assert len(set(inst.witnesses)) == 3
        for w in inst.witnesses:
            for a, b in combinations(w, 2):
                assert inst.graph.has_edge(a, b)
        inst.graph.validate()


def test_planted_hyperclique_witnesses_present():
    for seed in range(4):
        inst = generate(GenSpec("planted-hyperclique", 6, 4, 0.05, seed,
                                r=3, plant_count=2))
        assert len(inst.witnesses) == 2
        for w in inst.witnesses:
            assert inst.graph.is_hyperclique(w)


def test_plants_drawn_before_noise():
    # the witness tuple only depends on (seed, sizes), not on p
    w_low = generate(GenSpec("planted-clique", 9, 4, 0.0, 5, plant_count=2))
    w_high = generate(GenSpec("planted-clique", 9, 4, 0.9, 5, plant_count=2))
    assert w_low.witnesses == w_high.witnesses


def test_gnp_graph_structure_valid():
    g = generate(GenSpec("gnp-kpartite", 10, 4, 0.5, 0)).graph
    g.validate()
    h = generate(GenSpec("gnp-hypergraph", 5, 4, 0.5, 0, r=3)).graph
    for e in h.edges:
        assert len({h.part_of(v) for v in e}) == 3


def _rows_digest(G) -> str:
    width = (G.n_total + 7) // 8
    h = hashlib.sha256()
    for row in G.adjacency:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()[:16]


# Adjacency digests recorded from the row-at-a-time generator.  They pin
# the exact bytes a spec yields (instances must not drift between
# versions), not that those bytes are a correct G(n, p) sample.
GOLDEN_ROWS = [
    (GenSpec("gnp-kpartite", 13, 3, 0.37, 5), "d8c51bc82e8be639"),
    (GenSpec("gnp-kpartite", 7, 4, 0.0, 1), "b5fdab78d8947eac"),
    (GenSpec("gnp-kpartite", 11, 2, 1.0, 2), "b05fc22dbeef4c2b"),
    (GenSpec("gnp-kpartite", 21, 5, 0.37, 3), "4eb08f43c5aff569"),
    (GenSpec("planted-clique", 9, 4, 0.37, 6, plant_count=3),
     "29b63e285d20df8e"),
    (GenSpec("planted-clique", 5, 3, 0.0, 4, plant_count=2),
     "d97d12dba2a4b9c7"),
    (GenSpec("planted-clique", 6, 3, 1.0, 8, plant_count=1),
     "dc66deaad93ac46e"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_ROWS)
def test_graph_rows_match_recorded_digests(spec, digest):
    assert _rows_digest(generate(spec).graph) == digest


def _gnp_rows_reference(rng, G, p):
    """Row-at-a-time generator: row u draws n bits and keeps those above
    u outside its own part; a second pass mirrors them."""
    n = G.n_total
    for u in range(n):
        flags = rng.bernoulli_flags(n, p)
        bits = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                              "little")
        G.adjacency[u] |= bits & ~((1 << (u + 1)) - 1) & \
            ~G.part_masks[G.part_of(u)]
    for u in range(n):
        for v in range(n):
            if (G.adjacency[u] >> v) & 1:
                G.adjacency[v] |= 1 << u


@pytest.mark.parametrize("sizes,p,seed", [
    ([5, 9, 3], 0.5, 0),
    ([1, 1], 0.7, 1),
    ([4], 0.5, 2),
    ([0, 6, 2], 0.3, 3),
    ([30, 31, 17, 9], 0.45, 4),
])
def test_gnp_rows_match_row_at_a_time_reference(sizes, p, seed):
    fast, slow = KPartiteGraph(sizes), KPartiteGraph(sizes)
    fast_rng, slow_rng = CounterRng(seed), CounterRng(seed)
    _gnp_rows(fast_rng, fast, p)
    _gnp_rows_reference(slow_rng, slow, p)
    assert fast.adjacency == slow.adjacency
    assert fast_rng.counter == slow_rng.counter
