"""Densities, weak regularity partitioning, and the sampled checker."""

import random
from fractions import Fraction

import pytest

from cliquelab.bitops import mask_range
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.regularity import (EPSILON_CLAMP, PseudoregularPartition,
                                  RegularityConfig, _density_matrix,
                                  check_pseudoregular_sampled, default_epsilon,
                                  density, edge_count_between,
                                  weak_regular_partition)
from tests.test_core import random_graph


def quadrant_graph(m=64):
    """Two parts of 2m; complete K_{m,m} between first halves, else empty."""
    G = KPartiteGraph([2 * m, 2 * m])
    for u in range(m):
        for v in range(2 * m, 3 * m):
            G.adjacency[u] |= 1 << v
            G.adjacency[v] |= 1 << u
    return G


def complete_bipartite(m):
    G = KPartiteGraph([m, m])
    for u in range(m):
        for v in range(m, 2 * m):
            G.adjacency[u] |= 1 << v
            G.adjacency[v] |= 1 << u
    return G


def test_edge_count_and_density_basic():
    G = complete_bipartite(4)
    S, T = {0, 1, 2}, {4, 5, 6, 7}
    assert edge_count_between(G, S, T) == 12
    assert density(G, S, T) == 1
    assert density(KPartiteGraph([4, 4]), S, T) == 0
    with pytest.raises(InvalidParameterError):
        edge_count_between(G, {0, 1}, {1, 4})
    with pytest.raises(InvalidParameterError):
        density(G, set(), {4})


def test_edge_count_matches_double_loop():
    rng = random.Random(6)
    G = random_graph(rng, [10, 10], 0.5)
    for _ in range(200):
        S = {v for v in range(10) if rng.random() < 0.5}
        T = {v for v in range(10, 20) if rng.random() < 0.5}
        want = sum(1 for u in S for v in T if G.has_edge(u, v))
        assert edge_count_between(G, S, T) == want


def test_density_arithmetic_example():
    # e = 6, |S| = 3, |T| = 4 -> exactly 1/2
    G = KPartiteGraph([3, 4])
    pairs = [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)]
    for u, v in pairs:
        G.adjacency[u] |= 1 << v
        G.adjacency[v] |= 1 << u
    assert density(G, {0, 1, 2}, {3, 4, 5, 6}) == Fraction(1, 2)


def test_default_epsilon_clamped():
    lo, hi = EPSILON_CLAMP
    assert default_epsilon(2) == hi
    assert lo <= default_epsilon(1 << 12) <= hi
    assert default_epsilon(1 << 60) == pytest.approx(1.0 / 60 ** 0.5)
    assert lo <= default_epsilon(1 << 62) <= hi


def test_exact_edge_accounting_over_pieces():
    rng = random.Random(3)
    G = random_graph(rng, [4, 16, 16], 0.4)
    cfg = RegularityConfig(epsilon=0.1, rng_seed=2, max_pieces=8)
    P = weak_regular_partition(G, cfg)
    m2, m3 = G.part_masks[1], G.part_masks[2]
    assert P.universe() == m2 | m3
    total = 0
    for pi in P.pieces:
        for pj in P.pieces:
            s2, s3 = pi & m2, pj & m3
            if s2 and s3:
                total += edge_count_between(G, s2, s3)
    e23 = sum((G.adjacency[u] & m3).bit_count() for u in range(4, 20))
    assert total == e23


def test_density_matrix_symmetric():
    G = random_graph(random.Random(5), [2, 8, 8], 0.5)
    cfg = RegularityConfig(epsilon=0.05, rng_seed=0)
    P = weak_regular_partition(G, cfg)
    for i in range(P.piece_count):
        for j in range(P.piece_count):
            assert P.densities[i][j] == P.densities[j][i]
            assert 0 <= P.densities[i][j] <= 1


def test_partition_reproducible_per_seed():
    G = random_graph(random.Random(1), [2, 20, 20], 0.5)
    cfg = RegularityConfig(epsilon=0.03, rng_seed=11)
    P1 = weak_regular_partition(G, cfg)
    P2 = weak_regular_partition(G, RegularityConfig(epsilon=0.03, rng_seed=11))
    assert P1.pieces == P2.pieces and P1.densities == P2.densities


def test_complete_and_edgeless_pass_exactly():
    for G in (complete_bipartite(16), KPartiteGraph([16, 16])):
        cfg = RegularityConfig(epsilon=0.05, rng_seed=1)
        P = weak_regular_partition(G, cfg, parts=(0, 1))
        assert P.verified
        rep = check_pseudoregular_sampled(G, P, 0.05, 300, seed=2)
        assert rep.violations == 0 and rep.max_error == 0.0


def test_quadrant_single_piece_violates_exactly():
    """The defining inequality fails on the half-aligned subset pair."""
    m = 64
    G = quadrant_graph(m)
    U = mask_range(0, 4 * m)
    P = PseudoregularPartition([U], _density_matrix(G, [U]), epsilon=0.01)
    n = 4 * m
    S = mask_range(0, m)              # the connected half of side one
    T = mask_range(2 * m, 3 * m)      # the connected half of side two
    exact = edge_count_between(G, S, T)
    est = float(P.densities[0][0]) * m * m
    assert exact == m * m
    assert abs(exact - est) > 0.01 * n * n


def test_quadrant_aligned_partition_passes():
    m = 64
    G = quadrant_graph(m)
    pieces = [mask_range(0, m), mask_range(m, 2 * m),
              mask_range(2 * m, 3 * m), mask_range(3 * m, 4 * m)]
    P = PseudoregularPartition(pieces, _density_matrix(G, pieces), epsilon=0.01)
    rep = check_pseudoregular_sampled(G, P, 0.01, 2000, seed=5)
    assert rep.violations == 0 and rep.max_error == 0.0


def test_unverified_flag_when_budget_exhausted():
    G = quadrant_graph(16)
    cfg = RegularityConfig(epsilon=0.001, rng_seed=0, refinement_budget=1,
                           max_pieces=2, sample_count=400)
    P = weak_regular_partition(G, cfg, parts=(0, 1))
    assert isinstance(P.verified, bool)     # never aborts


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        RegularityConfig(epsilon=0.0)
    with pytest.raises(InvalidParameterError):
        RegularityConfig(epsilon=0.1, refinement_budget=0)
    cfg = RegularityConfig(epsilon=0.1)
    assert cfg.max_pieces == 1 << 10
