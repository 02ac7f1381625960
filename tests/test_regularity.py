"""Densities, weak regularity partitioning, and the sampled checker."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cliquelab import regularity
from cliquelab.bitops import iter_bits, mask_from_vertices, mask_range
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.generate import GenSpec, generate
from cliquelab.listing import list_all_triangles, list_triangles
from cliquelab.oracles import brute_triangles
from cliquelab.regularity import (EPSILON_CLAMP, PseudoregularPartition,
                                  RegularityConfig, _certified,
                                  _density_matrix, _pair_count, _refine,
                                  _sample_disjoint_pair,
                                  check_pseudoregular_sampled, default_epsilon,
                                  edge_count_between, weak_regular_partition)
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
    S, T = 0b111, 0b11110000                 # {0, 1, 2} and {4, 5, 6, 7}
    assert edge_count_between(G, S, T) == 12
    assert edge_count_between(KPartiteGraph([4, 4]), S, T) == 0
    with pytest.raises(InvalidParameterError):
        edge_count_between(G, 0b11, 0b10010)     # both hold vertex 1


def test_edge_count_matches_double_loop():
    rng = random.Random(6)
    G = random_graph(rng, [10, 10], 0.5)
    for _ in range(200):
        S = {v for v in range(10) if rng.random() < 0.5}
        T = {v for v in range(10, 20) if rng.random() < 0.5}
        want = sum(1 for u in S for v in T if G.has_edge(u, v))
        assert edge_count_between(G, mask_from_vertices(S),
                                  mask_from_vertices(T)) == want


def test_density_arithmetic_example():
    # e = 6, |S| = 3, |T| = 4 -> exactly 1/2
    G = KPartiteGraph([3, 4])
    pairs = [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)]
    for u, v in pairs:
        G.adjacency[u] |= 1 << v
        G.adjacency[v] |= 1 << u
    S, T = 0b111, 0b1111000                  # {0, 1, 2} and {3, 4, 5, 6}
    assert edge_count_between(G, S, T) == 6
    assert _density_matrix(G, [S, T])[0][1] == Fraction(1, 2)


def test_default_epsilon_clamped():
    lo, hi = EPSILON_CLAMP
    assert default_epsilon(2) == hi
    assert lo <= default_epsilon(1 << 12) <= hi
    assert default_epsilon(1 << 60) == pytest.approx(1.0 / 60 ** 0.5)
    assert lo <= default_epsilon(1 << 62) <= hi


def test_exact_edge_accounting_over_pieces():
    rng = random.Random(3)
    G = random_graph(rng, [4, 16, 16], 0.4)
    cfg = RegularityConfig(epsilon=0.1, rng_seed=2)
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
        G = KPartiteGraph([0, *G.part_sizes], G.adjacency)
        cfg = RegularityConfig(epsilon=0.05, rng_seed=1)
        P = weak_regular_partition(G, cfg)
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


def test_unverified_flag_when_budget_exhausted(monkeypatch):
    # one round under a cap of 2: the sampled check finds the quadrant, and
    # the partition is returned unverified instead of aborting
    monkeypatch.setattr(regularity, "_REFINEMENT_ROUNDS", 1)
    monkeypatch.setattr(regularity, "_piece_cap", lambda epsilon: 2)
    G = quadrant_graph(16)
    G = KPartiteGraph([0, *G.part_sizes], G.adjacency)
    cfg = RegularityConfig(epsilon=0.001, rng_seed=0, sample_count=400)
    P = weak_regular_partition(G, cfg)
    assert P.verified is False and P.report is None
    assert P.piece_count <= 2


def test_config_validation():
    for bad in ({"epsilon": 0.0}, {"epsilon": 1.0},
                {"epsilon": 0.1, "sample_count": 0}):
        with pytest.raises(InvalidParameterError):
            RegularityConfig(**bad)
    assert regularity._piece_cap(0.1) == 1 << 10
    assert regularity._piece_cap(0.01) == 1 << 62
    assert regularity._piece_cap(1e-320) == 1 << 62     # 1/eps is inf


def test_sampled_partition_keeps_its_verifying_check():
    # at epsilon 0.05 G(30/part, 0.5) is not certified and round 0's
    # samples verify it; at 0.25 it is certified and keeps no report
    G = generate(GenSpec("gnp-kpartite", 30, 3, 0.5, seed=2)).graph
    cfg = RegularityConfig(epsilon=0.05, sample_count=100, rng_seed=4)
    P = weak_regular_partition(G, cfg)
    assert P.verified and P.piece_count == 2
    assert P.report == check_pseudoregular_sampled(G, P, 0.05, 100, seed=4)
    assert P.report.violations == 0
    assert weak_regular_partition(
        G, RegularityConfig(epsilon=0.25)).report is None


def _loop_check(G, P, epsilon, samples, seed):
    """Per-sample reference for check_pseudoregular_sampled, with every
    float sum written out as a left-to-right loop."""
    universe = P.universe()
    n = universe.bit_count()
    rng = random.Random(seed)
    nbits = max(len(G.adjacency), 1)
    dens = [[float(d) for d in row] for row in P.densities]
    violations, max_err, worst = 0, 0.0, None
    for _ in range(samples):
        S, T = _sample_disjoint_pair(rng, universe, nbits)
        exact = _pair_count(G, S, T)
        s_sizes = [(S & p).bit_count() for p in P.pieces]
        t_sizes = [(T & p).bit_count() for p in P.pieces]
        est = 0.0
        for i, si in enumerate(s_sizes):
            if not si:
                continue
            inner = 0.0
            for j, tj in enumerate(t_sizes):
                if tj:
                    inner += dens[i][j] * tj
            est += si * inner
        err = abs(exact - est)
        if err > max_err:
            max_err, worst = err, (S, T)
        if err > epsilon * n * n:
            violations += 1
    return violations, max_err / (n * n), worst


def _random_pieces(rng, universe, nbits, k):
    pieces = [0] * k
    for v in range(nbits):
        if universe >> v & 1:
            pieces[rng.randrange(k)] |= 1 << v
    return [p for p in pieces if p]


def test_batched_check_matches_loop_reference():
    rng = random.Random(12)
    seen_violations = seen_clean = 0
    # total ids 13 and 70 are not multiples of 8; 40 is not one of 32;
    # 70 is wider than one 64-bit word
    for sizes in ([3, 5, 5], [8, 12, 20], [10, 30, 30], [1, 1, 2]):
        for trial in range(12):
            G = random_graph(rng, sizes, rng.choice([0.0, 0.2, 0.5, 0.9]))
            if trial % 2:
                G = G.restrict(sum(1 << v for i in range(3)
                                   for v in G.part_vertices(i)
                                   if rng.random() < 0.7))
            universe = G.part_masks[1] | G.part_masks[2]
            if not universe:
                continue
            if trial % 3 == 0:
                cfg = RegularityConfig(epsilon=0.02, rng_seed=trial,
                                       sample_count=50)
                pieces = weak_regular_partition(G, cfg).pieces
            else:
                pieces = _random_pieces(rng, universe, len(G.adjacency),
                                        rng.randint(1, 12))
            P = PseudoregularPartition(pieces, _density_matrix(G, pieces),
                                       epsilon=0.01)
            for eps in (0.002, 0.02, 0.2):
                samples, seed = rng.randint(1, 150), rng.randrange(10 ** 6)
                rep = check_pseudoregular_sampled(G, P, eps, samples, seed)
                want = _loop_check(G, P, eps, samples, seed)
                assert (rep.violations, rep.max_error, rep.worst_pair) == want
                assert rep.samples == samples
                seen_violations += rep.violations > 0
                seen_clean += rep.worst_pair is None
    assert seen_violations >= 20 and seen_clean >= 5


def test_check_rejects_nonpositive_samples():
    G = complete_bipartite(4)
    P = PseudoregularPartition([G.part_masks[0], G.part_masks[1]],
                               _density_matrix(G, G.part_masks), epsilon=0.1)
    for samples in (0, -3):
        with pytest.raises(InvalidParameterError):
            check_pseudoregular_sampled(G, P, 0.1, samples, seed=0)


CERT_EPSILONS = (0.02, 0.1, 0.2, 0.25, 0.3, 0.25 - 1e-10)


@st.composite
def certificate_cases(draw):
    """A 3-part graph or a view of it, a side pair, and a partition of the
    pair's vertices: one piece per side, then refined by random (S, T)."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=3, max_size=3))
    p = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    G = random_graph(rng, sizes, p)
    if draw(st.booleans()):
        G = G.restrict(sum(draw(st.integers(0, (1 << s) - 1))
                           << G.part_start[i] for i, s in enumerate(sizes)))
    parts = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    universe = G.part_masks[parts[0]] | G.part_masks[parts[1]]
    assume(universe)
    pieces = [G.part_masks[i] for i in parts if G.part_masks[i]]
    rounds = draw(st.integers(0, 3))
    for _ in range(rounds):
        S, T = _sample_disjoint_pair(rng, universe, len(G.adjacency))
        pieces = _refine(pieces, S, T, universe, draw(st.integers(1, 12)))
    P = PseudoregularPartition(pieces, _density_matrix(G, pieces), 0.25)
    return G, P, rounds, draw(st.sampled_from(CERT_EPSILONS))


def _exhaustive_max_error(G, P):
    """max |e(S,T) - sum_ij d_ij |S_i| |T_j|| over every disjoint S, T."""
    verts = list(iter_bits(P.universe()))
    worst = Fraction(0)
    for roles in product((0, 1, 2), repeat=len(verts)):
        S = sum(1 << v for v, r in zip(verts, roles) if r == 1)
        T = sum(1 << v for v, r in zip(verts, roles) if r == 2)
        est = sum(P.densities[i][j] * (a & S).bit_count() * (b & T).bit_count()
                  for i, a in enumerate(P.pieces)
                  for j, b in enumerate(P.pieces))
        worst = max(worst, abs(_pair_count(G, S, T) - est))
    return worst


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(certificate_cases(), st.integers(0, 10 ** 6))
def test_certificate_sound(case, seed):
    G, P, rounds, eps = case
    n = P.universe().bit_count()
    if rounds == 0 and eps == 0.25:
        # The starting partition is certified at the default epsilon
        # exactly when the two sides hold two or more vertices.
        assert _certified(P, eps) == (n >= 2)
    if not _certified(P, eps):
        return
    assert check_pseudoregular_sampled(G, P, eps, 300, seed).violations == 0
    if n <= 6:
        assert _exhaustive_max_error(G, P) <= eps * n * n


def _fraction_certified(P, epsilon):
    """The certificate in exact Fraction arithmetic, the reference form."""
    n = P.universe().bit_count()
    m = max((max(d, 1 - d) for row in P.densities for d in row if 0 < d < 1),
            default=0)
    return n < 1 << 17 and m * (n * n // 4) + 1 <= epsilon * n * n


def _boundary_epsilons(P):
    """The float nearest the certificate's boundary (m floor(n^2/4) + 1) /
    n^2 and its two neighbours on each side, plus 0.25 +- 1e-10."""
    n = P.universe().bit_count()
    m = max((max(d, 1 - d) for row in P.densities for d in row if 0 < d < 1),
            default=0)
    eps = [float((m * (n * n // 4) + 1) / Fraction(n * n))]
    for direction in (0.0, 2.0):
        x = eps[0]
        for _ in range(2):
            x = math.nextafter(x, direction)
            eps.append(x)
    return eps + [0.25 - 1e-10, 0.25 + 1e-10]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(certificate_cases())
def test_integer_certificate_matches_fraction_form(case):
    _, P, _, eps = case
    for e in (eps, *_boundary_epsilons(P)):
        assert _certified(P, e) == _fraction_certified(P, e)


def _set_partitions(verts):
    if not verts:
        yield []
        return
    first, rest = verts[0], verts[1:]
    for part in _set_partitions(rest):
        yield [1 << first] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] | 1 << first] + part[i + 1:]


@pytest.mark.parametrize("sides", [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1),
                                   (1, 2), (3, 0), (0, 3)])
def test_integer_certificate_matches_on_tiny_universes(sides):
    """n in {1, 2, 3}: every graph of the side pair, every partition."""
    a, b = sides
    cross = [(u, a + v) for u in range(a) for v in range(b)]
    seen = set()
    for chosen in range(1 << len(cross)):
        G = KPartiteGraph.from_edges(
            [a, b], [e for i, e in enumerate(cross) if chosen >> i & 1])
        for pieces in _set_partitions(list(range(a + b))):
            P = PseudoregularPartition(pieces, _density_matrix(G, pieces),
                                       0.25)
            for e in (*_boundary_epsilons(P), *CERT_EPSILONS):
                got = _certified(P, e)
                assert got == _fraction_certified(P, e)
                seen.add(got)
    assert seen == {True, False}


def test_certificate_needs_universe_below_2_17():
    # the check's float rounding bound holds only for n < 2^17
    for n, want in ((1 << 17, False), ((1 << 17) - 1, True)):
        P = PseudoregularPartition([(1 << n) - 1], [[Fraction(0)]], 0.25)
        assert _certified(P, 0.25) == _fraction_certified(P, 0.25) == want


def test_default_listing_never_samples(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("sampled check ran on a default path")

    monkeypatch.setattr(regularity, "check_pseudoregular_sampled", sampled)
    for n, p in ((1, 0.5), (5, 0.3), (22, 0.5), (40, 0.1)):
        G = generate(GenSpec("gnp-kpartite", n, 3, p, seed=n)).graph
        want = brute_triangles(G).as_set()
        assert list_all_triangles(G).as_set() == want
        assert list_triangles(G, None).result.as_set() == want
        assert weak_regular_partition(
            G, RegularityConfig(epsilon=default_epsilon(G.n_total))).verified


def test_single_vertex_universe_still_samples(monkeypatch):
    calls = []
    real = regularity.check_pseudoregular_sampled

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, "check_pseudoregular_sampled", counting)
    G = KPartiteGraph([2, 1, 0])
    P = weak_regular_partition(G, RegularityConfig(epsilon=0.25))
    assert P.verified and P.pieces == [G.part_masks[1]] and len(calls) == 1
