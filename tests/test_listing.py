"""Regularity-driven triangle listing pipeline."""

import hashlib
import math
import random
from itertools import product

import pytest

from cliquelab import listing, regularity
from cliquelab.bitops import iter_bits
from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.generate import GenSpec, generate
from cliquelab.hyperclique import list_hypercliques
from cliquelab.listing import list_all_triangles, list_triangles
from cliquelab.oracles import brute_triangles
from cliquelab.regularity import (RegularityConfig, default_epsilon,
                                  weak_regular_partition)
from cliquelab.triangle import list_row_and
from tests.test_hyperclique import complete_hypergraph
from tests.test_core import random_graph
from tests.test_oracles import complete_kpartite

FAST_CFG = RegularityConfig(epsilon=0.15, rng_seed=0, sample_count=60)


def test_requires_three_parts():
    with pytest.raises(InvalidParameterError):
        list_triangles(KPartiteGraph([2, 2]), None)


def test_triangle_free_construction_empty():
    g = KPartiteGraph([4, 4, 4])
    for u in g.part_vertices(0):
        for v in g.part_vertices(1):
            g.adjacency[u] |= 1 << v
            g.adjacency[v] |= 1 << u
    assert len(list_triangles(g, None, FAST_CFG).result) == 0


def test_unbounded_matches_oracle():
    rng = random.Random(17)
    for _ in range(15):
        sizes = [rng.randint(2, 12) for _ in range(3)]
        g = random_graph(rng, sizes, rng.choice([0.2, 0.5, 0.8]))
        want = brute_triangles(g).as_set()
        assert list_triangles(g, None, FAST_CFG).result.as_set() == want


def test_bounded_prefix_property():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, [8, 8, 8], 0.5)
        want = brute_triangles(g).as_set()
        t = rng.randint(0, len(want) + 2)
        res = list_triangles(g, t, FAST_CFG).result
        assert len(res) == min(t, len(want))
        assert res.as_set() <= want
        assert len(res.as_set()) == len(res.witnesses)   # no duplicates
        assert res.truncated == (len(want) > t)


def test_pair_plans_density():
    g = random_graph(random.Random(3), [6, 10, 10], 0.45)
    detail = list_triangles(g, None, FAST_CFG)
    assert detail.piece_count >= 1
    for plan in detail.plans:
        assert 0.0 <= plan.density <= 1.0
        assert plan.low_density == (plan.density <= FAST_CFG.epsilon ** 0.5)


def _hub_graph(rng, sizes, p):
    """G(n, p) with V1 joined to every vertex of V2 u V3."""
    g = random_graph(rng, sizes, p)
    for v in g.part_vertices(0):
        g.adjacency[v] |= g.part_masks[1] | g.part_masks[2]
        for u in iter_bits(g.part_masks[1] | g.part_masks[2]):
            g.adjacency[u] |= 1 << v
    return g


def test_default_epsilon_lists_in_oracle_order():
    # At the default epsilon every partition is one piece per side, so the
    # pipeline is one row-AND pass pivoting on V1: the oracle's order, and
    # the row-AND lister's, which list_all_triangles is.
    rng = random.Random(14)
    for p, hub, _ in product((0.0, 0.15, 0.5, 1.0), (False, True), range(40)):
        sizes = [rng.randint(0, 9) for _ in range(3)]
        g = (_hub_graph if hub else random_graph)(rng, sizes, p)
        total = len(brute_triangles(g))
        for t in sorted({0, 1, max(total - 1, 0), total}) + [None]:
            want = brute_triangles(g, t)
            for res in (list_triangles(g, t).result, list_row_and(g, t)):
                assert (res.witnesses, res.truncated) == (
                    want.witnesses, want.truncated), (sizes, p, hub, t)
        assert list_all_triangles(g).witnesses == \
            brute_triangles(g).witnesses == \
            list_row_and(g, None).witnesses, (sizes, p, hub)


def test_threshold_t_zero():
    g = complete_kpartite([2, 2, 2])
    res = list_triangles(g, 0, FAST_CFG).result
    assert len(res) == 0 and res.truncated
    empty = KPartiteGraph([2, 2, 2])
    res2 = list_triangles(empty, 0, FAST_CFG).result
    assert len(res2) == 0 and not res2.truncated


def test_threshold_complete_exact_count():
    g = complete_kpartite([8, 8, 8])
    res = list_triangles(g, 100, FAST_CFG).result
    assert len(res) == 100 and res.truncated
    assert len(res.as_set()) == 100
    for w in res.witnesses:
        a, b, c = w
        assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


def test_list_all_no_duplicates():
    rng = random.Random(31)
    for _ in range(8):
        g = random_graph(rng, [9, 9, 9], 0.55)
        want = brute_triangles(g).as_set()
        res = list_triangles(g, None, FAST_CFG).result
        assert len(res.witnesses) == len(res.as_set())
        assert res.as_set() == want


def test_list_all_complete_and_empty():
    g = complete_kpartite([3, 3, 3])
    res = list_triangles(g, None, FAST_CFG).result
    assert len(res) == 27 and not res.truncated
    empty = KPartiteGraph([3, 3, 3])
    assert len(list_triangles(empty, None, FAST_CFG).result) == 0


def test_planted_disjoint_triangles_truncation():
    # 20 vertex-disjoint planted triangles in light noise, t = 12
    rng = random.Random(2)
    g = random_graph(rng, [24, 24, 24], 0.02)
    for i in range(20):
        a, b, c = i, 24 + i, 48 + i
        for (x, y) in ((a, b), (a, c), (b, c)):
            g.adjacency[x] |= 1 << y
            g.adjacency[y] |= 1 << x
    want = brute_triangles(g).as_set()
    assert len(want) >= 20
    res = list_triangles(g, 12, FAST_CFG).result
    assert len(res) == 12 and res.truncated
    assert res.as_set() <= want and len(res.as_set()) == 12


def test_list_all_partitions_once(monkeypatch):
    g = random_graph(random.Random(8), [9, 5, 10], 0.5)
    calls = []
    real = listing.weak_regular_partition

    def counting(G, cfg, *args):
        calls.append((G.part_masks[1], G.part_masks[2], cfg))
        return real(G, cfg, *args)

    monkeypatch.setattr(listing, "weak_regular_partition", counting)
    list_triangles(g, None, FAST_CFG)
    assert calls == [(g.part_masks[1], g.part_masks[2], FAST_CFG)]


def test_list_all_never_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("list_all_triangles partitioned")

    monkeypatch.setattr(listing, "weak_regular_partition", refuse)
    for sizes, p in (([9, 5, 10], 0.5), ([6, 6, 6], 1.0), ([4, 0, 4], 1.0)):
        g = random_graph(random.Random(8), sizes, p)
        res = list_all_triangles(g)
        want = brute_triangles(g)
        assert (res.witnesses, res.truncated) == (want.witnesses, False)


def _view_reference(G, t, cfg):
    """Witnesses, truncation, (piece pair, density, low density) plans and
    the partition's pieces from a restrict view for the partition and one
    per piece pair, densities from a ``has_edge`` count and the public
    V1-pivot lister; no vertex is pruned."""
    b1, b2, b3 = G.part_masks
    if not (b2 and b3):
        return [], False, [], []
    pieces = weak_regular_partition(G.restrict(b1 | b2 | b3), cfg).pieces
    out, plans, views = [], [], []
    for (i, pi), (j, pj) in product(enumerate(pieces), repeat=2):
        s2, s3 = pi & b2, pj & b3
        if not (s2 and s3):
            continue
        edges = sum(G.has_edge(u, v)
                    for u in iter_bits(s2) for v in iter_bits(s3))
        dens = edges / (s2.bit_count() * s3.bit_count())
        plans.append(((i, j), dens, dens <= math.sqrt(cfg.epsilon)))
        views.append(G.restrict(b1 | s2 | s3))
    for view in views:
        part = list_row_and(
            view, None if t is None else t - len(out))
        out.extend(part.witnesses)
        if part.truncated:
            return out, True, plans, pieces
    return out, False, plans, pieces


# Sizes with empty and single-vertex parts; epsilon below 0.25 refines into
# multi-piece partitions.  Each config comes with the piece cap the test
# patches into ``_piece_cap`` (None: the default); a cap of 4 makes a
# mixed-side residual piece at 4 per part.  With ``hub`` V1 is joined to all
# of V2 u V3 and V2-V3 is sparse, so many piece pairs have V2 vertices with
# no V3 neighbour, which the lister skips.
VIEW_REF_CFGS = [(RegularityConfig(epsilon=0.02, rng_seed=3, sample_count=60),
                  4),
                 (RegularityConfig(epsilon=0.05, rng_seed=5, sample_count=60),
                  None)]


@pytest.mark.parametrize("sizes, hub", [
    ([0, 6, 6], False), ([6, 1, 8], False), ([1, 1, 1], False),
    ([10, 10, 10], False), ([10, 10, 10], True), ([4, 4, 4], False)])
def test_threshold_and_detailed_match_view_reference(sizes, hub,
                                                     monkeypatch):
    # the pipeline's witnesses, truncation and plans, at every t
    rng = random.Random(sum(sizes))
    mixed = pruned = 0
    default_cap = regularity._piece_cap
    for p, (cfg, cap) in product((0.0, 0.15 if hub else 0.5, 1.0),
                                 VIEW_REF_CFGS):
        monkeypatch.setattr(regularity, "_piece_cap",
                            lambda eps: cap or default_cap(eps))
        g = (_hub_graph if hub else random_graph)(rng, sizes, p)
        total = len(brute_triangles(g))
        for t in sorted({0, 1, max(total - 1, 0), total}) + [None]:
            want, cut, plans, pieces = _view_reference(g, t, cfg)
            d = list_triangles(g, t, cfg)
            assert (d.result.witnesses, d.result.truncated) == (want, cut)
            assert [(q.piece_pair, q.density, q.low_density)
                    for q in d.plans] == plans
        _, b2, b3 = g.part_masks
        mixed += sum(bool(q & b2 and q & b3) for q in pieces)
        for q2, q3 in product(pieces, repeat=2):
            # some, not all, s2 vertices have an s3 neighbour
            s2, s3 = q2 & b2, q3 & b3
            hit = sum(bool(g.adjacency[u] & s3) for u in iter_bits(s2))
            pruned += 0 < hit < s2.bit_count()
    assert mixed or sizes != [4, 4, 4]
    assert pruned or not hub


@pytest.mark.parametrize("sizes", [[3, 0, 0], [0, 0, 0]])
def test_empty_v2_v3_lists_nothing(sizes):
    g = KPartiteGraph(sizes)
    for t in (None, 0, 2):
        res = list_triangles(g, t, FAST_CFG).result
        assert res.witnesses == [] and not res.truncated
        d = list_triangles(g, t)
        assert d.plans == [] and d.piece_count == 0 and d.partition_verified
    res = list_all_triangles(g)
    assert res.witnesses == [] and not res.truncated


def test_negative_t_rejected_by_every_lister():
    g = complete_kpartite([3, 3, 3])
    for lister in (list_row_and, list_triangles):
        with pytest.raises(InvalidParameterError):
            lister(g, -1)
    with pytest.raises(InvalidParameterError):
        list_triangles(g, -1, FAST_CFG)
    with pytest.raises(InvalidParameterError):
        list_hypercliques(complete_hypergraph(3, [2, 2, 2, 2]), 4, t=-1)
    with pytest.raises(InvalidParameterError):
        brute_triangles(g, -1)


def _pin_graphs():
    """AC-style G(n, p) specs: every (n/part, p) pair, one seed each."""
    return [generate(GenSpec("gnp-kpartite", n, 3, p, seed=10 * i + j)).graph
            for i, n in enumerate((3, 5, 8, 12, 22))
            for j, p in enumerate((0.0, 0.1, 0.3, 0.5, 1.0))]


def _pin_cfg(G, eps):
    return (RegularityConfig(epsilon=default_epsilon(G.n_total)) if eps is None
            else RegularityConfig(epsilon=eps))


def _pin_digest(key):
    """sha256 prefix over the pinned outputs of one entry point."""
    record = []
    for G in _pin_graphs():
        if key[0] == "all":
            record.append(list_all_triangles(G).witnesses)
        elif key[0] == "brute":
            record.append(brute_triangles(G).witnesses)
        elif key[0] == "partition":
            P = weak_regular_partition(G, _pin_cfg(G, key[1]))
            record.append((P.pieces, P.verified))
        else:
            _, eps, t = key
            d = list_triangles(G, t, _pin_cfg(G, eps))
            record.append((d.result.witnesses, d.result.truncated,
                           d.partition_verified, d.piece_count,
                           [p.piece_pair for p in d.plans]))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


# Recorded before weak_regular_partition tried the exact certificate
# before sampling, which must not change any partition, verified flag,
# plan or witness order.  The "detailed" records keep each plan's piece
# pair only; their digests were taken while each pair still chose between a
# V1 and a V2 pivot, so the one V1 pivot must reproduce them.  "all" lists
# every pin graph with the row-AND lister, in the oracle's order, so its
# digest is the "brute" one.
PINNED_DIGESTS = {
    ("all",): "0e861e47e4932791",
    ("partition", None): "de302bd57bb285d6",
    ("partition", 0.02): "a7fbcf85873fe8a6",
    ("partition", 0.05): "de302bd57bb285d6",
    ("partition", 0.25): "de302bd57bb285d6",
    ("detailed", None, None): "89b0e550d49ac474",
    ("detailed", None, 7): "de94df759aafb835",
    ("detailed", 0.02, None): "c326fa5fdb0ecdce",
    ("detailed", 0.02, 7): "ff77a7ea3167a181",
    ("detailed", 0.05, None): "89b0e550d49ac474",
    ("detailed", 0.05, 7): "de94df759aafb835",
    ("detailed", 0.25, None): "89b0e550d49ac474",
    ("detailed", 0.25, 7): "de94df759aafb835",
    ("brute",): "0e861e47e4932791",
}


@pytest.mark.parametrize("key", list(PINNED_DIGESTS))
def test_listing_and_partitions_pinned(key):
    assert _pin_digest(key) == PINNED_DIGESTS[key]
