"""Engines and oracles on vertex-mask views agree with the oracles on
re-indexed copies."""

import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError
from cliquelab.kclique import RecursionParams, detect_kclique, find_witness
from cliquelab.listing import list_triangles, list_triangles_threshold
from cliquelab.oracles import brute_kclique, brute_triangles
from cliquelab.regularity import (RegularityConfig,
                                  check_pseudoregular_sampled,
                                  weak_regular_partition)
from cliquelab.triangle import (build_block_edge_table, detect_four_russians,
                                detect_naive, list_sparse_four_russians,
                                list_sparse_pivoted)
from tests.test_core import random_graph

LEAN_CFG = RegularityConfig(epsilon=0.2, rng_seed=0, sample_count=40,
                            refinement_budget=3, max_pieces=6)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def views(draw, k):
    """A random k-partite graph and a view on per-part masks, which may be
    empty, single vertices or non-contiguous."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    p = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), sizes, p)
    masks = [draw(st.integers(0, (1 << s) - 1)) << g.part_start[i]
             for i, s in enumerate(sizes)]
    view = g.restrict(masks)
    assert view.adjacency is g.adjacency
    return g, view


def standalone(g, view):
    """Re-indexed copy of the view's subgraph, and its ids in g."""
    ids = [v for m in view.part_masks for v in range(m.bit_length())
           if (m >> v) & 1]
    local = {v: j for j, v in enumerate(ids)}
    edges = [(local[u], local[v]) for u, v in combinations(ids, 2)
             if g.has_edge(u, v)]
    return KPartiteGraph.from_edges(view.part_sizes, edges), ids


def _global(ids, witnesses):
    return {tuple(ids[x] for x in w) for w in witnesses}


@SETTINGS
@given(views(3))
def test_triangle_engines_on_views_match_oracle(case):
    g, view = case
    copy, ids = standalone(g, view)
    truth = _global(ids, brute_triangles(copy).witnesses)
    assert brute_triangles(view).as_set() == truth

    found = [detect_naive(view)]
    for b in (1, 2, 3):
        found.append(detect_four_russians(view, build_block_edge_table(view, b)))
    for w in found:
        assert (w is None) == (not truth)
        assert w is None or w in truth

    for lister in (list_sparse_four_russians, list_sparse_pivoted):
        got = lister(view, None).witnesses
        assert len(got) == len(set(got)) and set(got) == truth

    for lister in (list_triangles, list_triangles_threshold):
        if not view.part_sizes[1] and not view.part_sizes[2]:
            with pytest.raises(InvalidParameterError):
                lister(view, None, LEAN_CFG)
            continue
        got = lister(view, None, LEAN_CFG).witnesses
        assert len(got) == len(set(got)) and set(got) == truth


@SETTINGS
@given(views(4))
def test_kclique_engines_on_views_match_oracle(case):
    g, view = case
    copy, ids = standalone(g, view)
    want = brute_kclique(copy, 4)
    assert brute_kclique(view, 4) == (want and tuple(ids[x] for x in want))
    for base in (detect_naive, detect_four_russians):
        got = detect_kclique(view, 4, base, params=RecursionParams(2, 0.3))
        assert got == (want is not None)

    w = find_witness(detect_kclique, view, 4)
    assert (w is None) == (want is None)
    if w is not None:
        assert all((view.part_masks[i] >> v) & 1 for i, v in enumerate(w))
        assert all(g.has_edge(a, b) for a, b in combinations(w, 2))


def test_block_table_rejected_on_other_view_of_equal_sizes():
    g = random_graph(random.Random(3), [2, 4, 4], 0.5)
    a = g.restrict([0b11, 0b0011 << 2, 0b0011 << 6])
    b = g.restrict([0b11, 0b1100 << 2, 0b1100 << 6])
    assert a.part_sizes == b.part_sizes
    table = build_block_edge_table(a, 2)
    detect_four_russians(a, table)
    with pytest.raises(InvalidParameterError):
        detect_four_russians(b, table)


def test_sampled_check_draws_ids_above_the_view_size():
    # The view's 12 vertices carry ids 6..17: pairs drawn over 12 bits
    # would never reach part 2, and every sample would read zero error.
    g = random_graph(random.Random(4), [6, 6, 6], 0.5)
    view = g.restrict([0, g.part_masks[1], g.part_masks[2]])
    cfg = RegularityConfig(epsilon=0.2, refinement_budget=1)
    P = weak_regular_partition(view, cfg)
    assert check_pseudoregular_sampled(view, P, 0.2, 50, seed=0).max_error > 0
