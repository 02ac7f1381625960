"""Engines and oracles on vertex-mask views agree with the oracles on
re-indexed copies, and the engines leave no reference cycles behind."""

import gc
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquelab.bitops import mask_range
from cliquelab.core import KPartiteGraph
from cliquelab.generate import GenSpec, generate
from cliquelab.hyperclique import detect_hyperclique, list_hypercliques
from cliquelab.kclique import (RecursionParams, detect_kclique, find_kclique,
                               find_witness)
from cliquelab.listing import list_all_triangles, list_triangles
from cliquelab.oracles import brute_kclique, brute_triangles
from cliquelab.regularity import (RegularityConfig,
                                  check_pseudoregular_sampled,
                                  weak_regular_partition)
from cliquelab.triangle import detect_four_russians, detect_naive, list_row_and
from tests.test_core import random_graph
from tests.test_triangle import first_by_v2

LEAN_CFG = RegularityConfig(epsilon=0.2, rng_seed=0, sample_count=40)
# Below epsilon 0.25 the exact certificate rarely holds, so these run the
# sampled check and its refinement.
SAMPLED_CFGS = [RegularityConfig(epsilon=eps, rng_seed=1, sample_count=60)
                for eps in (0.05, 0.1)]
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def views(draw, k):
    """A random graph and a k-part view of it, on parts ``first`` onward:
    its parts may be empty, single vertices or non-contiguous, and the
    keep mask may have bits outside the view."""
    first = draw(st.integers(0, 1))
    sizes = draw(st.lists(st.integers(0, 6), min_size=first + k,
                          max_size=first + k))
    p = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), sizes, p)
    keep = draw(st.integers(0, (1 << (g.n_total + 3)) - 1))
    view = g.restrict(keep, first)
    assert view.adjacency is g.adjacency
    assert view.part_masks == [keep & m for m in g.part_masks[first:]]
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

    found = [detect_naive(view), detect_four_russians(view)]
    for b in (1, 2, 3, 5, 8):
        found.append(detect_four_russians(view, b))
    for w in found:
        assert (w is None) == (not truth)
        assert w is None or w in truth
    assert found[0] == first_by_v2(truth)

    got = list_row_and(view, None).witnesses
    assert len(got) == len(set(got)) and set(got) == truth

    _check_regularity_listers(view, truth)


def _check_regularity_listers(view, truth):
    for res in (list_all_triangles(view),
                *(list_triangles(view, None, cfg).result
                  for cfg in (LEAN_CFG, *SAMPLED_CFGS))):
        got = res.witnesses
        assert not res.truncated
        assert len(got) == len(set(got)) and set(got) == truth


# Empty and single-vertex parts, p in {0, 1}, and mid-sized odd and even
# parts.
@pytest.mark.parametrize("sizes, p", [
    ([0, 4, 4], 1.0), ([4, 0, 4], 1.0), ([4, 4, 0], 1.0), ([1, 1, 1], 1.0),
    ([1, 5, 1], 1.0), ([5, 7, 10], 1.0), ([5, 7, 10], 0.0), ([5, 7, 10], 0.5),
    ([10, 1, 7], 0.6), ([0, 1, 0], 1.0)])
def test_regularity_listers_on_edge_case_views(sizes, p):
    g = random_graph(random.Random(sum(sizes)), sizes, p)
    view = g.restrict(mask_range(0, g.n_total))
    _check_regularity_listers(view, brute_triangles(view).as_set())


def _check_kclique_view(g, view, k):
    copy, ids = standalone(g, view)
    want = brute_kclique(copy, k)
    assert brute_kclique(view, k) == (want and tuple(ids[x] for x in want))
    for base in (detect_naive, detect_four_russians):
        for params in (None, RecursionParams(2, 0.05), RecursionParams(2, 0.3)):
            got = detect_kclique(view, k, base, params=params)
            assert got == (want is not None)

    w = find_witness(detect_kclique, view, k)
    assert (w is None) == (want is None)
    if w is not None:
        assert all((view.part_masks[i] >> v) & 1 for i, v in enumerate(w))
        assert all(g.has_edge(a, b) for a, b in combinations(w, 2))


@SETTINGS
@given(views(4))
def test_kclique_engines_on_views_match_oracle(case):
    _check_kclique_view(*case, 4)


@SETTINGS
@given(views(5))
def test_kclique_engines_on_k5_views_match_oracle(case):
    _check_kclique_view(*case, 5)


# Part sizes and p that random draws reach only now and then: empty and
# single-vertex parts, edgeless and complete graphs.
@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("sizes, p", [
    ([1, 1, 1, 1, 1], 1.0), ([1, 3, 3, 3, 3], 1.0), ([4, 4, 4, 4, 1], 1.0),
    ([0, 3, 3, 3, 3], 1.0), ([3, 3, 0, 3, 3], 1.0), ([4, 4, 4, 4, 4], 0.0),
    ([2, 1, 2, 1, 2], 1.0), ([4, 1, 4, 1, 4], 0.5)])
def test_kclique_engines_on_edge_case_views(k, sizes, p):
    g = random_graph(random.Random(sum(sizes)), sizes[:k], p)
    _check_kclique_view(g, g.restrict(mask_range(0, g.n_total)), k)


def test_sampled_check_draws_ids_above_the_view_size():
    # The view's 12 vertices carry ids 6..17: pairs drawn over 12 bits
    # would never reach part 2, and every sample would read zero error.
    g = random_graph(random.Random(4), [6, 6, 6], 0.5)
    view = g.restrict(g.part_masks[1] | g.part_masks[2])
    cfg = RegularityConfig(epsilon=0.2)
    P = weak_regular_partition(view, cfg)
    assert check_pseudoregular_sampled(view, P, 0.2, 50, seed=0).max_error > 0


# One call of each public engine on a small instance with a hit.
ENGINE_CALLS = {
    "list_hypercliques": lambda h, g3, g4: list_hypercliques(h, 4),
    "detect_hyperclique": lambda h, g3, g4: detect_hyperclique(h, 4),
    "find_witness": lambda h, g3, g4: find_witness(detect_kclique, g4, 4),
    "find_kclique": lambda h, g3, g4: find_kclique(g4, 4),
    "detect_naive": lambda h, g3, g4: detect_naive(g3),
    "detect_four_russians": lambda h, g3, g4: detect_four_russians(g3),
    "list_row_and": lambda h, g3, g4: list_row_and(g3, None),
    "list_all_triangles": lambda h, g3, g4: list_all_triangles(g3),
    "list_triangles": lambda h, g3, g4: list_triangles(g3, None).result,
}


@pytest.mark.parametrize("engine", sorted(ENGINE_CALLS))
def test_engines_leave_no_cyclic_garbage(engine):
    # a reference cycle keeps a call's tables and link masks alive until
    # the cyclic collector runs
    h = generate(GenSpec("planted-hyperclique", 6, 4, 0.4, 3, r=3,
                         plant_count=1)).graph
    g3, g4 = (generate(GenSpec("planted-clique", 8, k, 0.3, 3,
                               plant_count=1)).graph for k in (3, 4))
    gc.collect()
    gc.disable()
    try:
        assert ENGINE_CALLS[engine](h, g3, g4)
        assert gc.collect() == 0
    finally:
        gc.enable()
