"""The four benchmark workloads: instance recipes, ops and answer checks.

Every op builds a fresh graph object over a copy of an instance that was
generated, written and parsed during set-up, then calls engines through
their public functions.  The probe passed to an op either forwards calls
(timed runs) or records spans and counts (the traced run).  Why each
workload exists, and which desk-scale defaults it overrides, is in
README.md next to this file.
"""

from dataclasses import dataclass
from typing import Callable

from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.generate import GenSpec, generate
from cliquelab.hyperclique import HypercliqueParams, list_hypercliques
from cliquelab.kclique import RecursionParams, detect_kclique, find_witness
from cliquelab.listing import list_all_triangles
from cliquelab.oracles import (UNBOUNDED, brute_hypercliques, brute_kclique,
                               brute_triangles)
from cliquelab.triangle import detect_four_russians, detect_naive

import families


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int
    make: Callable[[int], list]             # instance seed -> graphs
    expect: Callable[[list], object]        # parsed graphs -> answer
    op: Callable[[list, object], object]    # (parsed graphs, probe) -> result
    check: Callable[[object, object, list], bool]


def fresh(obj):
    """A new graph object over a copy of a parsed instance's rows."""
    if isinstance(obj, KPartiteGraph):
        return KPartiteGraph(obj.part_sizes, list(obj.adjacency))
    H = UniformHypergraph(obj.r, obj.part_sizes)
    H.edges = set(obj.edges)
    return H


def _same_list(result, expected: set) -> bool:
    """Complete, duplicate-free listing equal to the oracle's set."""
    return (not result.truncated and len(result.witnesses) == len(expected)
            and result.as_set() == expected)


# -- trifree-detect ---------------------------------------------------------

TRIFREE_N, TRIFREE_P = 384, 0.5


def _trifree_op(graphs, probe):
    G = probe.call("core.copy", fresh, graphs[0])
    return (probe.call("triangle.fr_query", detect_four_russians, G),
            probe.call("triangle.naive", detect_naive, G))


# The family is triangle-free by construction (tested on small instances),
# so both detectors must answer None.
TRIFREE = Workload(
    name="trifree-detect", instances=3,
    make=lambda seed: [families.triangle_free(TRIFREE_N, TRIFREE_P, seed)],
    expect=lambda graphs: (None, None),
    op=_trifree_op,
    check=lambda result, expected, graphs: result == expected)


# -- gnp-list-all ------------------------------------------------------------

GNP_N, GNP_PS = 22, (0.3, 0.5)


def _gnp_make(seed):
    p = GNP_PS[seed % len(GNP_PS)]
    return [generate(GenSpec("gnp-kpartite", GNP_N, 3, p, seed)).graph]


def _gnp_op(graphs, probe):
    G = probe.call("core.copy", fresh, graphs[0])
    return probe.call("listing.all", list_all_triangles, G)


GNP_LIST_ALL = Workload(
    name="gnp-list-all", instances=120,
    make=_gnp_make,
    expect=lambda graphs: brute_triangles(graphs[0]).as_set(),
    op=_gnp_op,
    check=lambda result, expected, graphs: _same_list(result, expected))


# -- k4-recursion ------------------------------------------------------------

K4_N, K4_P = 40, 0.5
# choose_params gives depth cap 0 below n = 2^16, which skips the recursion.
K4_PARAMS = RecursionParams(depth_cap=2, alpha=0.05)


def _k4_make(seed):
    G, _ = families.hub_k4(K4_N, K4_P, seed, planted=bool(seed % 2))
    return [G]


def _k4_op(graphs, probe):
    G = probe.call("core.copy", fresh, graphs[0])
    nodes = probe.nodes()
    base = probe.wrap("triangle.base_detect", detect_naive)

    def detector(H, k):
        probe.count("kclique.detector_calls")
        return probe.call("kclique.detect", detect_kclique, H, k, base,
                          K4_PARAMS, nodes)

    found = probe.call("kclique.detect", detect_kclique, G, 4, base,
                       K4_PARAMS, nodes)
    witness = probe.call("kclique.witness", find_witness, detector, G, 4)
    for node in nodes or ():
        probe.count("kclique.nodes." + node.branch)
    return found, witness


def _is_k4(G: KPartiteGraph, w) -> bool:
    return (len(w) == 4 and all(G.part_of(v) == i for i, v in enumerate(w))
            and all(G.has_edge(w[i], w[j])
                    for i in range(4) for j in range(i + 1, 4)))


def _k4_check(result, expected: bool, graphs) -> bool:
    found, witness = result
    if found != expected or (witness is not None) != expected:
        return False
    return witness is None or _is_k4(graphs[0], witness)


K4_RECURSION = Workload(
    name="k4-recursion", instances=96,
    make=_k4_make,
    expect=lambda graphs: brute_kclique(graphs[0], 4) is not None,
    op=_k4_op,
    check=_k4_check)


# -- hyper-tables ------------------------------------------------------------

# choose_block_size gives s = 1 at these sizes (probe-bound); the second
# half forces s = 2 so the table build dominates.
HYPER_PROBE_N, HYPER_BUILD_N, HYPER_P = 10, 8, 0.4
HYPER_S2 = HypercliqueParams(s=2, k=4, r=3)


def _hyper_make(seed):
    return [generate(GenSpec("planted-hyperclique", n, 4, HYPER_P, seed, r=3,
                             plant_count=1)).graph
            for n in (HYPER_PROBE_N, HYPER_BUILD_N)]


def _hyper_op(graphs, probe):
    H1 = probe.call("core.copy", fresh, graphs[0])
    default = probe.call("hyperclique.probe", list_hypercliques, H1, 4)
    H2 = probe.call("core.copy", fresh, graphs[1])
    s2 = probe.call("hyperclique.probe", list_hypercliques, H2, 4, UNBOUNDED,
                    HYPER_S2)
    return default, s2


HYPER_TABLES = Workload(
    name="hyper-tables", instances=60,
    make=_hyper_make,
    expect=lambda graphs: [brute_hypercliques(H, 4).as_set() for H in graphs],
    op=_hyper_op,
    check=lambda result, expected, graphs: all(
        _same_list(r, e) for r, e in zip(result, expected)))


WORKLOADS = {w.name: w for w in (TRIFREE, GNP_LIST_ALL, K4_RECURSION,
                                 HYPER_TABLES)}
