"""Cross-checking the fast algorithms against brute-force oracles.

run_verify generates seeded random instances, runs a named check on each,
and on any mismatch greedily shrinks the instance to a small reproducer
(emitted in the canonical text format).
"""

import io as _io
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from . import io as graphio
from .core import KPartiteGraph, UniformHypergraph
from .errors import InvalidParameterError
from .generate import GenSpec, generate
from .hyperclique import (choose_block_size, detect_hyperclique,
                          list_hypercliques)
from .kclique import find_kclique
from .listing import list_all_triangles, list_triangles
from .oracles import brute_hypercliques, brute_kclique, brute_triangles
from .regularity import RegularityConfig
from .triangle import detect_four_russians, detect_naive


def _witness_ok(G: KPartiteGraph, got, want) -> bool:
    """Found exactly when the reference finds, and what was found is a
    cross-part clique of G in part order."""
    if (got is None) != (want is None):
        return False
    return got is None or G.is_cross_clique(got)


def _listing_ok(got, want: set) -> bool:
    """Complete, untruncated and duplicate-free: equal sets alone would
    pass a lister that emits a witness twice."""
    return (not got.truncated and len(got.witnesses) == len(want)
            and got.as_set() == want)


def _triangle_detect_ok(G: KPartiteGraph) -> bool:
    want = brute_kclique(G, 3)
    return all(_witness_ok(G, detect(G), want)
               for detect in (detect_four_russians, detect_naive))


def _triangle_list_ok(G: KPartiteGraph) -> bool:
    """Both listers pass ``_listing_ok``.  The pipeline runs at epsilon
    0.05, below the exact certificate's reach, so its sampled partition
    check runs too."""
    want = brute_triangles(G).as_set()
    sampled = RegularityConfig(epsilon=0.05)
    return all(_listing_ok(got, want)
               for got in (list_all_triangles(G),
                           list_triangles(G, None, sampled).result))


def _kclique_ok(G: KPartiteGraph) -> bool:
    return _witness_ok(G, find_kclique(G, G.k), brute_kclique(G, G.k))


def _hyperclique_engines(H: UniformHypergraph) -> tuple:
    """params of the default DFS (None) and of the table engine."""
    return None, choose_block_size(max(2, max(H.part_sizes)), H.k, H.r)


def _hyperclique_detect_ok(H: UniformHypergraph) -> bool:
    want = len(brute_hypercliques(H, H.k, t=1).witnesses) > 0
    return all(detect_hyperclique(H, H.k, params) == want
               for params in _hyperclique_engines(H))


def _hyperclique_list_ok(H: UniformHypergraph) -> bool:
    """Both engines pass ``_listing_ok``, as for triangle-list."""
    want = brute_hypercliques(H, H.k).as_set()
    return all(_listing_ok(list_hypercliques(H, H.k, params=params), want)
               for params in _hyperclique_engines(H))


CHECKS: dict = {
    "triangle-detect": _triangle_detect_ok,
    "triangle-list": _triangle_list_ok,
    "kclique-detect": _kclique_ok,
    "hyperclique-detect": _hyperclique_detect_ok,
    "hyperclique-list": _hyperclique_list_ok,
}


@dataclass
class Mismatch:
    spec: GenSpec
    reproducer: str       # canonical text form of the shrunk instance


@dataclass
class VerifyReport:
    check: str
    instances: int = 0
    failures: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _remove_vertex_graph(G: KPartiteGraph, v: int) -> KPartiteGraph:
    """Standalone copy without v: every id above v moves down by one."""
    sizes = list(G.part_sizes)
    sizes[G.part_of(v)] -= 1
    low = (1 << v) - 1
    rows = [(row & low) | (row >> (v + 1) << v)
            for u, row in enumerate(G.adjacency) if u != v]
    return KPartiteGraph(sizes, rows)


def _remove_vertex_hyper(H: UniformHypergraph, v: int) -> UniformHypergraph:
    """Copy without v: every id above v moves down by one, which keeps
    each edge sorted."""
    sizes = list(H.part_sizes)
    sizes[H.part_of(v)] -= 1
    out = UniformHypergraph(H.r, sizes)
    for e in H.edges:
        if v not in e:
            out.add_sorted_edge(tuple(u - (u > v) for u in e))
    return out


def shrink(instance, failing: Callable) -> object:
    """Greedy vertex-removal minimization keeping the failure alive."""
    remove = (_remove_vertex_hyper if isinstance(instance, UniformHypergraph)
              else _remove_vertex_graph)
    changed = True
    while changed:
        changed = False
        for v in range(instance.n_total - 1, -1, -1):
            smaller = remove(instance, v)
            try:
                still_bad = not failing(smaller)
            except InvalidParameterError:
                still_bad = False
            if still_bad:
                instance = smaller
                changed = True
    return instance


MAX_FAILURES = 5          # run_verify stops at this many mismatches


def run_verify(check: str, specs: Iterable[GenSpec]) -> VerifyReport:
    """Run one named check over many generated instances; specs that
    yield no instance are rejected, since such a run checks nothing."""
    if check not in CHECKS:
        raise InvalidParameterError(
            f"unknown check {check!r}; known: {sorted(CHECKS)}")
    ok_fn = CHECKS[check]
    report = VerifyReport(check=check)
    for spec in specs:
        report.instances += 1
        inst = generate(spec)
        if ok_fn(inst.graph):
            continue
        small = shrink(inst.graph, ok_fn)
        buf = _io.StringIO()
        graphio.write(small, buf)
        report.failures.append(Mismatch(spec=spec, reproducer=buf.getvalue()))
        if len(report.failures) >= MAX_FAILURES:
            break
    if not report.instances:
        raise InvalidParameterError(f"{check}: no instances to check")
    return report


def gnp_sweep(kind: str, n_per_part: int, k: int, ps, seeds,
              r: Optional[int] = None) -> List[GenSpec]:
    """Convenience grid of specs over probabilities x seeds."""
    return [GenSpec(kind=kind, n_per_part=n_per_part, k=k, p=p, seed=s, r=r)
            for p in ps for s in seeds]
