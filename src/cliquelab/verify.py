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
from .hyperclique import detect_hyperclique, list_hypercliques
from .kclique import detect_kclique
from .listing import list_all_triangles
from .oracles import brute_hypercliques, brute_kclique, brute_triangles
from .triangle import detect_four_russians, detect_naive


def _triangle_detect_ok(G: KPartiteGraph) -> bool:
    got = detect_four_russians(G)
    want = detect_naive(G)
    return (got is None) == (want is None)


def _triangle_list_ok(G: KPartiteGraph) -> bool:
    got = list_all_triangles(G).as_set()
    want = brute_triangles(G).as_set()
    return got == want


def _kclique_ok(G: KPartiteGraph) -> bool:
    return detect_kclique(G, G.k) == (brute_kclique(G, G.k) is not None)


def _hyperclique_detect_ok(H: UniformHypergraph) -> bool:
    want = len(brute_hypercliques(H, H.k, t=1).witnesses) > 0
    return detect_hyperclique(H, H.k) == want


def _hyperclique_list_ok(H: UniformHypergraph) -> bool:
    got = list_hypercliques(H, H.k).as_set()
    want = brute_hypercliques(H, H.k).as_set()
    return got == want


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
    sizes = list(H.part_sizes)
    sizes[H.part_of(v)] -= 1
    remap = {}
    new = 0
    for old in range(H.n_total):
        if old != v:
            remap[old] = new
            new += 1
    out = UniformHypergraph(H.r, sizes)
    for e in H.edges:
        if v not in e:
            out.add_edge(tuple(remap[u] for u in e))
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


def run_verify(check: str, specs: Iterable[GenSpec],
               max_failures: int = 5) -> VerifyReport:
    """Run one named check over many generated instances."""
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
        if len(report.failures) >= max_failures:
            break
    return report


def gnp_sweep(kind: str, n_per_part: int, k: int, ps, seeds,
              r: Optional[int] = None, plant_count: int = 0) -> List[GenSpec]:
    """Convenience grid of specs over probabilities x seeds."""
    return [GenSpec(kind=kind, n_per_part=n_per_part, k=k, p=p, seed=s,
                    r=r, plant_count=plant_count)
            for p in ps for s in seeds]
