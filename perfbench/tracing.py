"""Outside-in tracing for the benchmark: spans and counts recorded from
the benchmark's own files, around calls into the engines' public functions.

A probe is handed to every op.  ``Untraced`` forwards calls unchanged;
``Tracer`` records one span (op id, name, start, end, parent) per call and
counts read from public return values.  Layers that an engine reaches only
through another engine are traced by swapping a wrapper in at the module
attribute the caller looks up (``PATCHES``), for the duration of one
traced op.  Spans stay in memory until the run ends.
"""

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List


class Untraced:
    """Probe for timed runs: every hook is a plain call or a no-op."""

    def call(self, name: str, fn: Callable, *args):
        return fn(*args)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def count(self, key: str, n: float = 1) -> None:
        pass

    def nodes(self):
        return None


def _fr_table(table) -> Dict[str, float]:
    reach = getattr(table, "reach", None)
    return {"triangle.fr_table_bytes": getattr(reach, "nbytes", 0)}


def _partition(partition) -> Dict[str, float]:
    return {"regularity.unverified": not getattr(partition, "verified", True)}


def _detailed(listing) -> Dict[str, float]:
    plans = getattr(listing, "plans", [])
    return {"listing.plans": len(plans),
            "listing.plan_cost": sum(p.estimated_cost for p in plans),
            "listing.triangles": len(listing.result.witnesses)}


def _tables(tables) -> Dict[str, float]:
    return {"hyperclique.table_entries": len(getattr(tables, "entries", ()))}


# (module, attribute the caller imports, span name, counts from the result)
PATCHES = (
    ("cliquelab.listing", "induced_subgraph", "core.induced", None),
    ("cliquelab.kclique", "induced_subgraph", "core.induced", None),
    ("cliquelab.listing", "weak_regular_partition", "regularity.partition",
     _partition),
    ("cliquelab.listing", "list_triangles_detailed", "listing.detailed",
     _detailed),
    ("cliquelab.listing", "list_triangles_threshold", "listing.threshold",
     None),
    ("cliquelab.listing", "list_sparse_four_russians", "triangle.sparse", None),
    ("cliquelab.listing", "list_sparse_pivoted", "triangle.sparse", None),
    ("cliquelab.triangle", "build_block_edge_table", "triangle.fr_build",
     _fr_table),
    ("cliquelab.hyperclique", "build_tables", "hyperclique.build", _tables),
    ("cliquelab.hyperclique", "compress_all", "hyperclique.compress", None),
)


class Tracer:
    """Probe for the traced run: records spans and counts in memory."""

    def __init__(self):
        self.spans: List[list] = []        # [op, name, start, end, parent]
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        rec = [self.op_id, name, 0.0, 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                for key, n in on_result(result).items():
                    self.counts[key] += n
            return result
        return traced

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def nodes(self):
        return []

    @contextmanager
    def patched(self):
        """Swap every ``PATCHES`` wrapper in; a missing name is skipped."""
        undo = []
        try:
            for modname, attr, name, on_result in PATCHES:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                setattr(mod, attr, self.wrap(name, orig, on_result))
                undo.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)

    def totals(self):
        """Per span name: (call count, summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


# Self-time layers: metric -> span names whose self time it sums.
SELF_TIMES = {
    "core.copy_s": ("core.copy",),
    "core.induced_s": ("core.induced",),
    "triangle.fr_build_s": ("triangle.fr_build",),
    "triangle.fr_query_s": ("triangle.fr_query",),
    "triangle.naive_s": ("triangle.naive",),
    "triangle.sparse_s": ("triangle.sparse",),
    "triangle.base_detect_s": ("triangle.base_detect",),
    "regularity.partition_s": ("regularity.partition",),
    "listing.self_s": ("listing.all", "listing.threshold", "listing.detailed"),
    "kclique.detect_s": ("kclique.detect",),
    "kclique.witness_s": ("kclique.witness",),
    "hyperclique.build_s": ("hyperclique.build",),
    "hyperclique.compress_s": ("hyperclique.compress",),
    "hyperclique.probe_s": ("hyperclique.probe",),
}

CALL_COUNTS = {
    "core.induced_calls": "core.induced",
    "triangle.sparse_calls": "triangle.sparse",
    "triangle.base_detect_calls": "triangle.base_detect",
    "regularity.partition_calls": "regularity.partition",
    "listing.threshold_rounds": "listing.threshold",
}

COUNTS = ("triangle.fr_table_bytes", "regularity.unverified", "listing.plans",
          "listing.triangles", "kclique.detector_calls",
          "kclique.nodes.heavy-vertex", "kclique.nodes.depth-cap",
          "kclique.nodes.sparse-base", "hyperclique.table_entries")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per traced op means of every layer's self time and counts.

    The root span ``op`` covers one whole traced op; its own self time is
    the share no layer span covers, reported as ``trace.overhead_frac``.
    """
    calls, total, self_s = tracer.totals()
    ops = calls["op"]
    out = {metric: sum(self_s[n] for n in names) / ops
           for metric, names in SELF_TIMES.items()}
    out.update({metric: calls[name] / ops
                for metric, name in CALL_COUNTS.items()})
    out.update({key: tracer.counts[key] / ops for key in COUNTS})
    cost = tracer.counts["listing.plan_cost"]
    out["listing.triangles_per_cost"] = (
        tracer.counts["listing.triangles"] / cost if cost else 0.0)
    out["trace.op_s"] = total["op"] / ops
    out["trace.overhead_frac"] = self_s["op"] / total["op"]
    return out
