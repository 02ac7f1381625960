"""Scalar baseline and timing helper for the benchmark-sanity tests.

Timings use calibrated inner-loop repetition (each sample runs the
callable enough times to cross a minimum wall-clock floor), so
sub-microsecond detections are still measurable.  The engine benchmark
itself lives in ``perfbench/``.
"""

import time
from typing import Callable, List, Optional, Tuple

from cliquelab.core import KPartiteGraph
from cliquelab.errors import InvalidParameterError


def detect_scalar_reference(G: KPartiteGraph) -> Optional[Tuple[int, int, int]]:
    """Triple-loop detection probing one adjacency bit per operation.

    The textbook triple loop: every (v1, v2, v3) combination tests the
    three edges with short-circuit evaluation, probing one adjacency bit
    per operation.  It shares the bit-row representation with the fast
    engines but never intersects whole rows; this is the word-free
    baseline the bit-parallel engines are compared against.
    """
    if G.k != 3:
        raise InvalidParameterError(f"expected 3 parts, got {G.k}")
    part1, part2, part3 = (G.part_vertices(i) for i in range(3))
    adj = G.adjacency
    for v1 in part1:
        row1 = adj[v1]
        for v2 in part2:
            row2 = adj[v2]
            for v3 in part3:
                if (row1 >> v2) & 1 and (row1 >> v3) & 1 and (row2 >> v3) & 1:
                    return (v1, v2, v3)
    return None


def time_callable(fn: Callable[[], object], repeats: int = 5,
                  min_sample_seconds: float = 0.02) -> List[float]:
    """Per-call seconds for `repeats` samples, inner loop auto-calibrated."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_sample_seconds:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return samples
