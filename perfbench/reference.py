"""Reference work: a fixed yardstick for the host's CPU speed.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to 2x as neighbours come and go, within an op and from run to run.
Before each op the loop times this reference work, whose code never
changes, and every reported time is scaled by ``REF_NOMINAL_S`` over the
mean of the reference times taken around it (``HostSpeed``).  A change to
``cliquelab`` moves only the op times; a slow phase of the host moves
both and largely cancels.

The work mixes the three kinds of work the engines do, so that it slows
down with them: big-int masks and popcounts in a tight loop, a bitset
walk over a graph's set bits (as in ``detect_naive`` and
``induced_subgraph``), and small numpy array passes (as in the
Four-Russians tables).  The reference time is the geometric mean of the
three parts' median times.
"""

import math
import random
import statistics
import time

import numpy as np

# A typical reference time on a 2-vCPU Xeon KVM guest (Python 3.11,
# numpy 2.4), whose runs read 0.29-0.52 ms: reported times are wall
# seconds on a host that runs the reference this fast.
REF_NOMINAL_S = 4e-4
REPEATS = 3
# Reference samples on each side of a timed sample whose mean scales it.
# A single reference sample lasts about 4 ms and may fall wholly in a
# fast or a slow phase, so a mean over several is taken.
WINDOW = 2

_WORD = (1 << 700) // 3 ^ (1 << 511) // 7
_N = 96


def _random_graph():
    rng = random.Random(7)
    adj = [0] * (3 * _N)
    for u in range(3 * _N):
        for v in range(u + 1, 3 * _N):
            if u // _N != v // _N and rng.random() < 0.3:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _random_graph()
_ARRAY = np.arange(4096, dtype=np.uint64)


def _masks() -> int:
    total, seen, word = 0, {}, _WORD
    for i in range(2500):
        total += ((word >> (i & 63)) & word).bit_count()
        seen[i & 127] = total
    return total


def _bitset_walk() -> int:
    """Common part-2 neighbours of 24 part-0 vertices and their edges."""
    part1 = ((1 << _N) - 1) << _N
    part2 = part1 << _N
    count = 0
    for u in range(24):
        row = _ADJ[u]
        rest = row & part1
        while rest:
            low = rest & -rest
            rest ^= low
            count += (row & _ADJ[low.bit_length() - 1] & part2).bit_count()
    return count


def _array_passes() -> int:
    x = _ARRAY
    for _ in range(40):
        x = (x * np.uint64(2654435761)) ^ (x >> np.uint64(7))
    return int(x[0])


PARTS = (_masks, _bitset_walk, _array_passes)


def reference_s() -> float:
    """One reference sample: geometric mean of each part's median time."""
    logs = 0.0
    for part in PARTS:
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            part()
            times.append(time.perf_counter() - t)
        logs += math.log(statistics.median(times))
    return math.exp(logs / len(PARTS))


class HostSpeed:
    """Reference samples taken between timed samples, and the samples.

    ``mark`` takes a reference sample; ``add`` records a wall time that
    lies between the last mark and the next one.  Call ``mark`` once more
    after the last sample.
    """

    def __init__(self):
        self.refs = []
        self.samples = {}        # kind -> [(wall seconds, next mark)]

    def mark(self) -> None:
        self.refs.append(reference_s())

    def add(self, kind: str, wall_s: float) -> None:
        self.samples.setdefault(kind, []).append((wall_s, len(self.refs)))

    def wall(self, kind: str):
        return [wall for wall, _ in self.samples.get(kind, ())]

    def scaled(self, kind: str):
        """The kind's samples in seconds on a host of nominal speed."""
        out = []
        for wall, j in self.samples.get(kind, ()):
            around = self.refs[max(0, j - WINDOW):j + WINDOW]
            out.append(wall * REF_NOMINAL_S / statistics.fmean(around))
        return out
