"""Portable counter-based pseudorandom numbers (splitmix64).

Every draw is a pure function of (seed, counter), so generated instances
are reproducible across platforms and numpy versions.  A vectorized path
produces whole 64-bit word arrays for bulk sampling; it imports numpy
when first called, so importing this module does not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, counter: int) -> int:
    """The counter-th output of the splitmix64 stream with this seed."""
    z = (seed + (counter + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix64_at(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 outputs at an array of uint64 counters."""
    import numpy as np
    with np.errstate(over="ignore"):
        z = np.uint64(seed & MASK64) + \
            (counters + np.uint64(1)) * np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
        return z ^ (z >> np.uint64(31))


def bernoulli_at(seed: int, counters: np.ndarray, p: float) -> np.ndarray:
    """Bernoulli(p) bools, one per counter: the draw at counter c is
    ``(splitmix64(seed, c) >> 11) * 2^-53 < p``."""
    import numpy as np
    words = splitmix64_at(seed, counters)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) < p


@dataclass
class CounterRng:
    """Stateful convenience wrapper around the pure splitmix64 stream."""

    seed: int
    counter: int = 0

    def next64(self) -> int:
        out = splitmix64(self.seed, self.counter)
        self.counter += 1
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = MASK64 - (MASK64 + 1) % bound
        while True:
            x = self.next64()
            if x <= limit:
                return x % bound

    def bernoulli_flags(self, count: int, p: float) -> np.ndarray:
        """``count`` Bernoulli(p) bools from the next ``count`` counters,
        each ``(next64() >> 11) * 2^-53 < p`` drawn one at a time."""
        import numpy as np
        hits = bernoulli_at(self.seed, np.arange(
            self.counter, self.counter + count, dtype=np.uint64), p)
        self.counter += count
        return hits

    def bernoulli_words(self, nbits: int, p: float) -> int:
        """Python int whose nbits low bits are independent Bernoulli(p).

        Built from vectorized 53-bit uniforms compared against p.
        """
        import numpy as np
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if nbits <= 0:
            return 0
        packed = np.packbits(self.bernoulli_flags(nbits, p),
                             bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")
