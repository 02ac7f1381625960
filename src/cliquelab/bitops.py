"""Bit-row helpers.

Vertex sets are represented as arbitrary-precision Python ints, one bit per
global vertex id.  Python's big ints give word-level parallelism for AND /
popcount without fixing a word width.
"""

from typing import Iterator, List

from .errors import InvalidParameterError


def mask_range(lo: int, hi: int) -> int:
    """All-ones mask covering bit positions [lo, hi)."""
    return ((1 << (hi - lo)) - 1) << lo


def mask_from_vertices(vertices) -> int:
    """Bitmask with one bit set per vertex id."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(bits: int) -> Iterator[int]:
    """Yield set-bit positions in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bits_to_list(bits: int) -> List[int]:
    return list(iter_bits(bits))


def split_bits(mask: int, size: int) -> List[int]:
    """Split a mask into consecutive chunks of ``size`` set bits, lowest
    bits first; the last chunk may be short.  An empty mask has no chunks."""
    if size < 1:
        raise InvalidParameterError("chunk size must be >= 1")
    out = []
    while mask.bit_count() > size:
        chunk = 0
        for _ in range(size):
            low = mask & -mask
            chunk |= low
            mask ^= low
        out.append(chunk)
    if mask:
        out.append(mask)
    return out
