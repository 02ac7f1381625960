"""Bit-row helpers.

Vertex sets are represented as arbitrary-precision Python ints, one bit per
global vertex id.  Python's big ints give word-level parallelism for AND /
popcount without fixing a word width.
"""

from itertools import compress
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


# Set-bit offsets of every byte value, for ``bits_to_list``.
_BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1)
                   for x in range(256))

# From this many set bits on, ``bits_to_list`` reads bytes.  The two walks
# cost about the same there on the part rows of small graphs; on dense rows
# of a few hundred bits the byte walk takes a third of the time.
_BYTE_WALK_FROM = 8


def bits_to_list(bits: int) -> List[int]:
    """Set-bit positions of ``bits``, ascending.

    Below ``_BYTE_WALK_FROM`` set bits it peels the lowest bit off, one
    AND and one XOR per bit.  From there on it reads ``bits`` a byte at a
    time through ``_BYTE_BITS``, skipping zero bytes in C, so a dense row
    costs a few interpreter steps per byte rather than big-int operations
    per bit.
    """
    out = []
    append = out.append
    if bits.bit_count() < _BYTE_WALK_FROM:
        while bits:
            low = bits & -bits
            append(low.bit_length() - 1)
            bits ^= low
        return out
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for i in compress(range(len(data)), data):
        base = i << 3
        for b in _BYTE_BITS[data[i]]:
            append(base + b)
    return out


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
