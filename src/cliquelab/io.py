"""Line-oriented text formats for k-partite graphs and hypergraphs.

Graph format::

    kpartite <k>
    part <size>        (k lines)
    edges <m>
    <u> <v>            (m lines, global 0-based ids)

Hypergraph format::

    hypergraph <r> <k>
    part <size>        (k lines)
    edges <m>
    <v1> ... <vr>      (m lines)

Parsers reject intra-part edges, duplicate edges, id overflow and content
after the declared edges with line-numbered errors.  A declared vertex
total above ``MAX_DECLARED_VERTICES`` is refused with ``ResourceLimitError``
before any row is allocated.  Part membership is read from the part
bounds, not from a per-vertex table, so a hypergraph costs O(m) memory
beyond one bit per declared vertex.  The graph parser collects each
vertex's neighbours and builds its row once (``core.fill_rows``), so a
file costs one row slot per declared vertex plus O(m), and no big-int
copy per edge.
"""

from collections import defaultdict
from itertools import compress
from typing import Iterator, List, TextIO, Tuple, Union

from .core import KPartiteGraph, UniformHypergraph, fill_rows
from .errors import InvalidParameterError, ParseError, ResourceLimitError

MAX_DECLARED_VERTICES = 1 << 24


def _tokens(lines: Iterator[Tuple[int, str]]):
    """Yield (line_number, token_list) for non-blank, non-comment lines."""
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _ints(toks: List[str], lineno: int) -> List[int]:
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise ParseError(f"expected integers, got {toks!r}", lineno)


def parse(stream: TextIO) -> Union[KPartiteGraph, UniformHypergraph]:
    """Parse either format, dispatching on the header keyword."""
    lines = enumerate(stream, start=1)
    it = _tokens(lines)
    try:
        lineno, toks = next(it)
    except StopIteration:
        raise ParseError("empty input", 1)
    if toks[0] == "kpartite":
        return _parse_graph(it, lines, toks, lineno)
    if toks[0] == "hypergraph":
        return _parse_hypergraph(it, toks, lineno)
    raise ParseError(f"unknown header {toks[0]!r}", lineno)


def _parse_parts(it, k: int) -> List[int]:
    sizes = []
    for _ in range(k):
        lineno, toks = _next(it)
        if len(toks) != 2 or toks[0] != "part":
            raise ParseError("expected 'part <size>'", lineno)
        (size,) = _ints(toks[1:], lineno)
        if size < 0:
            raise ParseError("negative part size", lineno)
        sizes.append(size)
        total = sum(sizes)
        if total > MAX_DECLARED_VERTICES:
            raise ResourceLimitError(
                f"line {lineno}: parts declare {total} vertices, "
                f"limit is {MAX_DECLARED_VERTICES}",
                required=total, allowed=MAX_DECLARED_VERTICES)
    return sizes


def _next(it) -> Tuple[int, List[str]]:
    try:
        return next(it)
    except StopIteration:
        raise ParseError("unexpected end of input", 0)


def _expect_end(it) -> None:
    extra = next(it, None)
    if extra is not None:
        raise ParseError("content after the declared edges", extra[0])


def _parse_edge_count(it) -> Tuple[int, int]:
    lineno, toks = _next(it)
    if len(toks) != 2 or toks[0] != "edges":
        raise ParseError("expected 'edges <m>'", lineno)
    (m,) = _ints(toks[1:], lineno)
    if m < 0:
        raise ParseError("negative edge count", lineno)
    return lineno, m


def _parse_graph(it, lines, header, header_line) -> KPartiteGraph:
    if len(header) != 2:
        raise ParseError("expected 'kpartite <k>'", header_line)
    (k,) = _ints(header[1:], header_line)
    if k < 2:
        raise ParseError("k must be >= 2", header_line)
    sizes = _parse_parts(it, k)
    _, m = _parse_edge_count(it)
    g = KPartiteGraph(sizes)
    n = g.n_total
    # Edge lines are read from ``lines`` directly (``it`` resumes after
    # them), with the checks of ``_tokens`` and ``_ints`` inlined, in this
    # order: integers, token count, range, duplicate, intra-part.  An edge
    # is intra-part iff v lies in [lo, hi), the ids of u's part; ``write``
    # groups edges by u, so the bounds are looked up once per run of u.
    seen = set()            # u * n + v for each accepted edge, u < v
    neighbours = defaultdict(list)
    left = m
    last_u = lo = hi = -1
    if m:
        for lineno, raw in lines:
            if "#" in raw:
                raw = raw[:raw.index("#")]
            toks = raw.split()
            if len(toks) != 2:
                if not toks:
                    continue
                _ints(toks, lineno)
                raise ParseError("expected '<u> <v>'", lineno)
            try:
                u = int(toks[0])
                v = int(toks[1])
            except ValueError:
                raise ParseError(f"expected integers, got {toks!r}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range: {u} {v}", lineno)
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            seen.add(key)
            if u != last_u:
                i = g.part_of(u)
                last_u, lo = u, g.part_start[i]
                hi = lo + sizes[i]
            if lo <= v < hi:
                raise ParseError(f"intra-part edge {u} {v}", lineno)
            neighbours[u].append(v)
            neighbours[v].append(u)
            left -= 1
            if not left:
                break
        else:
            raise ParseError("unexpected end of input", 0)
    del seen
    fill_rows(g.adjacency, neighbours)
    _expect_end(it)
    return g


def _parse_hypergraph(it, header, header_line) -> UniformHypergraph:
    if len(header) != 3:
        raise ParseError("expected 'hypergraph <r> <k>'", header_line)
    r, k = _ints(header[1:], header_line)
    if r < 1 or k < r:
        raise ParseError("need 1 <= r <= k", header_line)
    sizes = _parse_parts(it, k)
    _, m = _parse_edge_count(it)
    h = UniformHypergraph(r, sizes)
    for _ in range(m):
        lineno, toks = _next(it)
        verts = _ints(toks, lineno)
        if len(verts) != r:
            raise ParseError(f"expected {r} vertex ids", lineno)
        key = tuple(sorted(verts))
        if key in h.edges:
            raise ParseError(f"duplicate hyperedge {verts}", lineno)
        try:
            h.add_sorted_edge(key)
        except InvalidParameterError as exc:
            raise ParseError(str(exc), lineno)
    _expect_end(it)
    return h


# Set-bit offsets of every byte value, for ``_bit_list``.
_BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1)
                   for x in range(256))


def _bit_list(bits: int, offset: int) -> List[int]:
    """Set-bit positions of ``bits``, plus ``offset``, ascending.

    Reads a byte at a time through ``_BYTE_BITS``, skipping zero bytes in
    C: fewer interpreter steps than ``bitops.iter_bits`` on the dense rows
    the writer sees, but more on a few bits of a wide mask, which is what
    engines pass, so only the writer uses it.
    """
    out = []
    append = out.append
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for i in compress(range(len(data)), data):
        base = offset + (i << 3)
        for b in _BYTE_BITS[data[i]]:
            append(base + b)
    return out


def write(obj: Union[KPartiteGraph, UniformHypergraph], stream: TextIO) -> None:
    """Write in the canonical text form (edges sorted ascending)."""
    if isinstance(obj, KPartiteGraph):
        stream.write(f"kpartite {obj.k}\n")
        for s in obj.part_sizes:
            stream.write(f"part {s}\n")
        # Edge (u, v), u < v, in order of u, then v: each row's bits above
        # u, one string per row.  Rows without an edge are skipped in C.
        keep = obj._vertex_mask()
        adj = obj.adjacency
        chunks = []
        m = 0
        for u in compress(range(len(adj)), adj):
            if not keep >> u & 1:
                continue
            vs = _bit_list((adj[u] & keep) >> (u + 1), u + 1)
            if vs:
                m += len(vs)
                prefix = f"{u} "
                chunks.append(prefix + ("\n" + prefix).join(map(str, vs))
                              + "\n")
        stream.write(f"edges {m}\n")
        stream.write("".join(chunks))
    else:
        stream.write(f"hypergraph {obj.r} {obj.k}\n")
        for s in obj.part_sizes:
            stream.write(f"part {s}\n")
        edges = sorted(obj.edges)
        stream.write(f"edges {len(edges)}\n")
        for e in edges:
            stream.write(" ".join(str(v) for v in e) + "\n")
