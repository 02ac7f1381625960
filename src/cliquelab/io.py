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
after the declared edges with line-numbered errors.
"""

from typing import List, TextIO, Tuple, Union

from .core import KPartiteGraph, UniformHypergraph
from .errors import InvalidParameterError, ParseError


def _tokens(stream: TextIO):
    """Yield (line_number, token_list) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(stream, start=1):
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
    it = _tokens(stream)
    try:
        lineno, toks = next(it)
    except StopIteration:
        raise ParseError("empty input", 1)
    if toks[0] == "kpartite":
        return _parse_graph(it, toks, lineno)
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


def _parse_graph(it, header, header_line) -> KPartiteGraph:
    if len(header) != 2:
        raise ParseError("expected 'kpartite <k>'", header_line)
    (k,) = _ints(header[1:], header_line)
    if k < 2:
        raise ParseError("k must be >= 2", header_line)
    sizes = _parse_parts(it, k)
    _, m = _parse_edge_count(it)
    g = KPartiteGraph(sizes)
    seen = set()
    for _ in range(m):
        lineno, toks = _next(it)
        uv = _ints(toks, lineno)
        if len(uv) != 2:
            raise ParseError("expected '<u> <v>'", lineno)
        u, v = uv
        if not (0 <= u < g.n_total and 0 <= v < g.n_total):
            raise ParseError(f"vertex id out of range: {u} {v}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        seen.add(key)
        try:
            if g.part_of(u) == g.part_of(v):
                raise InvalidParameterError("intra-part")
            g.adjacency[u] |= 1 << v
            g.adjacency[v] |= 1 << u
        except InvalidParameterError:
            raise ParseError(f"intra-part edge {u} {v}", lineno)
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
            h.add_edge(verts)
        except InvalidParameterError as exc:
            raise ParseError(str(exc), lineno)
    _expect_end(it)
    return h


def write(obj: Union[KPartiteGraph, UniformHypergraph], stream: TextIO) -> None:
    """Write in the canonical text form (edges sorted ascending)."""
    if isinstance(obj, KPartiteGraph):
        stream.write(f"kpartite {obj.k}\n")
        for s in obj.part_sizes:
            stream.write(f"part {s}\n")
        edges = sorted(obj.edges())
        stream.write(f"edges {len(edges)}\n")
        for u, v in edges:
            stream.write(f"{u} {v}\n")
    else:
        stream.write(f"hypergraph {obj.r} {obj.k}\n")
        for s in obj.part_sizes:
            stream.write(f"part {s}\n")
        edges = sorted(obj.edges)
        stream.write(f"edges {len(edges)}\n")
        for e in edges:
            stream.write(" ".join(str(v) for v in e) + "\n")
