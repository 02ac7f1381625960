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
beyond one bit per declared vertex.

Either format's edge section is first read as a buffer, in chunks, by
one reader (``_read_ids``): at most as many characters as m canonical
lines of w ids (w = 2 for a graph, r for a hypergraph) can take, plus the
rest of the last line.  If its first m lines are all w runs of digits
split by single spaces, the ids are converted a chunk at a time and handed
to the format's consumer.  A graph's builds each touched vertex's row once
(``core.fill_rows``) and checks range, duplicates and intra-part edges on
the whole structure at once.  A hypergraph's checks each chunk in bulk:
every line's parts must rise strictly, which means sorted, distinct and one
vertex per part; the lines go into the edge set, and m distinct ones at the
end mean no duplicate.  Any other section (comments, blank lines, other
whitespace, too few lines, an unsorted hyperedge) or any failed check
drops that work, seeks the stream back to the start of the edge section
and runs the format's line parser over it: it alone knows which line is
the first bad one, so every error keeps its exact text and line number,
and it alone reads non-canonical whitespace and line ends other than
``\n``.  The header is read with ``readline``, which keeps a file's
``tell`` allowed.  A stream that cannot seek, or whose first line does not
end in a bare ``\n`` (so it may not split lines there), takes the line
parser at once.  Either way a graph costs one row slot per declared
vertex plus O(m), and no big-int copy per edge; a hypergraph costs O(m)
beyond its part masks.
"""

from bisect import bisect_right
from collections import defaultdict
from io import StringIO
from itertools import chain, compress, repeat
from operator import lt
from typing import Iterator, List, Optional, TextIO, Tuple, Union

from .bitops import bits_to_list
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
    # A line that ends in a bare \n shows that the stream splits at \n.
    first = stream.readline()
    at_newline = first.endswith("\n") and not first.endswith("\r\n")
    lines = enumerate(chain([first], iter(stream.readline, "")), start=1)
    it = _tokens(lines)
    try:
        lineno, toks = next(it)
    except StopIteration:
        raise ParseError("empty input", 1)
    if toks[0] == "kpartite":
        obj, edges_line, m = _graph_head(it, toks, lineno)
        from_buffer, from_lines = _edges_from_buffer, _edges_from_lines
    elif toks[0] == "hypergraph":
        obj, edges_line, m = _hypergraph_head(it, toks, lineno)
        from_buffer = _hyperedges_from_buffer
        from_lines = _hyperedges_from_lines
    else:
        raise ParseError(f"unknown header {toks[0]!r}", lineno)
    # ``it`` stops right after the edges line, so ``stream`` resumes at
    # the first edge line.  The buffer needs a stream that splits at \n
    # and can seek back, unless m = 0: then it reads nothing.
    start = stream.tell() if at_newline and stream.seekable() else None
    tail = from_buffer(obj, m, stream) if start is not None or not m else None
    if tail is None:
        if start is not None:
            stream.seek(start)
        lines = enumerate(stream, edges_line + 1)
        from_lines(obj, m, lines)
    else:
        lines = enumerate(chain(StringIO(tail), stream), edges_line + 1 + m)
    _expect_end(_tokens(lines))
    return obj


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


def _graph_head(it, header, header_line) -> Tuple[KPartiteGraph, int, int]:
    """The empty graph, its ``edges`` line number and m."""
    if len(header) != 2:
        raise ParseError("expected 'kpartite <k>'", header_line)
    (k,) = _ints(header[1:], header_line)
    if k < 2:
        raise ParseError("k must be >= 2", header_line)
    sizes = _parse_parts(it, k)
    edges_line, m = _parse_edge_count(it)
    return KPartiteGraph(sizes), edges_line, m


def _hypergraph_head(it, header,
                     header_line) -> Tuple[UniformHypergraph, int, int]:
    """The empty hypergraph, its ``edges`` line number and m."""
    if len(header) != 3:
        raise ParseError("expected 'hypergraph <r> <k>'", header_line)
    r, k = _ints(header[1:], header_line)
    if r < 1 or k < r:
        raise ParseError("need 1 <= r <= k", header_line)
    sizes = _parse_parts(it, k)
    edges_line, m = _parse_edge_count(it)
    return UniformHypergraph(r, sizes), edges_line, m


_CHUNK = 1 << 16            # characters of edge lines read at a time


def _read_ids(stream, m: int, width: int, n: int, take) -> Optional[str]:
    """Pass the ids of the next m lines of ``stream`` to ``take``, a chunk
    at a time, and return the text read past them, if each line is
    ``width`` runs of digits split by single spaces and ended by a
    newline, each id is below n, ``take`` accepts every chunk and the text
    past the m lines holds no ``\r`` (which a stream may or may not split
    lines at); else return None.

    A canonical line holds ``width`` ids below n, so m of them take at
    most ``m·width·(len(str(n)) + 1)`` characters: no more is read, plus
    the rest of the last line.  A chunk of c lines must be ASCII, read
    ``width − 1`` spaces and a newline c times over once its digits are
    deleted, and split into ``width·c`` tokens.  ``take`` gets the ids of
    whole lines, in file order, and returns whether they pass its checks.
    """
    budget, left, tail = m * width * (len(str(n)) + 1), m, ""
    shape = b" " * (width - 1) + b"\n"
    table, converted = None, 0
    while left:
        chunk = stream.read(min(_CHUNK, budget))
        if chunk[-1:] != "\n":
            chunk += stream.readline()
        budget -= len(chunk)
        lines = chunk.count("\n")
        if lines >= left:       # the m-th line ends in this chunk
            tail = chunk.split("\n", left)[-1]
            chunk = chunk[:len(chunk) - len(tail)]
            lines = left
        elif budget <= 0 or not chunk:
            return None
        tokens = chunk.split()
        if (len(tokens) != width * lines or not chunk.isascii()
                or chunk.encode().translate(None, b"0123456789")
                != shape * lines):
            return None
        # Once as many tokens are converted as there are ids, a lookup
        # among the decimal forms of 0..n-1 converts the rest about three
        # times as fast as int() and checks their range.  Built no
        # sooner, the table costs no more than the text already read.
        if table is None and converted >= n:
            table = {str(i): i for i in range(n)}
        if table is None:
            ids = list(map(int, tokens))
            if max(ids) >= n:
                return None
            converted += len(ids)
        else:
            try:
                ids = list(map(table.__getitem__, tokens))
            except KeyError:
                return None
        if not take(ids):
            return None
        left -= lines
    if "\r" in tail:
        return None
    return tail


def _edges_from_buffer(g: KPartiteGraph, m: int, stream) -> Optional[str]:
    """Fill ``g``'s rows from the next m lines of ``stream`` through
    ``_read_ids`` and return the text read past them, if each is
    ``<digits> <digits>`` and a newline and the edges are valid; else
    return None.

    The edges are checked at the end, on the rows: popcounts summing to
    2m (no duplicate) and no row meeting its own part's mask (no
    intra-part edge).
    """
    neighbours = defaultdict(list)

    def take(ids: List[int]) -> bool:
        pairs = iter(ids)
        for u, v in zip(pairs, pairs):
            neighbours[u].append(v)
            neighbours[v].append(u)
        return True

    tail = _read_ids(stream, m, 2, g.n_total, take)
    if tail is None:
        return None
    # Past this point the m lines are the line parser's m edges, so a
    # failed check means that parser raises: the rows need no undoing.
    adj = g.adjacency
    fill_rows(adj, neighbours)
    if (sum(adj[u].bit_count() for u in neighbours) != 2 * m
            or any(adj[u] & g.part_masks[g.part_of(u)] for u in neighbours)):
        return None
    return tail


def _hyperedges_from_buffer(h: UniformHypergraph, m: int,
                            stream) -> Optional[str]:
    """``_edges_from_buffer`` for a hypergraph: fill ``h.edges``, if each
    line is r ids, sorted and one to a part, and no two lines are the same
    hyperedge; else return None with ``h.edges`` empty.

    A line's parts (bisects on the part starts) rising strictly is the one
    test for sorted, distinct and one to a part; an unsorted line fails it
    too, and the line parser sorts it.  m distinct r-tuples at the end mean
    no duplicate.
    """
    r, start, edges = h.r, h.part_start, h.edges

    def take(ids: List[int]) -> bool:
        parts = list(map(bisect_right, repeat(start), ids))
        if not all(all(map(lt, parts[i::r], parts[i + 1::r]))
                   for i in range(r - 1)):
            return False
        edges.update(zip(*[iter(ids)] * r))
        return True

    tail = _read_ids(stream, m, r, h.n_total, take)
    if tail is None or len(edges) != m:
        edges.clear()
        return None
    return tail


def _edges_from_lines(g: KPartiteGraph, m: int, lines) -> None:
    """Fill ``g``'s rows from the next m >= 1 edge lines of ``lines``, a
    ``(line number, line)`` iterator, raising the first bad line's error.

    The checks of ``_tokens`` and ``_ints`` are inlined, in this order:
    integers, token count, range, duplicate, intra-part.  An edge is
    intra-part iff v lies in [lo, hi), the ids of u's part; ``write``
    groups edges by u, so the bounds are looked up once per run of u.
    """
    n, sizes = g.n_total, g.part_sizes
    seen = set()            # u * n + v for each accepted edge, u < v
    neighbours = defaultdict(list)
    left = m
    last_u = lo = hi = -1
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


def _hyperedges_from_lines(h: UniformHypergraph, m: int, lines) -> None:
    """Add the next m hyperedge lines of ``lines``, a ``(line number,
    line)`` iterator, to ``h``, raising the first bad line's error: in
    this order integers, token count, duplicate, then ``add_sorted_edge``'s
    checks."""
    it = _tokens(lines)
    for _ in range(m):
        lineno, toks = _next(it)
        verts = _ints(toks, lineno)
        if len(verts) != h.r:
            raise ParseError(f"expected {h.r} vertex ids", lineno)
        key = tuple(sorted(verts))
        if key in h.edges:
            raise ParseError(f"duplicate hyperedge {verts}", lineno)
        try:
            h.add_sorted_edge(key)
        except InvalidParameterError as exc:
            raise ParseError(str(exc), lineno)


def write(obj: Union[KPartiteGraph, UniformHypergraph], stream: TextIO) -> None:
    """Write in the canonical text form (edges sorted ascending).  A view
    (``KPartiteGraph.restrict``) keeps its parent's ids, so it is refused."""
    if obj.part_start is None:
        raise InvalidParameterError("a view keeps its parent's ids")
    if isinstance(obj, KPartiteGraph):
        stream.write(f"kpartite {obj.k}\n")
        for s in obj.part_sizes:
            stream.write(f"part {s}\n")
        # Edge (u, v), u < v, in order of u, then v: each row's bits above
        # u, listed by the byte walk of ``bits_to_list`` (rows are dense),
        # one string per row.  Rows without an edge are skipped in C.
        adj = obj.adjacency
        chunks = []
        m = 0
        for u in compress(range(len(adj)), adj):
            vs = bits_to_list(adj[u] >> (u + 1) << (u + 1))
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
        line = " ".join(["%d"] * obj.r) + "\n"
        stream.write("".join(map(line.__mod__, edges)))
