"""Text format parsing, writing, and roundtrip identity."""

import hashlib
import io
import random
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.errors import (InvalidParameterError, ParseError,
                              ResourceLimitError)
from cliquelab.generate import GenSpec, generate
from cliquelab.io import MAX_DECLARED_VERTICES, parse, write


def roundtrip(obj):
    buf = io.StringIO()
    write(obj, buf)
    return parse(io.StringIO(buf.getvalue())), buf.getvalue()


def test_graph_roundtrip_exact():
    for seed in range(5):
        g = generate(GenSpec("gnp-kpartite", 6, 3, 0.4, seed)).graph
        back, text = roundtrip(g)
        assert isinstance(back, KPartiteGraph)
        assert back.part_sizes == g.part_sizes
        assert back.adjacency == g.adjacency
        # writing the parsed graph again is byte-identical
        _, text2 = roundtrip(back)
        assert text2 == text


def test_write_refuses_a_view():
    # The view's parts hold 1, 1 and 2 vertices under the parent's ids, so
    # its file would declare 4 vertices with an edge "0 4".
    g = KPartiteGraph.from_edges([2, 2, 2], [(0, 2), (2, 4), (0, 4), (1, 3)])
    with pytest.raises(InvalidParameterError):
        write(g.restrict(0b110101), io.StringIO())
    back, text = roundtrip(g)
    assert back.adjacency == g.adjacency and roundtrip(back)[1] == text


def test_hypergraph_roundtrip_exact():
    for seed in range(5):
        h = generate(GenSpec("gnp-hypergraph", 4, 4, 0.3, seed, r=3)).graph
        back, text = roundtrip(h)
        assert isinstance(back, UniformHypergraph)
        assert back.part_sizes == h.part_sizes
        assert back.edges == h.edges
        _, text2 = roundtrip(back)
        assert text2 == text


def test_comments_and_blank_lines_ignored():
    text = "# header comment\nkpartite 2\npart 1\n\npart 1\nedges 1\n0 1  # e\n"
    g = parse(io.StringIO(text))
    assert g.has_edge(0, 1)


# The line each case below reports, keyed by its message.
_ERROR_LINES = {"empty": 1, "unknown header": 1, "intra-part": 5,
                "out of range": 5, "duplicate": 6, "part": 3,
                "3 vertex ids": 7, "after the declared edges": 7}


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("weird 3\n", "unknown header"),
    ("kpartite 2\npart 1\npart 1\nedges 1\n0 0\n", "intra-part"),
    ("kpartite 2\npart 1\npart 1\nedges 1\n0 7\n", "out of range"),
    ("kpartite 2\npart 1\npart 1\nedges 2\n0 1\n1 0\n", "duplicate"),
    ("kpartite 2\npart 1\nedges 0\n", "part"),
    ("hypergraph 3 4\npart 1\npart 1\npart 1\npart 1\nedges 1\n0 1\n", "3 vertex ids"),
    ("kpartite 3\npart 1\npart 1\npart 1\nedges 1\n0 1\n2 0\ngarbage here\n",
     "after the declared edges"),
])
def test_parse_errors_carry_line_numbers(text, msg):
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO(text))
    assert msg in str(exc.value)
    assert exc.value.line == _ERROR_LINES[msg]


# Parts {0, 1}, {2, 3}, {4, 5}; comments and blank lines sit among the
# header and edge lines, so no error line is an edge index plus a header
# length.  "BAD" marks where a case puts its bad line.
_GRAPH_LINES = ["# three parts", "kpartite 3", "part 2", "", "part 2",
                "  # indented comment", "part 2", "edges 4", "0 2",
                "# between edges", "", "1 4   # trailing comment", "BAD",
                "3 5", "# tail"]


@pytest.mark.parametrize("bad,msg", [
    ("0 x", "expected integers"),
    ("0 2 x", "expected integers"),
    ("0 2 4", "expected '<u> <v>'"),
    ("0 6", "out of range"),
    ("-1 2", "out of range"),
    ("0 2", "duplicate edge 0 2"),
    ("2 0", "duplicate edge 2 0"),
    ("4 1", "duplicate edge 4 1"),
    ("0 1", "intra-part edge 0 1"),
    ("0 0", "intra-part edge 0 0"),
], ids=["non-integer", "non-integer-of-three", "three-tokens",
        "out-of-range", "negative", "duplicate", "duplicate-reversed",
        "duplicate-reversed-after-comment", "intra-part", "self-loop"])
def test_parse_error_lines_among_comments(bad, msg):
    lines = [bad if x == "BAD" else x for x in _GRAPH_LINES]
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO("\n".join(lines) + "\n"))
    assert msg in str(exc.value)
    assert exc.value.line == _GRAPH_LINES.index("BAD") + 1 == 13


def test_parse_error_line_after_edges_and_at_end():
    lines = ["5 0" if x == "BAD" else x for x in _GRAPH_LINES]
    g = parse(io.StringIO("\n".join(lines)))
    assert sorted(g.edges()) == [(0, 2), (0, 5), (1, 4), (3, 5)]
    extra = lines + ["", "# still fine", "2 5", "2 4"]
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO("\n".join(extra)))
    assert "after the declared edges" in str(exc.value)
    assert exc.value.line == len(lines) + 3
    short = [x for x in lines if x != "3 5"]      # declares 4, has 3
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO("\n".join(short)))
    assert "unexpected end of input" in str(exc.value)
    assert exc.value.line == 0


# A 3-uniform hypergraph on parts {0, 1}, {2, 3}, {4, 5}; its second edge
# line, line 8, is the bad one.
_HYPER_HEAD = "hypergraph 3 3\npart 2\npart 2\npart 2\nedges 2\n\n0 2 4\n"


@pytest.mark.parametrize("bad,msg", [
    ("0 2", "expected 3 vertex ids"),
    ("0 2 4 5", "expected 3 vertex ids"),
    ("2 0 2", "hyperedge (0, 2, 2) is not 3 distinct vertices"),
    ("-1 2 4", "vertex id out of range: -1"),
    ("1 3 6", "vertex id out of range: 6"),
    ("1 7 9", "vertex id out of range: 7"),
    ("5 0 1", "hyperedge (0, 1, 5) has vertices in a shared part"),
    ("1 2 5 # parts 0, 1, 2", None),
    ("0 1 9", "vertex id out of range: 9"),
], ids=["too-few", "too-many", "repeated-vertex", "below-zero",
        "at-n-total", "first-out-of-range", "shared-part", "valid",
        "range-before-shared-part"])
def test_hypergraph_edge_line_errors(bad, msg):
    stream = io.StringIO(_HYPER_HEAD + bad + "\n")
    if msg is None:
        assert parse(stream).edges == {(0, 2, 4), (1, 2, 5)}
        return
    with pytest.raises(ParseError) as exc:
        parse(stream)
    assert str(exc.value).endswith(msg)
    assert exc.value.line == 8


def test_hypergraph_duplicate_line():
    text = ("hypergraph 2 3\npart 1\n\npart 1\npart 1\nedges 3\n"
            "0 1\n# comment\n\n1 2\n# comment\n1 0\n")
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO(text))
    assert "duplicate hyperedge [1, 0]" in str(exc.value)
    assert exc.value.line == 12


def test_random_text_edge_order_is_canonicalized():
    rng = random.Random(3)
    g = generate(GenSpec("gnp-kpartite", 5, 3, 0.5, 9)).graph
    edges = sorted(g.edges())
    shuffled = list(edges)
    rng.shuffle(shuffled)
    text = f"kpartite {g.k}\n"
    text += "".join(f"part {s}\n" for s in g.part_sizes)
    text += f"edges {len(shuffled)}\n"
    text += "".join(f"{u} {v}\n" for u, v in shuffled)
    back = parse(io.StringIO(text))
    assert back.adjacency == g.adjacency
    _, canonical = roundtrip(g)
    _, canonical2 = roundtrip(back)
    assert canonical == canonical2


@pytest.mark.parametrize("header", ["kpartite 3", "hypergraph 2 3"])
def test_declared_vertex_total_is_capped(header):
    text = f"{header}\npart 1\npart 100000000000\npart 1\nedges 0\n"
    with pytest.raises(ResourceLimitError) as exc:
        parse(io.StringIO(text))
    assert exc.value.allowed == MAX_DECLARED_VERTICES
    assert exc.value.required > exc.value.allowed
    assert "line 3" in str(exc.value)


def test_declared_vertex_cap_boundary(monkeypatch):
    from cliquelab import io as graphio
    monkeypatch.setattr(graphio, "MAX_DECLARED_VERTICES", 5)
    ok = parse(io.StringIO("kpartite 2\npart 2\npart 3\nedges 0\n"))
    assert ok.n_total == 5
    with pytest.raises(ResourceLimitError):
        parse(io.StringIO("kpartite 2\npart 3\npart 3\nedges 0\n"))


def _reference_text(g: KPartiteGraph) -> str:
    """The canonical form spelled out: header, then edges sorted."""
    edges = sorted(g.edges())
    return (f"kpartite {g.k}\n"
            + "".join(f"part {s}\n" for s in g.part_sizes)
            + f"edges {len(edges)}\n"
            + "".join(f"{u} {v}\n" for u, v in edges))


@st.composite
def edge_files(draw):
    """Random part sizes (0 and 1 included), p in {0, 1, random}, and a
    file listing the edges shuffled, in either orientation, among
    comment and blank lines."""
    sizes = draw(st.lists(st.integers(0, 7), min_size=2, max_size=4))
    p = draw(st.sampled_from([0.0, 1.0, None]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if p is None:
        p = rng.random()
    g = KPartiteGraph(sizes)
    rows = [0] * g.n_total
    edges = []
    for u in range(g.n_total):
        for v in range(u + 1, g.n_total):
            if g.part_of(u) != g.part_of(v) and rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(edges)
    noise = ["", "# comment", "   ", "#"]
    lines = [f"kpartite {len(sizes)}"]
    lines += [f"part {s}" for s in sizes] + [f"edges {len(edges)}"]
    body = []
    for u, v in edges:
        if rng.random() < 0.3:
            body.append(rng.choice(noise))
        body.append(f"{u} {v}" + ("  # e" if rng.random() < 0.2 else ""))
    return "\n".join(lines + body + [rng.choice(noise)]), sizes, rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_files())
def test_parse_builds_rows_and_write_is_canonical(case):
    text, sizes, rows = case
    g = parse(io.StringIO(text))
    assert g.part_sizes == sizes
    assert g.adjacency == rows
    buf = io.StringIO()
    write(g, buf)
    assert buf.getvalue() == _reference_text(g)
    again = io.StringIO()
    write(parse(io.StringIO(buf.getvalue())), again)
    assert again.getvalue() == buf.getvalue()


def test_wide_sparse_graph_roundtrip():
    # Two parts of 2^15 vertices and four edges: nearly every row is empty,
    # and the ids run past any byte or digit boundary.
    half = 1 << 15
    edges = [(0, half), (5, half + 7), (100, 2 * half - 1),
             (half - 1, half + 255)]
    g = KPartiteGraph.from_edges([half, half], edges)
    text = (f"kpartite 2\npart {half}\npart {half}\nedges 4\n"
            + "".join(f"{u} {v}\n" for u, v in edges))
    back, written = roundtrip(g)
    assert written == text
    assert back.adjacency == g.adjacency


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of the canonical text of generated graphs, and of the sorted
# edge lists of generated hypergraphs (the two hyperclique sizes of the
# benchmark's ``hyper-tables`` among them).  They pin the generator's
# streams together with the writer.
GRAPH_DIGESTS = [
    (GenSpec("gnp-kpartite", 40, 3, 0.3, 11),
     "22a6ba20bb911ec10e270b8f6dceb195334bd41ed4c0e74ceac6135cb3d22a38"),
    (GenSpec("gnp-kpartite", 17, 4, 0.7, 5),
     "348e78d599cd2ea8a081c7d71a97500e531881811adfcbbf0fbc68de4adbd434"),
    (GenSpec("planted-clique", 20, 4, 0.2, 3, plant_count=2),
     "a8ed8bffbbb74dfa50766caeee96f6db802681342a7da4a0190436d553e08f88"),
]
HYPER_DIGESTS = [
    (GenSpec("planted-hyperclique", 8, 4, 0.4, 1, r=3, plant_count=1),
     "e9b83f5c917c65db35ad5f5c046eecadae508398d52c0c0e270ad780ff1c608e"),
    (GenSpec("planted-hyperclique", 10, 4, 0.4, 2, r=3, plant_count=1),
     "82595ac1a2773eb53d5cefa224e59e59e0675e26e0399794f10253eb83e3f271"),
    (GenSpec("gnp-hypergraph", 5, 4, 0.3, 7, r=3),
     "0d790c5c492c1db4798ce89eaaed3cb7db6cffd188185559c2c303ea22f6cc03"),
]


# Digests of the written text of the hypergraphs above and of one r = 2
# hypergraph: they pin the writer's hyperedge lines byte for byte.
WRITTEN_HYPER_DIGESTS = [
    (HYPER_DIGESTS[0][0],
     "b5233cfef95fd17c7f2467a1337bfa0971234e8211d4c95e33ea1b10e00c5714"),
    (HYPER_DIGESTS[1][0],
     "b1e5d5f1b12f2b004a306257862832d8db604b8f8b0949516e85d8bc162b6561"),
    (HYPER_DIGESTS[2][0],
     "fb0aaae508b1d6d4ba9eb247f8dfad3c1c3f888e0602be91f0b9f4f81ddc2565"),
    (GenSpec("gnp-hypergraph", 9, 3, 0.5, 4, r=2),
     "15cf5ea55ed7ca52d7a17989ae26fd3657458aecc5c682cf8cf0996c9c1d8a12"),
]


@pytest.mark.parametrize("spec,digest", WRITTEN_HYPER_DIGESTS)
def test_written_hypergraph_digests_pinned(spec, digest):
    buf = io.StringIO()
    write(generate(spec).graph, buf)
    assert _sha(buf.getvalue()) == digest


@pytest.mark.parametrize("spec,digest", GRAPH_DIGESTS)
def test_written_graph_digests_pinned(spec, digest):
    buf = io.StringIO()
    write(generate(spec).graph, buf)
    assert _sha(buf.getvalue()) == digest


@pytest.mark.parametrize("spec,digest", HYPER_DIGESTS)
def test_generated_hypergraph_digests_pinned(spec, digest):
    assert _sha(repr(sorted(generate(spec).graph.edges))) == digest


# -- the edge-section buffer and the line parser ------------------------------

def _line_by_line(lines, sizes):
    """Rows, or (error text, line), from reading a graph file's edge lines
    one at a time with the checks in the parser's order: integers, token
    count, range, duplicate, intra-part.  ``lines`` are the file's lines;
    the header must be canonical: ``kpartite``, one ``part`` line per
    part, ``edges``."""
    g = KPartiteGraph(sizes)
    n, k = g.n_total, len(sizes)
    left = int(lines[k + 1].split()[1])
    seen, edges = set(), []
    for lineno, raw in enumerate(lines[k + 2:], k + 3):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if not left:
            return "content after the declared edges", lineno
        try:
            ids = [int(t) for t in toks]
        except ValueError:
            return f"expected integers, got {toks!r}", lineno
        if len(ids) != 2:
            return "expected '<u> <v>'", lineno
        u, v = ids
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex id out of range: {u} {v}", lineno
        if (min(u, v), max(u, v)) in seen:
            return f"duplicate edge {u} {v}", lineno
        seen.add((min(u, v), max(u, v)))
        if g.part_of(u) == g.part_of(v):
            return f"intra-part edge {u} {v}", lineno
        edges.append((u, v))
        left -= 1
    if left:
        return "unexpected end of input", 0
    return KPartiteGraph.from_edges(sizes, edges).adjacency


def _parsed(stream):
    """``parse``'s rows, or (error text, line) of its ``ParseError``."""
    try:
        return parse(stream).adjacency
    except ParseError as exc:
        return str(exc).split(": ", 1)[1], exc.line


@st.composite
def canonical_graph_files(draw):
    """A canonical graph file (parts of 0 to 6 vertices, k in {2, 3, 4},
    p in {0, 1, random}, so ``edges 0`` too), its part sizes and edges.
    Edges come in random order and orientation, as ``<u> <v>`` lines."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4))
    p = draw(st.sampled_from([0.0, 1.0, None]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if p is None:
        p = rng.random()
    g = KPartiteGraph(sizes)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(g.n_total) for v in range(u + 1, g.n_total)
             if g.part_of(u) != g.part_of(v) and rng.random() < p]
    rng.shuffle(edges)
    text = (f"kpartite {len(sizes)}\n"
            + "".join(f"part {s}\n" for s in sizes)
            + f"edges {len(edges)}\n"
            + "".join(f"{u} {v}\n" for u, v in edges))
    return text, sizes, edges


def _no_line_parser(g, m, lines):
    raise AssertionError("a canonical edge section reached the line parser")


# Characters read per chunk: one line per chunk, a few lines, one chunk.
_CHUNKS = st.sampled_from([1, 5, 24, 1 << 16])


@settings(max_examples=200, deadline=None)
@given(canonical_graph_files(), _CHUNKS)
def test_canonical_edge_section_takes_the_buffer(case, chunk):
    from cliquelab import io as graphio
    text, sizes, edges = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        mp.setattr(graphio, "_edges_from_lines", _no_line_parser)
        g = parse(io.StringIO(text))
        # what follows the edges is still read as lines
        tail = parse(io.StringIO(text + "\n# done\n  \n"))
    expected = KPartiteGraph.from_edges(sizes, edges).adjacency
    assert g.adjacency == tail.adjacency == expected


# ``int`` reads any Unicode decimal digits, such as these.
_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _mutations(g: KPartiteGraph, lines, rng):
    """Ways to turn the edge lines of a canonical file into one that only
    the line parser can accept or reject."""
    n = g.n_total
    i = rng.randrange(len(lines) + 1)       # where a line goes in
    j = min(i, len(lines) - 1)              # a line that exists, if any
    cases = {
        "comment": lines[:i] + ["# note"] + lines[i:],
        "blank": lines[:i] + [""] + lines[i:],
        "extra": lines + [f"{rng.randrange(n)} {rng.randrange(n)}"],
        "one id": lines[:i] + [str(rng.randrange(n))] + lines[i:],
        "out of range": lines[:i] + [f"0 {n + rng.randrange(3)}"] + lines[i:],
    }
    if j >= 0:
        u, v = lines[j].split()
        cases.update({
            "trailing comment": lines[:j] + [f"{u} {v} # e"] + lines[j + 1:],
            "tab": lines[:j] + [f"{u}\t{v}"] + lines[j + 1:],
            "crlf": lines[:j] + [f"{u} {v}\r"] + lines[j + 1:],
            "leading zero": lines[:j] + [f"0{u} {v}"] + lines[j + 1:],
            "other digits": lines[:j] + [f"{u} {v}".translate(_ARABIC)]
            + lines[j + 1:],
            "surrogate": lines[:j] + [f"{u} \udc80{v}"] + lines[j + 1:],
            "missing": lines[:j] + lines[j + 1:],
            "duplicate": lines[:i] + [lines[j]] + lines[i:],
            "reversed duplicate": lines[:i] + [f"{v} {u}"] + lines[i:],
            "three ids": lines[:j] + [f"{u} {v} {v}"] + lines[j + 1:],
            "two spaces": lines[:j] + [f"{u}  {v}"] + lines[j + 1:],
            "self-loop": lines[:j] + [f"{u} {u}"] + lines[j + 1:],
        })
        part = g.part_vertices(g.part_of(int(v)))
        if len(part) > 1:
            w = part[0] if int(v) != part[0] else part[1]
            cases["intra-part"] = (lines[:j] + [f"{u} {v}", f"{w} {v}"]
                                   + lines[j + 1:])
    return cases


def _mutated_files(case, seed):
    """(name, file) for each mutation of a canonical file's edge lines,
    declaring the canonical and the mutated edge count."""
    text, sizes, edges = case
    head, body = text.split(f"edges {len(edges)}\n")
    lines = body.split("\n")[:-1]
    g = KPartiteGraph(sizes)
    if not g.n_total:
        return
    for name, mutated in _mutations(g, lines, random.Random(seed)).items():
        for declared in {len(edges), len(mutated)}:
            yield name, (head + f"edges {declared}\n"
                         + "".join(line + "\n" for line in mutated))


@settings(max_examples=150, deadline=None)
@given(canonical_graph_files(), st.integers(0, 2 ** 32 - 1), _CHUNKS)
def test_non_canonical_edge_sections_parse_line_by_line(case, seed, chunk):
    from cliquelab import io as graphio
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        for name, file in _mutated_files(case, seed):
            assert (_parsed(io.StringIO(file))
                    == _line_by_line(file.split("\n"), case[1])), name


def test_bare_cr_line_ends_parse_as_lines():
    text = "kpartite 3\rpart 1\rpart 1\rpart 1\redges 2\r0 1\r1 2\r"
    for newline in ("", "\r"):
        g = parse(io.StringIO(text, newline=newline))
        assert g.adjacency == [2, 5, 2]
    # a "\r" stream does not end a line at "\n"
    data = b"kpartite 2\rpart 2\rpart 2\redges 2\r0 2\n1 3\n"
    stream = io.TextIOWrapper(io.BytesIO(data), "ascii", newline="\r")
    assert _parsed(stream) == ("expected '<u> <v>'", 5)


def _streams(text: str, end: str):
    """``text`` with every line end made ``end``, opened as text files with
    universal newlines and with newline ``end``, and as StringIOs with
    newline "" and "\n".  A "\n" stream reads a file of bare "\r" as one
    line, so it is left out there."""
    text = text.replace("\n", end)
    data = text.encode("utf-8", "surrogateescape")
    for newline in (None, end):
        yield io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape",
                               newline)
    yield io.StringIO(text, newline="")
    if end == "\r\n":
        yield io.StringIO(text, newline="\n")


@settings(max_examples=100, deadline=None)
@given(canonical_graph_files(), st.integers(0, 2 ** 32 - 1), _CHUNKS)
def test_cr_and_crlf_files_parse_as_the_stream_splits_lines(case, seed,
                                                             chunk):
    # each stream is compared with the line parser over its own lines
    from cliquelab import io as graphio
    files = [("canonical", case[0]), *_mutated_files(case, seed)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        for name, file in files:
            for end in ("\r", "\r\n"):
                for stream, again in zip(_streams(file, end),
                                         _streams(file, end)):
                    assert (_parsed(stream)
                            == _line_by_line(list(again), case[1])), name


class _Unseekable(io.BytesIO):
    def seekable(self) -> bool:
        return False


@settings(max_examples=50, deadline=None)
@given(canonical_graph_files(), st.integers(0, 2 ** 32 - 1))
def test_unseekable_stream_takes_the_line_parser(case, seed):
    from cliquelab import io as graphio
    real = graphio._edges_from_buffer

    def empty_only(g, m, stream):
        assert m == 0, "an unseekable stream reached the buffer"
        return real(g, m, stream)
    files = [("canonical", case[0]), *_mutated_files(case, seed)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_edges_from_buffer", empty_only)
        for name, file in files:
            data = file.encode("utf-8", "surrogateescape")
            stream = io.TextIOWrapper(_Unseekable(data), "utf-8",
                                      "surrogateescape")
            assert (_parsed(stream)
                    == _line_by_line(file.split("\n"), case[1])), name


class _CountingReader:
    """A text stream that counts how far into its text it has read."""

    def __init__(self, text: str, seekable: bool = True):
        self._inner = io.StringIO(text)
        self._seekable = seekable
        self.chars = 0

    def _count(self, s: str) -> str:
        self.chars = max(self.chars, self._inner.tell())
        return s

    def seekable(self) -> bool:
        return self._seekable

    def tell(self) -> int:
        return self._inner.tell()

    def seek(self, pos: int) -> int:
        return self._inner.seek(pos)

    def read(self, size: int = -1) -> str:
        return self._count(self._inner.read(size))

    def readline(self) -> str:
        return self._count(self._inner.readline())

    def __iter__(self):
        return self

    def __next__(self) -> str:
        return self._count(next(self._inner))


def test_edge_section_read_is_bounded():
    # the buffer of a seekable stream and the line parser alike
    for seekable in (True, False):
        head = "kpartite 2\npart 3\npart 3\nedges 3\n0 3\n1 4\n2 5\n"
        stream = _CountingReader(head + "1 3\n" * 10 ** 5, seekable)
        with pytest.raises(ParseError) as exc:
            parse(stream)
        assert "content after the declared edges" in str(exc.value)
        assert exc.value.line == 8
        # the header, three lines of at most 2 * 1 + 2 characters, one more
        assert stream.chars <= len(head) + 4
        # lines longer than canonical ones end the buffer at its bound too
        padded = head.replace("\n0 3\n", "\n000000 3\n")
        stream = _CountingReader(padded + "1 3\n" * 10 ** 5, seekable)
        with pytest.raises(ParseError) as exc:
            parse(stream)
        assert exc.value.line == 8
        assert stream.chars <= len(padded) + 4
        huge = _CountingReader("kpartite 2\npart 1\npart 1\n"
                               "edges 99999999999999999999\n0 1\n",
                               seekable)
        with pytest.raises(ParseError) as exc:
            parse(huge)
        assert "unexpected end of input" in str(exc.value)
        assert exc.value.line == 0


def test_edge_section_from_a_file(tmp_path):
    # a real text file: readline over the header, then reads of the edges
    g = generate(GenSpec("gnp-kpartite", 30, 3, 0.5, 4)).graph
    buf = io.StringIO()
    write(g, buf)
    path = tmp_path / "g.txt"
    path.write_text(buf.getvalue() + "# end\n\n")
    with open(path) as fh:
        assert parse(fh).adjacency == g.adjacency
    path.write_text(buf.getvalue().replace("\n", "\r\n") + "0 1\r\n")
    with open(path) as fh, pytest.raises(ParseError) as exc:
        parse(fh)
    assert "content after the declared edges" in str(exc.value)
    assert exc.value.line == buf.getvalue().count("\n") + 1


# -- the same for hypergraph edge sections ------------------------------------

def _hyper_line_by_line(lines, r, sizes):
    """The edge set, or (error text, line), from reading a hypergraph
    file's edge lines one at a time with the checks in the parser's order:
    integers, token count, duplicate, distinct, range, one vertex per
    part.  ``lines`` are the file's lines; the header must be canonical:
    ``hypergraph``, one ``part`` line per part, ``edges``."""
    layout = UniformHypergraph(r, sizes)
    n, k = layout.n_total, len(sizes)
    left = int(lines[k + 1].split()[1])
    edges = set()
    for lineno, raw in enumerate(lines[k + 2:], k + 3):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if not left:
            return "content after the declared edges", lineno
        try:
            verts = [int(t) for t in toks]
        except ValueError:
            return f"expected integers, got {toks!r}", lineno
        if len(verts) != r:
            return f"expected {r} vertex ids", lineno
        e = tuple(sorted(verts))
        if e in edges:
            return f"duplicate hyperedge {verts}", lineno
        if len(set(e)) != r:
            return f"hyperedge {e} is not {r} distinct vertices", lineno
        bad = [v for v in e if not 0 <= v < n]
        if bad:
            return f"vertex id out of range: {bad[0]}", lineno
        if len({layout.part_of(v) for v in e}) != r:
            return f"hyperedge {e} has vertices in a shared part", lineno
        edges.add(e)
        left -= 1
    if left:
        return "unexpected end of input", 0
    return edges


def _hyper_parsed(stream):
    """``parse``'s edge set, or (error text, line) of its ``ParseError``."""
    try:
        return parse(stream).edges
    except ParseError as exc:
        return str(exc).split(": ", 1)[1], exc.line


@st.composite
def canonical_hyper_files(draw):
    """A canonical hypergraph file (r in {1, 2, 3}, k from r to 4, parts
    of 0 to 5 vertices, p in {0, 1, random}, so ``edges 0`` too), r, its
    part sizes and hyperedges.  Lines are sorted, in random order."""
    r = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 5), min_size=max(r, 2),
                          max_size=4))
    p = draw(st.sampled_from([0.0, 1.0, None]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if p is None:
        p = rng.random()
    layout = UniformHypergraph(r, sizes)
    edges = [e for parts in combinations(range(len(sizes)), r)
             for e in product(*map(layout.part_vertices, parts))
             if rng.random() < p]
    rng.shuffle(edges)
    text = (f"hypergraph {r} {len(sizes)}\n"
            + "".join(f"part {s}\n" for s in sizes)
            + f"edges {len(edges)}\n"
            + "".join(" ".join(map(str, e)) + "\n" for e in edges))
    return text, r, sizes, set(edges)


@settings(max_examples=200, deadline=None)
@given(canonical_hyper_files(), _CHUNKS)
def test_canonical_hyperedge_section_takes_the_buffer(case, chunk):
    from cliquelab import io as graphio
    text, r, sizes, edges = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        mp.setattr(graphio, "_hyperedges_from_lines", _no_line_parser)
        h = parse(io.StringIO(text))
        tail = parse(io.StringIO(text + "\n# done\n  \n"))
    assert h.r == r and h.part_sizes == sizes
    assert h.edges == tail.edges == edges


def _hyper_mutations(h: UniformHypergraph, lines, rng):
    """Ways to turn the edge lines of a canonical hypergraph file into one
    that only the line parser can accept or reject."""
    n, r = h.n_total, h.r
    i = rng.randrange(len(lines) + 1)       # where a line goes in
    j = min(i, len(lines) - 1)              # a line that exists, if any

    def ids(count):
        return " ".join(str(rng.randrange(n)) for _ in range(count))
    cases = {
        "comment": lines[:i] + ["# note"] + lines[i:],
        "blank": lines[:i] + [""] + lines[i:],
        "extra": lines + [ids(r)],
        "too many": lines[:i] + [ids(r + 1)] + lines[i:],
        "out of range": lines[:i] + [f"{n + rng.randrange(3)} {ids(r - 1)}"
                                     .rstrip()] + lines[i:],
    }
    if r > 1:
        cases["too few"] = lines[:i] + [ids(r - 1)] + lines[i:]
    if j < 0:
        return cases
    line = lines[j]
    toks = line.split()

    def put(new):
        return lines[:j] + [new] + lines[j + 1:]
    cases.update({
        "trailing comment": put(line + " # e"),
        "tab": put("\t".join(toks) + ("\t" if r == 1 else "")),
        "two spaces": put("  ".join(toks) + ("  " if r == 1 else "")),
        "crlf": put(line + "\r"),
        "leading zero": put("0" + line),
        "other digits": put(line.translate(_ARABIC)),
        "surrogate": put(" ".join(toks[:-1] + ["\udc80" + toks[-1]])),
        "missing": lines[:j] + lines[j + 1:],
        "duplicate": lines[:i] + [line] + lines[i:],
        "permuted duplicate": lines[:i] + [" ".join(toks[::-1])] + lines[i:],
    })
    if r > 1:
        cases["unsorted"] = put(" ".join(toks[::-1]))
        cases["repeated vertex"] = put(" ".join([toks[0]] + toks[:-1]))
        v = int(toks[0])
        part = h.part_vertices(h.part_of(v))
        if len(part) > 1:
            w = part[0] if v != part[0] else part[1]
            cases["shared part"] = put(" ".join([str(w)] + toks[:-1]))
    return cases


def _mutated_hyper_files(case, seed):
    """(name, file) for each mutation of a canonical hypergraph file's edge
    lines, declaring the canonical and the mutated edge count."""
    text, r, sizes, edges = case
    head, body = text.split(f"edges {len(edges)}\n")
    lines = body.split("\n")[:-1]
    h = UniformHypergraph(r, sizes)
    if not h.n_total:
        return
    for name, mutated in _hyper_mutations(h, lines,
                                          random.Random(seed)).items():
        for declared in {len(edges), len(mutated)}:
            yield name, (head + f"edges {declared}\n"
                         + "".join(line + "\n" for line in mutated))


@settings(max_examples=150, deadline=None)
@given(canonical_hyper_files(), st.integers(0, 2 ** 32 - 1), _CHUNKS)
def test_non_canonical_hyperedge_sections_parse_line_by_line(case, seed,
                                                             chunk):
    from cliquelab import io as graphio
    _, r, sizes, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        for name, file in _mutated_hyper_files(case, seed):
            assert (_hyper_parsed(io.StringIO(file))
                    == _hyper_line_by_line(file.split("\n"), r, sizes)), name


@settings(max_examples=100, deadline=None)
@given(canonical_hyper_files(), st.integers(0, 2 ** 32 - 1), _CHUNKS)
def test_cr_and_crlf_hypergraph_files_parse_as_the_stream_splits_lines(
        case, seed, chunk):
    from cliquelab import io as graphio
    _, r, sizes, _ = case
    files = [("canonical", case[0]), *_mutated_hyper_files(case, seed)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_CHUNK", chunk)
        for name, file in files:
            for end in ("\r", "\r\n"):
                for stream, again in zip(_streams(file, end),
                                         _streams(file, end)):
                    assert (_hyper_parsed(stream)
                            == _hyper_line_by_line(list(again), r, sizes)
                            ), name


@settings(max_examples=50, deadline=None)
@given(canonical_hyper_files(), st.integers(0, 2 ** 32 - 1))
def test_unseekable_hypergraph_stream_takes_the_line_parser(case, seed):
    from cliquelab import io as graphio
    _, r, sizes, _ = case
    real = graphio._hyperedges_from_buffer

    def empty_only(h, m, stream):
        assert m == 0, "an unseekable stream reached the buffer"
        return real(h, m, stream)
    files = [("canonical", case[0]), *_mutated_hyper_files(case, seed)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_hyperedges_from_buffer", empty_only)
        for name, file in files:
            data = file.encode("utf-8", "surrogateescape")
            stream = io.TextIOWrapper(_Unseekable(data), "utf-8",
                                      "surrogateescape")
            assert (_hyper_parsed(stream)
                    == _hyper_line_by_line(file.split("\n"), r, sizes)), name


def test_hyperedge_section_read_is_bounded():
    # the buffer of a seekable stream and the line parser alike
    for seekable in (True, False):
        head = ("hypergraph 3 3\npart 3\npart 3\npart 3\nedges 3\n"
                "0 3 6\n1 4 7\n2 5 8\n")
        stream = _CountingReader(head + "1 3 6\n" * 10 ** 5, seekable)
        with pytest.raises(ParseError) as exc:
            parse(stream)
        assert "content after the declared edges" in str(exc.value)
        assert exc.value.line == 9
        # the header, three lines of at most 3 * 1 + 3 characters, one more
        assert stream.chars <= len(head) + 6
        # lines longer than canonical ones end the buffer at its bound too
        padded = head.replace("\n0 3 6\n", "\n000000 3 6\n")
        stream = _CountingReader(padded + "1 3 6\n" * 10 ** 5, seekable)
        with pytest.raises(ParseError) as exc:
            parse(stream)
        assert exc.value.line == 9
        assert stream.chars <= len(padded) + 6
        huge = _CountingReader("hypergraph 2 2\npart 1\npart 1\n"
                               "edges 99999999999999999999\n0 1\n",
                               seekable)
        with pytest.raises(ParseError) as exc:
            parse(huge)
        assert "unexpected end of input" in str(exc.value)
        assert exc.value.line == 0


@pytest.mark.parametrize("text", [
    "kpartite 2\npart 1\npart 99999\nedges 1\n0 1\n",
    "hypergraph 2 2\npart 1\npart 99999\nedges 1\n0 1\n"])
def test_cr_past_the_edges_splits_as_the_stream_does(text):
    # A stream with newline "" ends a line at a bare "\r" too, so the
    # comment below is one line and "0 1" is content after the edges.
    # The buffer may read 14 characters for one edge line of 4: it reads
    # both into its tail.
    data = text + "# note\r0 1\n"
    for stream in (io.StringIO(data, newline=""),
                   io.TextIOWrapper(io.BytesIO(data.encode()), "ascii",
                                    newline="")):
        with pytest.raises(ParseError) as exc:
            parse(stream)
        assert "content after the declared edges" in str(exc.value)
        assert exc.value.line == 7


def test_wide_sparse_hypergraph_takes_the_buffer():
    # Four parts of 2^22 vertices and four hyperedges: the buffer's cost
    # must not grow with n, and its edges are the line parser's.
    from cliquelab import io as graphio
    size = 1 << 22
    edges = [(0, size, 2 * size), (5, size + 7, 3 * size + 9),
             (size - 1, 3 * size - 1, 4 * size - 1),
             (size + 255, 2 * size + 256, 3 * size + 257)]
    text = (f"hypergraph 3 4\n" + f"part {size}\n" * 4 + "edges 4\n"
            + "".join("%d %d %d\n" % e for e in edges))
    by_lines = parse(io.TextIOWrapper(_Unseekable(text.encode()), "ascii"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_hyperedges_from_lines", _no_line_parser)
        h = parse(io.StringIO(text))
    assert h.n_total == 4 * size
    assert h.edges == by_lines.edges == set(edges)
    assert roundtrip(h)[1] == text
