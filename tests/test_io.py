"""Text format parsing, writing, and roundtrip identity."""

import io
import random

import pytest

from cliquelab.core import KPartiteGraph, UniformHypergraph
from cliquelab.errors import ParseError
from cliquelab.generate import GenSpec, generate
from cliquelab.io import parse, write


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
    assert exc.value.line >= 0


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
