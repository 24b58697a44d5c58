"""The three text readers: every input parses or raises FormatError, and
write∘read is the identity on what the writers emit."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_turan import (
    FormatError,
    Graph,
    Hypergraph3,
    TraceCertificate,
    certificate_from_text,
    dumps_graph,
    dumps_hypergraph,
    loads_hypergraph,
)

from helpers import loads_graph

READERS = (loads_hypergraph, loads_graph, certificate_from_text)

TOKENS = st.sampled_from(["0", "1", "2", "3", "7", "-1", "+2", "x", "y", "|", "->", "1.5", "0x1", ""])
TOKEN_TEXT = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=6).map("\n".join)
FREE_TEXT = st.text(max_size=30)


@pytest.mark.parametrize(
    "read, text",
    [
        (loads_graph, "x 1\n"),
        (loads_graph, "-1 0\n"),
        (loads_graph, "3 2\n0 1\n1 0\n"),
        (loads_hypergraph, "-1 0\n"),
        (loads_hypergraph, "3 -1\n"),
        (loads_hypergraph, "1_0 1\n0 1 2\n"),
        (loads_hypergraph, "10 1\n0 1 +2\n"),
        (loads_hypergraph, "10 1\n0 \u0663 2\n"),
        (certificate_from_text, ""),
        (certificate_from_text, "0 1 | 2 3 |\nx 2 -> 0 2\n"),
        (certificate_from_text, "0 1 | 2 3 |\nz 2 -> 0 2 4\n"),
        (certificate_from_text, "0 | 2 3 |\n"),
        (
            certificate_from_text,
            "0 1 | 2 3 |\nx 2 -> 0 2 4\nx 3 -> 0 3 5\ny 2 -> 1 2 6\ny 3 -> 1 3 7\nx 2 -> 0 2 8\n",
        ),
    ],
)
def test_malformed_text_raises_format_error(read, text):
    with pytest.raises(FormatError):
        read(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(TOKEN_TEXT, FREE_TEXT))
def test_readers_parse_or_raise_format_error(text):
    for read in READERS:
        try:
            read(text)
        except FormatError:
            pass


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(0, 7))
    triples = list(itertools.combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    return Hypergraph3(n, edges)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@st.composite
def certificates(draw):
    vertex = st.integers(0, 20)
    d = tuple(draw(st.lists(vertex, unique=True, max_size=4)))
    triple = st.lists(vertex, min_size=3, max_size=3).map(lambda e: tuple(sorted(e)))
    assignment = {(side, u): draw(triple) for side in ("x", "y") for u in d}
    return TraceCertificate(draw(vertex), draw(vertex), d, assignment)


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_hypergraph_write_read_identity(h):
    text = dumps_hypergraph(h)
    assert loads_hypergraph(text) == h
    assert dumps_hypergraph(loads_hypergraph(text)) == text


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_graph_write_read_identity(g):
    text = dumps_graph(g)
    back = loads_graph(text)
    assert (back.vertices, back.edges) == (g.vertices, g.edges)
    assert dumps_graph(back) == text


@settings(max_examples=100, deadline=None)
@given(certificates())
def test_certificate_write_read_identity(cert):
    text = cert.to_text()
    assert certificate_from_text(text) == cert
    assert certificate_from_text(text).to_text() == text
