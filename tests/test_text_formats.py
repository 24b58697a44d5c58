"""The three text readers: every input parses or raises FormatError, and
write∘read is the identity on what the writers emit."""

import itertools
import random
import sys
from collections import Counter

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

from helpers import loads_graph, reference_loads_edge_lines

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
        (certificate_from_text, "0 1 | 2 3\n"),
        (certificate_from_text, "0 1 | 2 | 3 |\n"),
        (certificate_from_text, "0 1 || 2 3\n"),
        (certificate_from_text, "0 1 | 2 3 | 4\n"),
        (certificate_from_text, "0 x | 2 3 |\n"),
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


def _read(read, text):
    """What a reader makes of text: the object's content, or the error's
    message and line."""
    try:
        obj = read(text)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return "ok", obj


def _reference_hypergraph(text):
    return reference_loads_edge_lines(text, 3, Hypergraph3, Hypergraph3.add_edge)


GOOD_TOKENS = ["0", "1", "2", "3", "4", "5", "6", "-0", "007"]
BAD_TOKENS = ["+2", "1_0", "\u0663", "\uff11", "x", "1.5", "0x1", "--1", ""]
BREAKS = ["\n", "\r\n", "\x1c"]


def _edge_line_texts(rng, arity, spaces):
    """A seeded edge-list text around a valid one: tokens joined by any
    whitespace, with some lines given a bad token, a wrong token count, a
    loop, a repeat or an out-of-range vertex, blank lines put in, and the
    header's edge count sometimes off."""
    inside = [c for c in spaces if len(f"a{c}b".splitlines()) == 1]

    def gap(least):
        pool = spaces if rng.random() < 0.1 else inside
        return "".join(rng.choice(pool) for _ in range(rng.randint(least, 2)))

    def line(tokens):
        return gap(0) + "".join(tok + gap(1) for tok in tokens[:-1]) + tokens[-1] + gap(0)

    n = rng.randint(0, 7)
    tuples = list(itertools.combinations(range(n), arity))
    edges = rng.sample(tuples, min(len(tuples), rng.randint(0, 5)))
    rows = [[str(v) for v in e] for e in edges]
    for row in rows:
        roll = rng.random()
        if roll < 0.05:
            row[rng.randrange(arity)] = rng.choice(BAD_TOKENS)
        elif roll < 0.1 and rng.random() < 0.5:
            row.append(rng.choice(GOOD_TOKENS))
        elif roll < 0.1:
            row.pop()
        elif roll < 0.15:
            row[1] = row[0]
        elif roll < 0.2:
            row[-1] = rng.choice([str(n), "-1"])
        elif roll < 0.25:
            row[0] = rng.choice(GOOD_TOKENS)
    if rows and rng.random() < 0.1:
        rows.append(list(rng.choice(rows)))
    lines = [line(row) if row else "" for row in rows]
    for _ in range(rng.choice((0, 0, 1, 2))):
        lines.insert(rng.randint(0, len(lines)), gap(0))
    m = len(edges) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    head = [str(n), str(m)]
    if rng.random() < 0.05:
        head[rng.randrange(2)] = rng.choice(BAD_TOKENS + ["-1"])
    text = "".join(ln + rng.choice(BREAKS) for ln in [line(head), *lines])
    return text if rng.random() < 0.9 else text.rstrip()


# the defects the readers name, one phrase of each message
DEFECTS = (
    "missing header",
    "header must be",
    "non-integer header",
    "negative count",
    "edge line must have",
    "non-integer vertex",
    "distinct vertices",
    "duplicate edge",
    "out of range",
    "header promised",
)


def test_edge_line_reader_matches_token_by_token_reference():
    # the one-match reader must accept the texts the token-by-token reader
    # accepted, build the same object, and name every defect with the same
    # message and line
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\x0b", "\x0c", "\x1f", "\x85", "\xa0", "\u3000"} <= set(spaces)
    texts = []
    for c in spaces:
        texts += [f"5 1\n0{c}1{c}2\n", f"5{c}1{c}\n{c}3 4\n", f"5 2\n0 1 2\n{c}\n3{c}4\n"]
    texts += [
        "", "\n", "5 0", "5 0\r\n\r\n", "5\x1c0", "5 1\x1c0 1 2", "5 1\r\n0 1 2\r\n",
        "5 1\n0 1 +2\n", "5 1\n0 1 -0\n", "5 1\n0 1_0 2\n", "5 1\n0 \u0663 2\n",
        "5 1\n0 1 \uff11\n", "+5 1\n0 1\n", "5 1\n0 0 1\n", "5 2\n0 1 2\n2 1 0\n",
        "5 1\n0 1 5\n", "5 2\n0 1 2\n", "5 1\n0 1\n", "5 1\n0 1 2 3\n",
    ]
    rng = random.Random(2211)
    texts += [_edge_line_texts(rng, arity, spaces) for arity in (2, 3) for _ in range(1500)]
    outcomes = Counter()
    for text in texts:
        got = _read(loads_hypergraph, text)
        assert got == _read(_reference_hypergraph, text), repr(text)
        outcomes[got[0] if got[0] == "ok" else next(k for k in DEFECTS if k in got[1])] += 1
    # texts that parse and every defect show up
    assert set(outcomes) == {"ok", *DEFECTS}, outcomes

