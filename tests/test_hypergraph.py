"""Core data structure and decomposition tests."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_turan import (
    FormatError,
    Graph,
    Hypergraph3,
    dumps_hypergraph,
    eu_vu,
    lift_to_trace_free,
    link_graph,
    loads_hypergraph,
    neighborhoods,
    partition_edges,
    polarity_graph,
)

from helpers import (
    random_hypergraph,
    reference_eu_vu,
    reference_neighborhoods,
    validate_partition,
    verify_degree_inequality,
)


def full_hypergraph(n):
    return Hypergraph3(n, itertools.combinations(range(n), 3))


# -- Hypergraph3 -------------------------------------------------------------


def test_codegree_single_edge():
    h = Hypergraph3(4, [(0, 1, 2)])
    assert h.codegree(0, 1) == 1


def test_codegree_absent_vertex():
    h = Hypergraph3(4, [(0, 1, 2)])
    assert h.codegree(0, 3) == 0


def test_codegree_counts_all_edges():
    h = Hypergraph3(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert h.codegree(0, 1) == 3
    assert h.codegree(1, 0) == 3


def test_codegree_rejects_bad_pairs():
    h = Hypergraph3(4, [(0, 1, 2)])
    with pytest.raises(ValueError):
        h.codegree(1, 1)
    with pytest.raises(ValueError):
        h.codegree(0, 4)


def test_duplicate_edge_rejected():
    h = Hypergraph3(4, [(0, 1, 2)])
    with pytest.raises(ValueError):
        h.add_edge((2, 1, 0))


def test_degenerate_edges_rejected():
    with pytest.raises(ValueError):
        Hypergraph3(4, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Hypergraph3(3, [(0, 1, 3)])


def test_remove_edge_updates_index():
    h = Hypergraph3(5, [(0, 1, 2), (0, 1, 3)])
    h.remove_edge((0, 1, 2))
    assert h.codegree(0, 1) == 1
    assert h.codegree(0, 2) == 0
    assert (0, 1, 2) not in h


@pytest.mark.parametrize(
    "edge",
    [(), (0, 1), (0, 1, 2, 3), (0, 0, 1), (1, 1, 1), (0, 1, None), None, "012", ([0], [1], [2])],
)
def test_membership_of_a_malformed_edge_is_false(edge):
    h = Hypergraph3(4, [(0, 1, 2)])
    assert (2, 0, 1) in h
    assert edge not in h


def test_equality_is_by_vertex_count_and_edges():
    h = Hypergraph3(4, [(0, 1, 2)])
    assert h == Hypergraph3(4, [(2, 1, 0)])
    assert h != Hypergraph3(5, [(0, 1, 2)]) and h != [(0, 1, 2)]
    assert repr(h) == "Hypergraph3(n=4, m=1)"


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: Hypergraph3(-1), "vertex count must be nonnegative"),
        (lambda: Hypergraph3(4, [(0, 1, 2)]).remove_edge((0, 1, 3)), r"no such edge \(0, 1, 3\)"),
        (lambda: Graph(range(3)).add_loop(3), "loop vertex 3 not in vertex set"),
        (lambda: Graph(range(3)).add_loop(0, -1), "loop multiplicity must be nonnegative"),
        (lambda: neighborhoods(Hypergraph3(4), 4), "vertex 4 out of range"),
        (lambda: Graph(range(3)).add_edge(1, 1), "use add_loop for loops"),
        (lambda: Graph(range(3)).add_edge(0, 3), r"edge \(0, 3\) leaves the vertex set"),
        (lambda: Graph(range(3)).neighbors(3), "vertex 3 not in vertex set"),
    ],
    ids=[
        "negative-n", "remove-absent", "loop-outside", "loop-negative", "neighborhoods-outside",
        "graph-loop-edge", "graph-edge-outside", "graph-neighbors-outside",
    ],
)
def test_out_of_domain_input_is_refused(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(0, 10**6))
def test_codegree_index_matches_brute_force(mask, _salt):
    triples = list(itertools.combinations(range(6), 3))
    edges = [triples[i] for i in range(20) if mask >> i & 1]
    h = Hypergraph3(6, edges)
    for x, y in itertools.combinations(range(6), 2):
        brute = sum(1 for e in edges if x in e and y in e)
        assert h.codegree(x, y) == brute


def _assert_link_index(h):
    """_link is symmetric with one shared set per pair, holds no empty entry,
    and its pairs and thirds are exactly those of the edges; shadow
    neighbours, degree and edges_at read off the index agree with an edge
    scan."""
    link = h._link
    assert h.link_index() is link  # live, not a copy
    expected: dict[tuple[int, int], set[int]] = {}
    for a, b, c in h.edges:
        for pair, w in (((a, b), c), ((a, c), b), ((b, c), a)):
            expected.setdefault(pair, set()).add(w)
    pairs = {}
    for v, row in link.items():
        assert row  # no empty link
        for u, thirds in row.items():
            assert thirds  # no empty pair
            assert link[u][v] is thirds  # one set shared by (v, u) and (u, v)
            if v < u:
                pairs[v, u] = thirds
    assert pairs == expected
    for v in range(h.n):
        assert set(h.shadow_neighbors(v)) == {u for pair in expected for u in pair if v in pair} - {v}
        scanned = [e for e in h.edges if v in e]
        assert h.edges_at(v) == scanned
        assert h.degree(v) == len(scanned)


def test_link_index_matches_edges_under_random_mutation():
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(3, 10)
        triples = list(itertools.combinations(range(n), 3))
        h = Hypergraph3(n)
        for _ in range(80):
            if h.edge_count and rng.random() < 0.45:
                h.remove_edge(rng.choice(h.edges))
            else:
                e = rng.choice(triples)
                if e not in h:
                    h.add_edge(e)
            _assert_link_index(h)
        c = h.copy()
        _assert_link_index(c)
        before = {v: {u: set(s) for u, s in row.items()} for v, row in h._link.items()}
        for e in c.edges:
            c.remove_edge(e)
        assert c._link == {} and h._link == before
        assert h.support() == sorted({v for e in h.edges for v in e})


def test_hypergraph_header_allocates_nothing_per_vertex():
    tracemalloc.start()
    try:
        h = loads_hypergraph("100000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert h.shadow_neighbors(0) == h.shadow_neighbors(99999) == frozenset()
    with pytest.raises(ValueError):
        h.shadow_neighbors(100000)


# -- Graph ------------------------------------------------------------------


def test_loop_graph_degree_counts_loop_multiplicity():
    g = Graph([0, 1], [(0, 1)])
    g.add_loop(0, 2)
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.min_degree() == 1


def test_loop_graph_no_parallel_edges():
    g = Graph([0, 1], [(0, 1), (1, 0)])
    assert g.degree(0) == 1


# -- partition ---------------------------------------------------------------


def test_partition_single_edge_all_in_a():
    h = Hypergraph3(3, [(0, 1, 2)])
    p = partition_edges(h, 2)
    assert p.A == {(0, 1, 2)} and not p.B and not p.C


def test_partition_full_5_delta_2():
    p = partition_edges(full_hypergraph(5), 2)
    assert not p.A and not p.B and len(p.C) == 10


def test_partition_full_5_delta_3():
    p = partition_edges(full_hypergraph(5), 3)
    assert not p.A and len(p.B) == 10 and not p.C


def test_partition_rejects_small_delta():
    with pytest.raises(ValueError):
        partition_edges(full_hypergraph(5), 1)


def test_partition_nested_in_delta():
    rng = random.Random(7)
    for _ in range(20):
        h = random_hypergraph(7, 0.4, rng)
        p2 = partition_edges(h, 2)
        p4 = partition_edges(h, 4)
        validate_partition(p2, h)
        validate_partition(p4, h)
        assert p4.C <= p2.C
        assert p2.A == p4.A


# -- link graphs -------------------------------------------------------------


def test_link_graph_simple_edge():
    h = Hypergraph3(5, [(0, 2, 3)])
    g = link_graph(h, 0, {2, 3}, 1)
    assert 3 in g.neighbors(2) and g.loops_at(2) == 0 and g.loops_at(3) == 0


def test_link_graph_loop_for_outside_partner():
    h = Hypergraph3(5, [(0, 2, 4)])
    g = link_graph(h, 0, {2, 3}, 1)
    assert g.loops_at(2) == 1 and 3 not in g.neighbors(2)


def test_link_graph_excludes_y_edge():
    h = Hypergraph3(5, [(0, 1, 2)])
    g = link_graph(h, 0, {2, 3}, 1)
    assert g.loops_at(2) == 0 and not g.edges


def test_link_graph_rejects_overlapping_s():
    h = Hypergraph3(5, [(0, 1, 2)])
    with pytest.raises(ValueError):
        link_graph(h, 0, {1, 2}, 1)


def test_link_graph_empty_s_allowed():
    h = Hypergraph3(5, [(0, 1, 2)])
    g = link_graph(h, 0, set(), 1)
    assert not g.vertices


def test_degree_identity_and_inequality():
    # d_L(u) equals the number of edges {x, u, w} with w != y
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(4, 8)
        h = random_hypergraph(n, 0.35, rng)
        x, y = rng.sample(range(n), 2)
        pool = [v for v in range(n) if v not in (x, y)]
        s = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        g = link_graph(h, x, s, y)
        for u in s:
            direct = sum(1 for w in h.codegree_thirds(x, u) if w != y)
            assert g.degree(u) == direct
        assert verify_degree_inequality(h, x, s, y).passed


def test_degree_inequality_slack_zero():
    h = Hypergraph3(4, [(0, 1, 2)])
    report = verify_degree_inequality(h, 0, {2}, 1)
    assert report.passed and not report.failures


# -- neighborhoods and shells -------------------------------------------------


def test_neighborhoods_single_edge():
    h = Hypergraph3(4, [(0, 1, 2)])
    assert neighborhoods(h, 0) == ({1, 2}, set())


def test_neighborhoods_distance_two():
    h = Hypergraph3(5, [(0, 1, 2), (1, 3, 4)])
    assert neighborhoods(h, 0) == ({1, 2}, {3, 4})


def test_neighborhoods_ignores_other_component():
    h = Hypergraph3(6, [(0, 1, 2), (3, 4, 5)])
    assert neighborhoods(h, 0) == ({1, 2}, set())


def test_eu_vu_basic():
    h = Hypergraph3(5, [(0, 1, 2), (1, 3, 4)])
    eu, vu = eu_vu(h, 1, neighborhoods(h, 0)[0])
    assert eu == {(1, 3, 4)} and vu == {3, 4}


def test_eu_vu_excludes_double_meeting():
    h = Hypergraph3(4, [(0, 1, 2), (1, 2, 3)])
    eu, vu = eu_vu(h, 1, neighborhoods(h, 0)[0])
    assert not eu and not vu


def test_eu_vu_sorts_each_edge_through_u_by_kind():
    # v = 0, u = 1, N1 = {1, 2, 3, 4}, N2 = {5, 6, 7}; through u: {u, v, b},
    # {u, a, b} with a = 3 in N1, and {u, a, b} with a, b in N2
    h = Hypergraph3(8, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 6, 7)])
    n1, n2 = neighborhoods(h, 0)
    assert (n1, n2) == ({1, 2, 3, 4}, {5, 6, 7})
    assert eu_vu(h, 1, n1) == ({(1, 6, 7)}, {6, 7})


class _UnscannableEdges(set):
    def __iter__(self):
        raise AssertionError("the edge list was scanned")


def test_eu_vu_reads_only_the_link_index():
    rng = random.Random(34)
    for _ in range(20):
        h = random_hypergraph(rng.randint(5, 12), rng.choice((0.1, 0.3)), rng)
        expected = {}
        for v in range(h.n):
            n1, _ = neighborhoods(h, v)
            for u in n1:
                expected[v, u] = (n1, reference_eu_vu(h, v, u))
        h._edges = _UnscannableEdges(h._edges)
        for (v, u), (n1, shell) in expected.items():
            assert eu_vu(h, u, n1) == shell, (v, u)


def test_eu_vu_requires_neighbor():
    h = Hypergraph3(5, [(0, 1, 2)])
    with pytest.raises(ValueError):
        eu_vu(h, 3, neighborhoods(h, 0)[0])


def test_eu_vu_disjointness_and_expansion():
    # shells over distinct roots are disjoint, and |V_u| >= (2/k) |E_u|
    rng = random.Random(5)
    for _ in range(100):
        h = random_hypergraph(7, 0.4, rng)
        if not h.edge_count:
            continue
        k = h.max_codegree()
        v = rng.randrange(7)
        n1, _ = neighborhoods(h, v)
        seen = set()
        for u in sorted(n1):
            eu, vu = eu_vu(h, u, n1)
            assert not (eu & seen)
            seen |= eu
            assert len(vu) * k >= 2 * len(eu)


def shell_corpus():
    """Seeded random 3-graphs with n <= 16, then K^(3)_15, the 12-vertex hub
    instance and the q = 5 polarity lift."""
    rng = random.Random(77)
    for _ in range(60):
        yield random_hypergraph(rng.randint(3, 16), rng.choice((0.03, 0.1, 0.25, 0.5)), rng)
    yield full_hypergraph(15)
    yield Hypergraph3(12, [(p, u, hub) for u in range(2, 10) for hub in (10, 11) for p in (0, 1)])
    yield lift_to_trace_free(polarity_graph(5))


def test_shells_match_reference_on_seeded_corpus():
    shells = 0
    for h in shell_corpus():
        for v in range(h.n):
            n1, n2 = neighborhoods(h, v)
            assert (n1, n2) == reference_neighborhoods(h, v), (h, v)
            for u in sorted(n1):
                assert eu_vu(h, u, n1) == reference_eu_vu(h, v, u), (h, v, u)
                shells += 1
    assert shells > 2000


def test_shell_vertices_are_the_edges_vertices_other_than_u():
    # an edge {u, a, b} of E_u has a, b outside N1(v) + v and shares an
    # edge with u, so a, b are at distance 2: V_u needs no N2 filter
    triples16 = list(itertools.combinations(range(16), 3))
    random16 = Hypergraph3(16, random.Random(16).sample(triples16, 168))
    for h in (*shell_corpus(), random16):
        for v in range(h.n):
            n1, n2 = neighborhoods(h, v)
            for u in n1:
                eu, vu = eu_vu(h, u, n1)
                assert vu == {w for e in eu for w in e} - {u}, (h, v, u)
                assert vu <= n2, (h, v, u)


# -- text format ---------------------------------------------------------------


def test_round_trip_canonical_file():
    h = Hypergraph3(5, [(2, 3, 4), (0, 1, 2)])
    text = dumps_hypergraph(h)
    assert text == "5 2\n0 1 2\n2 3 4\n"
    assert dumps_hypergraph(loads_hypergraph(text)) == text


def test_loads_accepts_unsorted_triples():
    h = loads_hypergraph("4 1\n2 0 1\n")
    assert h.edges == ((0, 1, 2),)


def test_loads_rejects_duplicates_with_line_number():
    with pytest.raises(FormatError) as err:
        loads_hypergraph("4 2\n0 1 2\n2 1 0\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["", "4\n", "4 1\n0 1\n", "4 1\nx y z\n", "4 2\n0 1 2\n"],
)
def test_loads_rejects_malformed(text):
    with pytest.raises(FormatError):
        loads_hypergraph(text)
