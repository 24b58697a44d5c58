"""Construction tests: polarity graphs, lifts, greedy packings."""

import hashlib
import itertools
import tracemalloc
from math import comb

import pytest

from trace_turan import (
    CapExceeded,
    FormatError,
    Graph,
    contains_c4,
    contains_trace,
    dumps_graph,
    greedy_lower_bound,
    lift_to_trace_free,
    polarity_graph,
    verify_certificate,
)

from trace_turan.constructions import GREEDY_CAP, GREEDY_T_CAP, POLARITY_CAP, RESTARTS_CAP

from helpers import four_subset_has_c4, incremental_certificate, loads_graph


@pytest.mark.parametrize("q", [2, 3, 5])
def test_polarity_counts_and_c4_freeness(q):
    g = polarity_graph(q)
    assert g.vertices == range(q * q + q + 1)
    assert g.edge_count == q * (q + 1) ** 2 // 2
    assert not four_subset_has_c4(g)
    assert not contains_c4(g)


def test_contains_c4_finds_four_cycles():
    assert contains_c4(Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert contains_c4(Graph(range(4), itertools.combinations(range(4), 2)))
    assert not contains_c4(Graph(range(4), [(0, 1), (1, 2), (2, 3)]))
    g = polarity_graph(3)
    assert 2 not in g.neighbors(0)
    g.add_edge(0, 2)  # a chord of the C4-free polarity graph closes a 4-cycle
    assert contains_c4(g)


@pytest.mark.parametrize("q", [4, 6, 1, 9])
def test_polarity_rejects_non_primes(q):
    with pytest.raises(ValueError):
        polarity_graph(q)


def test_graph_header_allocates_nothing_per_vertex():
    tracemalloc.start()
    try:
        g = loads_graph("100000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.neighbors(0) == g.neighbors(99999) == frozenset()
    with pytest.raises(ValueError):
        g.neighbors(100000)


def test_lift_single_edge():
    h = lift_to_trace_free(Graph(range(2), [(0, 1)]))
    assert h.edges == ((0, 1, 2),)
    assert contains_trace(h, 2) is None


@pytest.mark.parametrize("q", [2, 3])
def test_lift_of_polarity_is_trace_free(q):
    g = polarity_graph(q)
    h = lift_to_trace_free(g)
    assert h.n == len(g.vertices) + 1 and h.edge_count == g.edge_count
    assert contains_trace(h, 2) is None


@pytest.mark.parametrize(
    "g",
    [
        Graph(range(3), [(0, 1)], loops={2: 1}),
        Graph(range(1, 4), [(1, 2)]),
        Graph([0, 2], [(0, 2)]),
    ],
    ids=["loop", "shifted-range", "gap"],
)
def test_lift_and_text_format_refuse_other_graphs(g):
    with pytest.raises(ValueError):
        lift_to_trace_free(g)
    with pytest.raises(ValueError):
        dumps_graph(g)


def test_lift_and_text_format_take_any_set_equal_to_range():
    g = Graph([2, 0, 1], [(2, 0)])
    assert dumps_graph(g) == "3 1\n0 2\n"
    assert lift_to_trace_free(g).edges == ((0, 2, 3),)


def test_lift_of_4_cycle_contains_trace():
    c4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = lift_to_trace_free(c4)
    assert contains_trace(h, 2) is not None


def test_greedy_reaches_known_maxima():
    assert greedy_lower_bound(4, 2, seed=0, restarts=8).edge_count == 4
    assert greedy_lower_bound(5, 3, seed=0, restarts=8).edge_count == 10


def test_greedy_is_maximal_and_trace_free():
    # every missing triple's pair and leaves give a certificate in h + e
    h = greedy_lower_bound(6, 2, seed=3, restarts=4)
    assert contains_trace(h, 2) is None
    for e in itertools.combinations(range(6), 3):
        if e not in h:
            cert = incremental_certificate(h, e, 2)
            assert cert is not None
            h.add_edge(e)
            assert verify_certificate(h, cert), e
            h.remove_edge(e)


# sha256 of the greedy's edges as "a,b,c a,b,c ...": (12, 2) and (12, 3) are
# the bench's seed-3 construct jobs
GREEDY_SHA256 = {
    (12, 2, 249523): (19, "50991d090b661ec84869b9493466870efb9cfa294d692d62eab4464e8e5ea8d3"),
    (12, 3, 621429): (27, "3ee6d32d3e17cba08fc2b8bfdb6ffd4a7279d8e1ff70324f7e5d183db04a55cf"),
    (9, 2, 0): (13, "e556ad08414b251c29494626cdd03c2584ce1a681a06aff1ecd121f2091a68bb"),
}


@pytest.mark.parametrize("n, t, seed", sorted(GREEDY_SHA256))
def test_greedy_edges_are_pinned(n, t, seed):
    h = greedy_lower_bound(n, t, seed)
    text = " ".join(f"{a},{b},{c}" for a, b, c in h.edges)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert (h.edge_count, digest) == GREEDY_SHA256[n, t, seed]


def test_polarity_graph_runs_at_its_cap_and_refuses_above_it():
    q = POLARITY_CAP
    g = polarity_graph(q)
    assert g.vertices == range(q * q + q + 1)
    assert g.edge_count == q * (q + 1) ** 2 // 2
    # above the cap no point is built and no divisor tried: trial division
    # of a 20-digit q would take about 10**10 steps
    for q in (POLARITY_CAP + 1, 1000003, 10**20 + 39):
        with pytest.raises(CapExceeded, match=f"q <= {POLARITY_CAP}, got q={q}"):
            polarity_graph(q)


def test_greedy_runs_at_its_caps_and_refuses_above_them():
    # a trace fits on t + 3 vertices, so the one run at the t cap keeps
    # some triples but not all
    assert 0 < greedy_lower_bound(GREEDY_CAP, 2, restarts=1).edge_count
    assert 0 < greedy_lower_bound(GREEDY_T_CAP + 3, GREEDY_T_CAP, restarts=1).edge_count < comb(
        GREEDY_T_CAP + 3, 3
    )
    assert greedy_lower_bound(3, 2, restarts=RESTARTS_CAP).edges == ((0, 1, 2),)
    # above a cap no triple is built, however large the request
    for n in (GREEDY_CAP + 1, 10**20):
        with pytest.raises(CapExceeded, match=f"n <= {GREEDY_CAP}, got n={n}"):
            greedy_lower_bound(n, 2, restarts=1)
    for t in (GREEDY_T_CAP + 1, 12, 10**20):
        with pytest.raises(CapExceeded, match=f"t <= {GREEDY_T_CAP}, got t={t}"):
            greedy_lower_bound(GREEDY_CAP, t, restarts=1)
    for restarts in (RESTARTS_CAP + 1, 10**20):
        refused = f"restarts <= {RESTARTS_CAP}, got restarts={restarts}"
        with pytest.raises(CapExceeded, match=refused):
            greedy_lower_bound(6, 2, restarts=restarts)


def test_greedy_never_exceeds_search_value(search_table):
    for (n, t), result in search_table.items():
        g = greedy_lower_bound(n, t, seed=1, restarts=8)
        assert g.edge_count <= result.value


def test_greedy_deterministic_per_seed():
    a = greedy_lower_bound(6, 2, seed=5, restarts=3)
    b = greedy_lower_bound(6, 2, seed=5, restarts=3)
    assert a.edges == b.edges


def test_graph_text_round_trip():
    g = Graph(range(4), [(3, 1), (0, 2)])
    text = dumps_graph(g)
    assert text == "4 2\n0 2\n1 3\n"
    assert dumps_graph(loads_graph(text)) == text


def test_graph_loads_rejects_malformed():
    with pytest.raises(FormatError):
        loads_graph("3 1\n0 0\n")
    with pytest.raises(FormatError):
        loads_graph("3 2\n0 1\n")
