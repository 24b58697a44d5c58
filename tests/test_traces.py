"""Trace detector tests."""

import dataclasses
import itertools
import random
import time

import pytest

from trace_turan import traces
from trace_turan import (
    Hypergraph3,
    SearchTimeout,
    TraceCertificate,
    certificate_from_text,
    contains_trace,
    contains_trace_naive,
    greedy_lower_bound,
    incremental_trace_check,
    least_third_certificate,
    link_graph,
    verify_certificate,
)

from helpers import (
    incremental_certificate,
    is_dominated,
    leaf_candidates,
    random_hypergraph,
    relabelled_lift,
    reference_contains_trace,
    reference_incremental_trace_check,
)


def full_hypergraph(n):
    return Hypergraph3(n, itertools.combinations(range(n), 3))


FOUR_EDGE_TRACE = Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6), (1, 3, 7)])


def natural_certificate():
    return TraceCertificate(
        x=0,
        y=1,
        D=(2, 3),
        assignment={
            ("x", 2): (0, 2, 4),
            ("x", 3): (0, 3, 5),
            ("y", 2): (1, 2, 6),
            ("y", 3): (1, 3, 7),
        },
    )


# -- verify_certificate --------------------------------------------------------


def test_verify_natural_certificate():
    assert verify_certificate(FOUR_EDGE_TRACE, natural_certificate())


@pytest.mark.parametrize(
    "change",
    [{"y": 0}, {"D": (0, 3)}, {"D": (2, 1)}, {"D": (2, 2)}, {"D": (2,)}, {"x": 8}, {"x": -1}],
    ids=["x-equals-y", "leaf-equals-x", "leaf-equals-y", "repeated-leaf", "single-leaf",
         "vertex-at-n", "negative-vertex"],
)
def test_verify_rejects_a_degenerate_or_out_of_range_core(change):
    cert = natural_certificate()
    assert verify_certificate(FOUR_EDGE_TRACE, cert)
    assert not verify_certificate(FOUR_EDGE_TRACE, dataclasses.replace(cert, **change))


@pytest.mark.parametrize(
    "field, value",
    [("y", "a"), ("D", (2, "3")), ("D", (2, [3])), (("x", 2), None), (("x", 2), (0, 2)),
     (("x", 2), "024")],
    ids=["str-pair-vertex", "str-leaf", "list-leaf", "none-edge", "pair-edge", "str-edge"],
)
def test_verify_rejects_a_malformed_field_without_raising(field, value):
    cert = natural_certificate()
    assert verify_certificate(FOUR_EDGE_TRACE, cert)
    if isinstance(field, tuple):
        cert.assignment[field] = value
    else:
        cert = dataclasses.replace(cert, **{field: value})
    assert not verify_certificate(FOUR_EDGE_TRACE, cert)


def test_verify_rejects_repeated_edge():
    # the edge of ("x", 2) meets the core in {0, 2}, not {1, 2}: the exact
    # intersection test is what keeps two pattern edges off one hyperedge
    cert = natural_certificate()
    cert.assignment[("y", 2)] = (0, 2, 4)
    assert not verify_certificate(FOUR_EDGE_TRACE, cert)


def test_verify_rejects_oversized_intersection():
    h = Hypergraph3(4, [(0, 2, 3)])
    cert = TraceCertificate(
        x=0, y=1, D=(2, 3), assignment={("x", 2): (0, 2, 3)}
    )
    assert not verify_certificate(h, cert)


def test_verify_rejects_missing_edge():
    cert = natural_certificate()
    cert.assignment[("x", 2)] = (0, 2, 7)
    assert not verify_certificate(FOUR_EDGE_TRACE, cert)


# -- contains_trace --------------------------------------------------------------


def test_complete_4_has_no_c4_trace():
    assert contains_trace(full_hypergraph(4), 2) is None


def test_complete_5_has_c4_trace():
    cert = contains_trace(full_hypergraph(5), 2)
    assert cert is not None and verify_certificate(full_hypergraph(5), cert)


def test_complete_5_has_no_k23_trace():
    assert contains_trace(full_hypergraph(5), 3) is None


def test_four_edge_example_found():
    cert = contains_trace(FOUR_EDGE_TRACE, 2)
    assert cert is not None and verify_certificate(FOUR_EDGE_TRACE, cert)


def test_pattern_validation():
    with pytest.raises(ValueError):
        contains_trace(full_hypergraph(4), 1)


@pytest.mark.parametrize("t", [2.9, 3.0, "3", None])
def test_pattern_t_must_be_an_integer(t):
    # int(2.9) would quietly run t = 2 and return a K_{2,2} certificate
    with pytest.raises(ValueError, match="integer"):
        contains_trace(full_hypergraph(5), t)
    with pytest.raises(ValueError, match="integer"):
        incremental_trace_check(Hypergraph3(5), (0, 1, 2), t)


@pytest.mark.parametrize("t", [2, 3])
def test_no_trace_fits_on_t_plus_2_vertices(t):
    # every pattern edge needs a third vertex outside the t + 2 core
    h = full_hypergraph(t + 2)
    assert contains_trace(h, t) is None
    assert contains_trace_naive(h, t) is None
    last = h.edges[-1]
    h.remove_edge(last)
    assert incremental_trace_check(h, last, t) is None
    assert contains_trace(full_hypergraph(t + 3), t) is not None


def test_timeout_is_distinct_from_absent():
    h = full_hypergraph(9)
    with pytest.raises(SearchTimeout):
        contains_trace(h, 4, time_budget=0.0)


def test_zero_budget_times_out_where_every_leaf_set_is_forced():
    # pairs through the apex of a lift have no candidate, and any other pair
    # at most two (the apex and one common graph neighbour), so every leaf
    # set the scan meets at t = 2 is decided by the forced-leaf test alone
    h = relabelled_lift(7)
    assert contains_trace(h, 2) is None
    with pytest.raises(SearchTimeout):
        contains_trace(h, 2, time_budget=0.0)


def test_zero_budget_times_out_in_the_pair_scan():
    # no pair of the lift has three leaf candidates, so at t = 3 the leaf
    # search never runs and only the once-per-row deadline check can fire
    h = relabelled_lift(7)
    assert contains_trace(h, 3) is None
    with pytest.raises(SearchTimeout):
        contains_trace(h, 3, time_budget=0.0)


def test_scan_checks_the_deadline_once_per_support_row(monkeypatch):
    # at t = n - 3 no pool of the trace-free lift reaches t, so no leaf
    # decision runs and every check comes from the scan, rows without a
    # later partner included
    h = relabelled_lift(5)
    calls = []
    monkeypatch.setattr(traces, "_check_deadline", calls.append)
    assert contains_trace(h, h.n - 3, time_budget=60.0) is None
    assert len(calls) == len(h.support())


def test_scan_takes_rows_from_the_support_only():
    # one edge among 10**8 labels: the scan must not walk the isolated ones
    start = time.monotonic()
    assert contains_trace(Hypergraph3(10**8, [(0, 1, 2)]), 2) is None
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
def test_budget_must_be_finite_and_nonnegative(budget):
    with pytest.raises(ValueError):
        contains_trace(Hypergraph3(3), 2, time_budget=budget)


# -- least_third_certificate -------------------------------------------------------


def test_least_third_certificate():
    # the pair is oriented x < y and the leaves sorted
    assert least_third_certificate(FOUR_EDGE_TRACE, 0, 1, (3, 2)) == natural_certificate()
    assert least_third_certificate(FOUR_EDGE_TRACE, 1, 0, (2, 3)) == natural_certificate()
    # {0, 2} lies only in {0, 2, 3}, whose third is the leaf 3
    h = Hypergraph3(8, [(0, 2, 3), (0, 3, 5), (1, 2, 6), (1, 3, 7)])
    assert least_third_certificate(h, 0, 1, (2, 3)) is None


# -- naive oracle agreement -------------------------------------------------------


def test_naive_empty_absent():
    assert contains_trace_naive(Hypergraph3(6), 2) is None


def test_detectors_agree_on_seeded_corpus():
    rng = random.Random(2024)
    for case in range(250):
        n = rng.randint(4, 8)
        h = random_hypergraph(n, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]), rng)
        t = rng.choice([2, 3])
        fast = contains_trace(h, t)
        slow = contains_trace_naive(h, t)
        assert (fast is None) == (slow is None), f"case {case}"
        if fast is not None:
            assert verify_certificate(h, fast)
            assert verify_certificate(h, slow)


def test_trace_monotone_under_edge_addition():
    rng = random.Random(77)
    count = 0
    while count < 40:
        h = random_hypergraph(6, 0.3, rng)
        if contains_trace(h, 2) is None:
            continue
        count += 1
        missing = [
            e
            for e in itertools.combinations(range(6), 3)
            if e not in h
        ]
        if missing:
            h.add_edge(missing[0])
            assert contains_trace(h, 2) is not None


# -- shadow-index detectors against the full-scan reference ----------------------


def _text(cert):
    return None if cert is None else cert.to_text()


def _assert_least_third(h, cert):
    """cert, if any, is the least-third certificate of its pair and leaves."""
    if cert is not None:
        assert _text(least_third_certificate(h, cert.x, cert.y, cert.D)) == cert.to_text()
        assert verify_certificate(h, cert)


def test_detectors_match_full_scan_reference_on_random_corpus():
    rng = random.Random(4242)
    for case in range(160):
        n = rng.randint(4, 13)
        h = random_hypergraph(n, rng.choice([0.03, 0.08, 0.15, 0.3]), rng)
        t = rng.choice([2, 3])
        cert = contains_trace(h, t)
        assert _text(cert) == _text(reference_contains_trace(h, t)), f"case {case}"
        _assert_least_third(h, cert)
        missing = [e for e in itertools.combinations(range(n), 3) if e not in h]
        for e in rng.sample(missing, min(4, len(missing))):
            cert = incremental_certificate(h, e, t)
            assert _text(cert) == _text(
                reference_incremental_trace_check(h, e, t)
            ), f"case {case}, edge {e}"
            h.add_edge(e)
            _assert_least_third(h, cert)
            h.remove_edge(e)


def _plant_trace(h, t, rng):
    """Add a K_{2,t} trace on new edges, all but the last; return the last."""
    while True:
        x, y, w, w2, *d = rng.sample(range(h.n), 4 + t)
        planted = [tuple(sorted((x, u, w))) for u in d] + [tuple(sorted((y, u, w2))) for u in d]
        if not any(e in h for e in planted):
            break
    for e in planted[:-1]:
        h.add_edge(e)
    return planted[-1]


@pytest.mark.parametrize("q", [5, 7, 11])
def test_detectors_match_full_scan_reference_on_planted_lifts(q):
    for t in (2, 3):
        h = relabelled_lift(q)
        rng = random.Random(10 * q + t)
        assert contains_trace(h, t) is None and reference_contains_trace(h, t) is None
        for _ in range(3):
            e = tuple(sorted(rng.sample(range(h.n), 3)))
            if e not in h:
                assert _text(incremental_certificate(h, e, t)) == _text(
                    reference_incremental_trace_check(h, e, t)
                ), f"t={t}, edge {e}"
        last = _plant_trace(h, t, rng)
        cert = incremental_certificate(h, last, t)
        assert cert is not None, f"t={t}"
        assert _text(cert) == _text(reference_incremental_trace_check(h, last, t)), f"t={t}"
        h.add_edge(last)
        cert = contains_trace(h, t)
        assert cert is not None and verify_certificate(h, cert), f"t={t}"
        assert _text(cert) == _text(reference_contains_trace(h, t)), f"t={t}"


def _sweep_case(rng):
    """A sparse hypergraph on n in 20-60 labels whose edges sit on a
    scattered support, every other label isolated, with a book {x, y, u_i}
    planted: x and y share each page u_i as a shadow neighbour, but no page
    is a leaf candidate of {x, y} through the book alone."""
    n = rng.randint(20, 60)
    support = rng.sample(range(n), rng.randint(7, 14))
    edges = {tuple(sorted(rng.sample(support, 3))) for _ in range(rng.randint(2, 2 * len(support)))}
    x, y, *pages = rng.sample(support, rng.randint(4, 6))
    edges.update(tuple(sorted((x, y, u))) for u in pages)
    return Hypergraph3(n, edges)


def _expected_leaf_decisions(h, t, choose):
    """The leaf decisions the scan must make: for every pair x < y with at
    least t leaf candidates, ascending, up to the first pair with a trace,
    (x, y, candidates); and how many pairs have at least t common shadow
    neighbours but fewer than t candidates."""
    nbrs = h.shadow_neighbors
    calls, short = [], 0
    for x, y in itertools.combinations(h.support(), 2):
        cands = sorted(leaf_candidates(h, x, y))
        if len(cands) < t:
            short += len(nbrs(x) & nbrs(y)) >= t
            continue
        calls.append((x, y, [c[:2] for c in cands]))
        if choose(x, y, t, cands, None) is not None:
            break
    return calls, short


def test_row_sweep_matches_full_scan_reference_on_sparse_corpus(monkeypatch):
    # per row x the scan builds every pair's candidates in one neighbour
    # sweep; each pool of at least t must reach ``_choose_leaves`` once,
    # with the candidates that ``leaf_candidates`` gives its pair, and the
    # pairs must be visited ascending
    choose, seen = traces._choose_leaves, []

    def spy_choose(a, b, t, cands, deadline, forced=None):
        seen.append((a, b, sorted(c[:2] for c in cands)))
        return choose(a, b, t, cands, deadline, forced)

    rng = random.Random(1919)
    found, short = dict.fromkeys((2, 3, 4), 0), dict.fromkeys((2, 3, 4), 0)
    kinds = {t: set() for t in found}
    for case in range(24):
        h = _sweep_case(rng)
        for t in (2, 3, 4):
            calls, pairs = _expected_leaf_decisions(h, t, choose)
            kinds[t].update("exact" if len(c) == t else "larger" for *_, c in calls)
            expected = _text(reference_contains_trace(h, t))
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(traces, "_choose_leaves", spy_choose)
                cert = contains_trace(h, t)
            assert _text(cert) == expected, f"case {case}, t={t}"
            assert seen == calls, f"case {case}, t={t}"
            found[t] += cert is not None
            short[t] += pairs
    # the corpus has traces and trace-free cases, pairs whose common
    # neighbours outnumber their candidates, and pools of exactly t and of
    # more than t, at every t
    assert all(0 < found[t] < 24 and short[t] for t in found), (found, short)
    assert all(kinds[t] == {"exact", "larger"} for t in found), kinds


def test_greedy_edges_match_full_scan_reference(monkeypatch):
    import trace_turan.constructions as constructions

    fast = [greedy_lower_bound(9, 2, seed).edges for seed in range(3)]
    monkeypatch.setattr(constructions, "incremental_trace_check", reference_incremental_trace_check)
    assert fast == [greedy_lower_bound(9, 2, seed).edges for seed in range(3)]


def test_greedy_certificates_match_full_scan_reference(monkeypatch):
    # every check a real greedy run makes, on the state it makes it in; the
    # greedy reads only whether the answer is None
    import trace_turan.constructions as constructions

    calls = []

    def both(h, e, t):
        cert = incremental_certificate(h, e, t)
        assert _text(cert) == _text(reference_incremental_trace_check(h, e, t)), (h.edges, e, t)
        calls.append(cert is not None)
        return cert

    monkeypatch.setattr(constructions, "incremental_trace_check", both)
    for t in (2, 3, 4):
        for seed in range(3):
            greedy_lower_bound(10, t, seed, restarts=2)
    assert len(calls) == 9 * 2 * 120  # every triple of 10 vertices, each run
    assert 0 < sum(calls) < len(calls)


# -- certificates from dominated sets ----------------------------------------------


def _subsets(vs, least):
    return itertools.chain.from_iterable(
        itertools.combinations(vs, k) for k in range(least, len(vs) + 1)
    )


def test_doubly_dominated_sets_give_least_third_certificates():
    # every D of size >= 2 dominated in both link graphs on S is the leaf set
    # of a trace whose edges least_third_certificate picks
    rng = random.Random(14)
    checked = 0
    for _ in range(6):
        n = rng.randint(6, 7)
        h = random_hypergraph(n, rng.choice([0.3, 0.5, 0.7]), rng)
        for x, y in itertools.combinations(range(n), 2):
            rest = [v for v in range(n) if v != x and v != y]
            for s in _subsets(rest, 2):
                lx, ly = link_graph(h, x, s, y), link_graph(h, y, s, x)
                for d in _subsets(s, 2):
                    if is_dominated(lx, d) and is_dominated(ly, d):
                        cert = least_third_certificate(h, x, y, d)
                        assert cert is not None and cert.D == d
                        assert verify_certificate(h, cert)
                        checked += 1
    assert checked > 1000


# -- serialization ------------------------------------------------------------------


def test_certificate_text_round_trip():
    cert = natural_certificate()
    text = cert.to_text()
    back = certificate_from_text(text)
    assert back == cert
    assert text.splitlines()[0] == "0 1 | 2 3 |"
