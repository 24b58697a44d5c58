"""Structural-check harness tests: clean on trace-free inputs, certified
violations on purpose-built ones."""

import itertools
import json
import random
from pathlib import Path

import pytest

from trace_turan import (
    Hypergraph3,
    TraceCertificate,
    contains_trace,
    least_third_certificate,
    lemma_status_report,
    lift_to_trace_free,
    neighborhoods,
    partition_edges,
    polarity_graph,
    verify_certificate,
    write_hypergraph,
)
from trace_turan import cli, hypergraph, lemma_checks
from trace_turan.cli import main
from trace_turan.lemma_checks import CERTIFIED

from helpers import random_hypergraph, reference_expansion_hits

GOLDEN_VERIFY = Path(__file__).with_name("verify_golden.txt")


def residual_codegree_instance():
    """Pair (0, 1) keeps co-degree 3 after pruning unique-pair edges."""
    return Hypergraph3(
        7,
        [
            (0, 1, 2), (0, 1, 3), (0, 1, 4),
            (0, 2, 5), (1, 2, 6),
            (0, 3, 5), (1, 3, 6),
            (0, 4, 5), (1, 4, 6),
        ],
    )


def common_neighborhood_instance():
    """Vertices 0 and 1 share ten residual neighbors through two hubs."""
    h = Hypergraph3(12)
    for u in range(2, 10):
        for hub in (10, 11):
            h.add_edge((0, u, hub))
            h.add_edge((1, u, hub))
    return h


@pytest.fixture
def detector_calls(monkeypatch):
    """The arguments of every exact-detector call the check suite makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return contains_trace(*args, **kwargs)

    monkeypatch.setattr(lemma_checks, "contains_trace", counted)
    return calls


def test_empty_hypergraph_all_vacuous():
    report = lemma_status_report(Hypergraph3(5), 2, 14)
    assert all(st.status == "vacuous" for st in report)
    assert [v for st in report for v in st.violations] == []


def test_trace_free_witnesses_are_clean(search_table):
    for (n, t), result in search_table.items():
        for w in result.witnesses[:3]:
            assert [v for st in lemma_status_report(w, t, 14) for v in st.violations] == []


@pytest.mark.parametrize("q", [2, 3])
def test_polarity_lifts_are_clean(q):
    h = lift_to_trace_free(polarity_graph(q))
    report = lemma_status_report(h, 2, 14)
    assert all(st.status in ("pass", "vacuous") for st in report)


def test_residual_codegree_violation_is_certified(detector_calls):
    h = residual_codegree_instance()
    violations = [v for st in lemma_status_report(h, 2, 14) for v in st.violations]
    assert any(v.check == "residual-codegree-cap" and v.subject == (0, 1) for v in violations)
    for v in violations:
        assert v.note == CERTIFIED
        assert v.certificate is not None and verify_certificate(h, v.certificate)
    # every violation has a constructive certificate, so the detector never runs
    assert detector_calls == []
    assert contains_trace(h, 2) is not None


def test_common_neighborhood_violation_is_certified():
    h = common_neighborhood_instance()
    report = {st.check: st for st in lemma_status_report(h, 2, 14)}
    hits = report["common-neighborhood-cap"].violations
    assert any(v.subject == (0, 1) for v in hits)
    for v in hits:
        assert v.note == CERTIFIED
        assert verify_certificate(h, v.certificate)


def test_common_neighborhood_certificate_skips_leaves_joined_through_the_pair():
    # {0, 2, 3} joins the leaves 2 and 3 through x = 0, so the first pair of
    # the six clean common neighbours is passed over, though it has a trace
    h = Hypergraph3(10, [(0, 2, 3)] + [(p, u, 8 + p) for u in range(2, 8) for p in (0, 1)])
    cert = lemma_checks._cert_common_neighborhood(h, 0, 1)
    assert cert is not None and cert.D == (2, 4) and verify_certificate(h, cert)


def test_complete_5_takes_every_certificate_from_the_triangle_case(monkeypatch, detector_calls):
    # K^(3)_5 at t = 2: each pair has co-degree 3 > 2, and both link graphs
    # on its three thirds are triangles, so the dominated pair shrinks to one
    # vertex and the four-edge triangle assembly certifies every violation
    built = []
    triangle = lemma_checks._cert_triangle_links

    def spy(*args):
        built.append(triangle(*args))
        return built[-1]

    monkeypatch.setattr(lemma_checks, "_cert_triangle_links", spy)
    h = Hypergraph3(5, itertools.combinations(range(5), 3))
    found = [v for st in lemma_status_report(h, 2) for v in st.violations]
    assert [v.check for v in found] == ["residual-codegree-cap"] * 10
    assert len(built) == 10 and all(v.certificate is c for v, c in zip(found, built))
    assert all(v.note == CERTIFIED and verify_certificate(h, v.certificate) for v in found)
    assert detector_calls == []
    assert found[0].certificate.to_text() == (
        "1 2 | 3 4 |\nx 3 -> 0 1 3\nx 4 -> 0 1 4\ny 3 -> 0 2 3\ny 4 -> 0 2 4\n"
    )


def test_triangle_case_needs_an_apex_leaf():
    # {0, 1} has thirds {2, 3, 4}, but no edge joins two of them through 0 or 1
    h = Hypergraph3(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert lemma_checks._cert_triangle_links(h, 0, 1, frozenset({2, 3, 4})) is None


def test_shell_overlap_certificate_meets_at_a_shared_shell_vertex():
    # N1(0) = {1, 2, 3, 4}; the shell sets V_1 = {5, 6} and V_2 = {5, 7} share 5
    hb = Hypergraph3(8, [(0, 1, 3), (0, 2, 4), (1, 5, 6), (2, 5, 7)])
    cert = lemma_checks._cert_shell_overlap(hb, 0)
    assert cert.to_text() == "0 5 | 1 2 |\nx 1 -> 0 1 3\nx 2 -> 0 2 4\ny 1 -> 1 5 6\ny 2 -> 2 5 7\n"
    assert verify_certificate(hb, cert)


def test_shell_overlap_certificate_needs_shell_sets_that_meet():
    hb = Hypergraph3(9, [(0, 1, 3), (0, 2, 4), (1, 5, 6), (2, 7, 8)])
    assert lemma_checks._cert_shell_overlap(hb, 0) is None


def test_shell_overlap_certificate_falls_back_to_common_neighbours():
    # N1(0) = {1, 2} through {0, 1, 2} alone, so neither root has a third
    # with 0 other than the other root; V_1 and V_2 share the eight
    # vertices 3..10, which are clean common neighbours of 1 and 2
    hb = Hypergraph3(13, [(0, 1, 2)] + [(p, z, 10 + p) for z in range(3, 11) for p in (1, 2)])
    assert least_third_certificate(hb, 0, 3, (1, 2)) is None
    cert = lemma_checks._cert_shell_overlap(hb, 0)
    assert cert is not None and cert == lemma_checks._cert_common_neighborhood(hb, 1, 2)
    assert verify_certificate(hb, cert)


def test_common_neighborhood_certificate_gives_up_when_every_pair_is_joined_through_x():
    # 0 and 1 share six clean neighbours 2..7, and 0's link holds every pair of them
    joined = [(0, *p) for p in itertools.combinations(range(2, 8), 2)]
    h = Hypergraph3(9, joined + [(1, u, 8) for u in range(2, 8)])
    assert lemma_checks._cert_common_neighborhood(h, 0, 1) is None


def test_dense_complete_instance_all_violations_certified(detector_calls):
    # complete on 17 vertices: every pair has co-degree 15, so the dense
    # core is the whole edge set and several caps fail at once
    h = Hypergraph3(17, itertools.combinations(range(17), 3))
    report = lemma_status_report(h, 2, 14)
    # hundreds of violations lack a constructive certificate; one detector
    # answer serves them all
    assert len(detector_calls) <= 1
    by_check = {st.check: st for st in report}
    assert by_check["core-codegree-cap"].status == "violated"
    total = 0
    for st in report:
        for v in st.violations:
            total += 1
            assert v.note == CERTIFIED, (st.check, v.subject)
            assert verify_certificate(h, v.certificate)
    assert total > 0


@pytest.mark.parametrize(
    "h",
    [
        Hypergraph3(17, itertools.combinations(range(17), 3)),
        Hypergraph3(20, itertools.combinations(range(20), 3)),
        random_hypergraph(24, 0.7, random.Random(37)),  # core: 624 of 1,446 edges
    ],
    ids=["K17", "K20", "random-24"],
)
def test_expansion_hits_read_from_the_link_row_match_the_edge_rebuild(h):
    # for every (x, y) of the dense core, the pairs read from y's link row
    # are the edges at y that avoid x and lie in N1(x) + y, less y
    core = Hypergraph3(h.n, sorted(partition_edges(h, 14).C))
    assert core.edge_count > 0
    for x in core.support():
        for y in core.shadow_neighbors(x):
            expected = reference_expansion_hits(core, x, y)
            hits = lemma_checks._expansion_hits(core, x, y)
            assert len(hits) == len(expected)
            assert sorted(hits) == sorted(tuple(w for w in e if w != y) for e in expected)
            s = frozenset(w for e in expected for w in e if w != y)
            assert frozenset(w for pair in hits for w in pair) == s


def test_shells_compute_each_neighbourhood_once(monkeypatch):
    # on the complete K^(3)_15 every co-degree is 13 <= delta, so the dense
    # core is empty; shell-size-floor and shell-sum take N1/N2 once per
    # vertex (15 + 15) and shell-pair-overlap once per (edge, vertex)
    # (455 * 3); eu_vu takes N1 from its caller and computes none
    calls = []

    def counted(h, v):
        calls.append(v)
        return neighborhoods(h, v)

    monkeypatch.setattr(lemma_checks, "neighborhoods", counted)
    monkeypatch.setattr(hypergraph, "neighborhoods", counted)
    lemma_status_report(Hypergraph3(15, itertools.combinations(range(15), 3)), 2, 14)
    assert len(calls) == 1395


def test_higher_t_skips_c4_only_checks():
    h = residual_codegree_instance()
    report = {st.check: st for st in lemma_status_report(h, 3, 14)}
    assert report["common-neighborhood-cap"].status == "vacuous"
    # co-degree 3 == 3t-3 at t=3: no violation for the weaker cap
    assert report["residual-codegree-cap"].status == "pass"


def test_small_delta_marks_core_checks_vacuous():
    h = residual_codegree_instance()
    report = {st.check: st for st in lemma_status_report(h, 2, 5)}
    assert report["core-codegree-cap"].status == "vacuous"
    assert report["residual-codegree-cap"].status == "violated"


def test_input_validation():
    with pytest.raises(ValueError):
        lemma_status_report(Hypergraph3(4), 1, 14)
    k7 = Hypergraph3(7, itertools.combinations(range(7), 3))
    for t in (1, 2.5, 3.0):
        with pytest.raises(ValueError, match="pattern"):
            lemma_status_report(k7, t, 14)
    with pytest.raises(ValueError):
        lemma_status_report(Hypergraph3(4), 2, 1)


def test_verify_output_matches_golden(tmp_path, capsys):
    """The full verify bytes: check order, detail strings, which vacuous
    reason wins, violation order and certificates."""
    chunks = []
    for name, h in (
        ("hubs12", common_neighborhood_instance()),
        ("residual7", residual_codegree_instance()),
        ("empty5", Hypergraph3(5)),
    ):
        path = tmp_path / f"{name}.hg"
        write_hypergraph(h, str(path))
        for t, delta in ((2, 14), (3, 14), (2, 5)):
            code = main(["verify", "--file", str(path), "--t", str(t), "--delta", str(delta)])
            chunks.append(f"=== {name} t={t} delta={delta} exit {code}\n")
            chunks.append(capsys.readouterr().out)
    assert "".join(chunks) == GOLDEN_VERIFY.read_text(encoding="ascii")


def test_verify_skips_detector_when_a_violation_is_certified(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return contains_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "contains_trace", counted)
    path = tmp_path / "hubs12.hg"
    write_hypergraph(common_neighborhood_instance(), str(path))
    assert main(["verify", "--file", str(path), "--t", "2"]) == 0
    assert '"note": "certified"' in capsys.readouterr().out
    assert calls == []


def test_unverified_constructive_certificate_takes_the_detector_answer(monkeypatch, detector_calls):
    h = residual_codegree_instance()
    bogus = TraceCertificate(0, 1, (2, 3), {})
    assert not verify_certificate(h, bogus)
    name, premise, extra, _ = lemma_checks._CHECKS[0]

    def fires(h, g, t, delta):
        return "bound 0", [((0, 1), 3, 0, bogus), ((0, 2), 3, 0, None)]

    monkeypatch.setattr(
        lemma_checks, "_CHECKS", ((name, premise, extra, fires), *lemma_checks._CHECKS[1:])
    )
    found = lemma_status_report(h, 2, 14)[0].violations
    assert len(detector_calls) == 1
    detected = contains_trace(h, 2)
    assert [v.certificate for v in found] == [detected, detected]
    assert all(v.note == CERTIFIED for v in found)



def test_a_failing_constructive_builder_raises(monkeypatch):
    # the builders' preconditions hold at every call site, so an error in one
    # is a bug: it must surface, not be replaced by the detector's answer
    def broken(gx, gy):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(lemma_checks, "dominated_pair_min1", broken)
    with pytest.raises(AssertionError, match="broken invariant"):
        lemma_status_report(residual_codegree_instance(), 2, 14)


def test_verify_and_library_print_the_same_dense_core_certificates(tmp_path, capsys, monkeypatch):
    # K^(3)_18: co-degree 16 everywhere, so every pair crosses the core ceiling
    h = Hypergraph3(18, itertools.combinations(range(18), 3))
    core_row = [row for row in lemma_checks._CHECKS if row[0] == "core-codegree-cap"]
    monkeypatch.setattr(lemma_checks, "_CHECKS", tuple(core_row))
    path = tmp_path / "k18.hg"
    write_hypergraph(h, str(path))
    assert main(["verify", "--file", str(path), "--t", "2"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    printed = [v["certificate"] for v in json.loads(line)["violations"]]
    (status,) = lemma_status_report(h, 2)
    assert printed == [v.certificate.to_text() for v in status.violations]
    assert len(printed) == 153
    assert all(verify_certificate(h, v.certificate) for v in status.violations)
