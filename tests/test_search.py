"""Extremal search, oracle, incremental check, and CNF export tests."""

import functools
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from trace_turan import (
    CapExceeded,
    Hypergraph3,
    canonical_form,
    contains_trace,
    contains_trace_naive,
    incremental_trace_check,
    trace_templates,
    turan_oracle,
    turan_search,
    verify_certificate,
)
from trace_turan import search as search_module
from trace_turan import traces as traces_module
from trace_turan.canon import _twin_classes, is_canonical_labeling
from trace_turan.indexing import all_triples, edge_indices, triple_index
from trace_turan.traces import _trace_through_edge

from helpers import (
    brute_force_ex_c4,
    dpll_satisfiable,
    export_cnf,
    incremental_certificate,
    parse_dimacs,
    random_hypergraph,
    reference_is_canonical,
    reference_turan_oracle,
)

# regression constants, produced by both routes below
KNOWN_VALUES = {
    (4, 2): 4,
    (5, 2): 6,
    (6, 2): 7,
    (4, 3): 4,
    (5, 3): 10,
    (6, 3): 14,
}


# -- templates ----------------------------------------------------------------


def test_templates_are_traces():
    by_index = {triple_index(*e): e for e in all_triples(6)}
    templates = trace_templates(6, 2)
    assert templates
    rng = random.Random(8)
    for tmpl in rng.sample(templates, 40):
        assert len(tmpl) == 4
        h = Hypergraph3(6, [by_index[i] for i in tmpl])
        assert contains_trace_naive(h, 2) is not None


def test_template_minimality():
    # dropping any edge of a template leaves a trace-free hypergraph
    by_index = {triple_index(*e): e for e in all_triples(5)}
    for tmpl in trace_templates(5, 2):
        for skip in tmpl:
            h = Hypergraph3(5, [by_index[i] for i in tmpl if i != skip])
            assert contains_trace_naive(h, 2) is None


def test_no_template_without_room_for_a_trace():
    # a trace needs n >= t + 3; below that there is no template, and the
    # rule is read before any leaf set is enumerated, so a huge t is cheap
    for n in range(4, 9):
        for t in (n - 2, n - 1, n, 10**20):
            if t >= 2:
                assert trace_templates(n, t) == [], (n, t)
    assert [len(trace_templates(n, t)) for n, t in ((5, 2), (5, 3), (6, 3), (6, 4))] == [
        15, 0, 60, 0
    ]


@pytest.mark.parametrize("n,t", [(5, 2), (6, 2), (6, 3)])
def test_templates_filed_once_under_their_largest_edge(n, t):
    total, by_edge = search_module._templates_by_edge(n, t)
    assert total == len(all_triples(n))
    filed = sorted(
        tuple(sorted({idx for idx in range(top) if res >> idx & 1} | {top}))
        for top, residuals in enumerate(by_edge)
        for res in residuals
        if not res >> top  # every residual bit is below its edge
    )
    assert sum(map(len, by_edge)) == len(filed)
    assert filed == sorted(tuple(sorted(tmpl)) for tmpl in trace_templates(n, t))


# -- oracle ----------------------------------------------------------------------


def test_oracle_known_values(oracle_table):
    for (n, t), result in oracle_table.items():
        assert result.value == KNOWN_VALUES[(n, t)]


def test_oracle_witnesses_are_extremal_and_trace_free(oracle_table):
    for (n, t), result in oracle_table.items():
        assert result.witnesses
        forms = set()
        for w in result.witnesses:
            assert w.edge_count == result.value
            assert contains_trace(w, t) is None
            forms.add(canonical_form(w))
        assert len(forms) == len(result.witnesses)


def test_oracle_refuses_large_n():
    with pytest.raises(CapExceeded):
        turan_oracle(7, 2)


def test_oracle_tiny_n():
    assert turan_oracle(3, 2).value == 1
    assert turan_oracle(2, 2).value == 0


def witness_digest(result):
    """sha256 of a result's witnesses, one per line as "a,b,c a,b,c ..."."""
    text = "\n".join(" ".join(f"{a},{b},{c}" for a, b, c in w.edges) for w in result.witnesses)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
K3_SHA256 = "c0be322c1ad6af50f418b96232d98fe25a36d5d0a557291833f8248f2084b8ef"
K4_SHA256 = "532ac27cbeee62a0b9bb74efe78721abe724ab1fce35bc4df42c10d5f8fa4661"
K5_SHA256 = "72188a0e1f9860a573aa3bce14c23fbe35782525fe99f4ea081ac6f7552feaad"
N5_T2_SHA256 = "15c5e490c2e92cd2ad1c898d522550dc46a67227de50c650e29d54d5be5805ed"
N6_T3_SHA256 = "09d3e7c61d65d989fb225fa0ec1eac1bd175e9ea68a4ce491bc037b2c4f15c0b"
N7_T2_SHA256 = "a524986cd29eeefeaaf602114f03ddb95fdc84edd35012a543ee7746e65e6ce4"

# value, nodes, witness count and witness_digest of turan_oracle(n, t), as
# it returned them when it canonicalized every mask reached at the best
ORACLE_PINS = {
    **{(n, t): (0, 1, 1, EMPTY_SHA256) for n in range(3) for t in (2, 3, 4)},
    **{(3, t): (1, 3, 1, K3_SHA256) for t in (2, 3, 4)},
    **{(4, t): (4, 9, 1, K4_SHA256) for t in (2, 3, 4)},
    (5, 2): (6, 601, 1, N5_T2_SHA256),
    (5, 3): (10, 21, 1, K5_SHA256),
    (5, 4): (10, 21, 1, K5_SHA256),
    (6, 2): (7, 67444, 7, "3533c2ca1c8df849d017f6191f109e9082e02775f4c6cde4e74ab54b9dbc507a"),
    (6, 3): (14, 62522, 1, N6_T3_SHA256),
    (6, 4): (20, 41, 1, "9632f5683c4b0deefa4c80eb286c5d1261cc66d4e0b5d43eb94609e97dd7de20"),
}

# the same with WITNESS_CAP lowered to 1, 2 and 3, where the cap prune binds
ORACLE_CAPPED_PINS = {
    (1, 6, 2): (7, 48418, 1, "bede7935083f5ef4832acaa49d3e970897b2d6495592c56528a096cd0087d513"),
    (1, 6, 3): (14, 23014, 1, N6_T3_SHA256),
    (1, 5, 2): (6, 293, 1, N5_T2_SHA256),
    (2, 6, 2): (7, 48418, 2, "4d5f6498386a6aa410320ecf01f79a6561db5d5d6d3d0fb81f877cd6757e9496"),
    (2, 6, 3): (14, 62382, 1, N6_T3_SHA256),
    (2, 5, 2): (6, 601, 1, N5_T2_SHA256),
    (3, 6, 2): (7, 48419, 3, "2c0c830055eed097a76f4e01f266c679b406577498db769f7237eb5179f84690"),
    (3, 6, 3): (14, 62417, 1, N6_T3_SHA256),
    (3, 5, 2): (6, 601, 1, N5_T2_SHA256),
}


def pin(result):
    return result.value, result.nodes_explored, len(result.witnesses), witness_digest(result)


@pytest.mark.parametrize("n, t", sorted(ORACLE_PINS))
def test_oracle_regression(n, t):
    assert pin(turan_oracle(n, t)) == ORACLE_PINS[n, t]


@pytest.mark.parametrize("cap, n, t", sorted(ORACLE_CAPPED_PINS))
def test_oracle_regression_under_witness_cap(monkeypatch, cap, n, t):
    monkeypatch.setattr(search_module, "WITNESS_CAP", cap)
    assert pin(turan_oracle(n, t)) == ORACLE_CAPPED_PINS[cap, n, t]


def test_oracle_canonicalizes_only_the_witnesses_it_keeps(monkeypatch):
    # one canonicity test per mask reached at the final best of (6, 3), and
    # one form for the one class kept; 60 forms when each of those masks was
    # formed, 141 tests if the 81 masks at interim 12- and 13-edge bests
    # were tested as well
    calls = {"decide": 0, "form": 0}

    def counting_decide(h):
        calls["decide"] += 1
        return is_canonical_labeling(h)

    def counting_form(h):
        calls["form"] += 1
        return canonical_form(h)

    monkeypatch.setattr(search_module, "is_canonical_labeling", counting_decide)
    monkeypatch.setattr(search_module, "canonical_form", counting_form)
    assert pin(turan_oracle(6, 3)) == ORACLE_PINS[6, 3]
    assert calls == {"decide": 60, "form": 1}


@functools.cache
def _oracle(n, t):
    return turan_oracle(n, t)


def _witness_edges(result):
    return [w.edges for w in result.witnesses]


@pytest.mark.parametrize("n, t", [(n, t) for n in range(7) for t in (2, 3, 4)])
def test_oracle_matches_reference_dedupe_by_canonical_form(n, t):
    # keeping a mask iff it is a canonical labelling keeps the first mask
    # of each class, as deduping every mask by its canonical form did
    result, ref = _oracle(n, t), reference_turan_oracle(n, t)
    assert (result.value, result.nodes_explored) == (ref.value, ref.nodes_explored)
    assert _witness_edges(result) == _witness_edges(ref)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_oracle_matches_reference_under_witness_cap(monkeypatch, cap):
    monkeypatch.setattr(search_module, "WITNESS_CAP", cap)
    result, ref = turan_oracle(6, 2), reference_turan_oracle(6, 2)
    assert (result.value, result.nodes_explored) == (ref.value, ref.nodes_explored)
    assert _witness_edges(result) == _witness_edges(ref)


@pytest.mark.parametrize("n", range(7))
def test_oracle_witnesses_equal_the_searchs_in_order(n):
    # both routes keep canonical labellings, each class's least index
    # sequence, and both meet the masks of one size in lexicographic order
    for t in (2, 3, 4):
        assert _witness_edges(_oracle(n, t)) == _witness_edges(turan_search(n, t))


# -- search ---------------------------------------------------------------------


def test_search_matches_oracle(oracle_table, search_table):
    for key, oracle_result in oracle_table.items():
        assert search_table[key].value == oracle_result.value


def test_search_witness_classes_match_oracle(oracle_table, search_table):
    for key in oracle_table:
        a = {bytes(canonical_form(w)) for w in oracle_table[key].witnesses}
        b = {bytes(canonical_form(w)) for w in search_table[key].witnesses}
        assert a == b


def test_search_witnesses_verified_by_naive(search_table):
    for (n, t), result in search_table.items():
        for w in result.witnesses:
            assert contains_trace_naive(w, t) is None


def test_search_n7_regression(search_table):
    result = turan_search(7, 2)
    assert result.value == 9
    assert result.value >= search_table[(6, 2)].value
    for w in result.witnesses[:2]:
        assert contains_trace(w, 2) is None


def _readme_exact_values():
    """The README's exact-value table: n -> its cells after n, as text."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^ *\| (\d+) \|(.*)\|$", text, re.MULTILINE)
    return {int(n): [cell.strip() for cell in rest.split("|")] for n, rest in rows}


def test_t2_column_equals_the_cited_ex_c4(search_table):
    # ex(n, C4) from Clapham, Flockhart & Sheehan (1989), recomputed here
    table = _readme_exact_values()
    assert sorted(table) == list(range(4, 10))
    column = {n: int(cells[2]) for n, cells in table.items()}
    assert column == {4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13}
    assert all(cells[0].rstrip("†") == cells[2] for cells in table.values())
    for n in range(4, 8):
        assert brute_force_ex_c4(n) == column[n]
    for n in range(4, 7):
        assert search_table[(n, 2)].value == KNOWN_VALUES[(n, 2)] == column[n]


def test_readme_json_lines_example_has_the_searchs_stats_keys():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    pattern = r"`search --format json-lines` prints .*? for example\s*`(\{.*?\})`"
    (example,) = re.findall(pattern, text, re.S)
    assert json.loads(example)["stats"].keys() == turan_search(5, 2).stats.keys()


def test_search_answers_a_t_with_no_room_at_once():
    # no trace fits unless n >= t + 3, so (12, 10) has the complete
    # hypergraph as its one witness, found with no walk
    result = turan_search(12, 10)
    assert result.value == 220
    assert [w.edges for w in result.witnesses] == [tuple(itertools.combinations(range(12), 3))]
    assert result.nodes_explored == 1
    assert result.stats == dict.fromkeys(
        (
            "tried",
            "symmetry_skips",
            "trace_rejects",
            "noncanon_rejects",
            "recursed",
            "bound_cuts",
        ),
        0,
    )


def test_search_refuses_beyond_cap():
    with pytest.raises(CapExceeded):
        turan_search(40, 2)


def test_monotone_in_n_and_t(search_table):
    for t in (2, 3):
        values = [search_table[(n, t)].value for n in range(4, 7)]
        assert values == sorted(values)
    for n in range(4, 7):
        assert search_table[(n, 2)].value <= search_table[(n, 3)].value


def test_search_deterministic(search_table):
    again = turan_search(5, 2)
    ref = search_table[(5, 2)]
    assert again.value == ref.value
    assert [w.edges for w in again.witnesses] == [w.edges for w in ref.witnesses]


@pytest.mark.parametrize(
    "n, t, calls, accepts, nodes",
    [
        pytest.param(7, 2, 476, 277, 278, id="7-2"),
        pytest.param(6, 3, 188, 155, 156, id="6-3"),
    ],
)
def test_search_canonicity_calls(monkeypatch, n, t, calls, accepts, nodes):
    # every child before the alive bound that is neither dead nor marked
    # lowered by the status pass is tested once (631 and 229 calls with the
    # bound that counted every later triple, 770 and 257 with neither that
    # nor the automorphism rule), and each accept is one node below the root
    counts = {"calls": 0, "accepts": 0}

    def counting(h, automorphisms=None, classes=None):
        verdict = is_canonical_labeling(h, automorphisms, classes)
        counts["calls"] += 1
        counts["accepts"] += verdict
        return verdict

    monkeypatch.setattr(search_module, "is_canonical_labeling", counting)
    result = turan_search(n, t)
    assert counts == {"calls": calls, "accepts": accepts}
    assert result.nodes_explored == nodes == accepts + 1


@pytest.mark.parametrize(
    "n, t, calls, expected",
    [
        pytest.param(7, 2, 1412, (9, 278, 5, N7_T2_SHA256), id="7-2"),
        pytest.param(6, 3, 630, (14, 156, 1, N6_T3_SHA256), id="6-3"),
    ],
)
def test_search_skips_the_kernel_for_triples_of_known_status(monkeypatch, n, t, calls, expected):
    # each node's status pass checks only the triples past its last edge
    # that no ancestor found dead and that have no colex-smaller image of
    # known status (2,478 and 1,061 calls without the images); checking
    # only the children that the bound counting every later triple let
    # through took 1,787 and 266 calls, over 394 and 181 nodes
    count = 0
    kernel = search_module._trace_through_edge

    def counting(h, e, t):
        nonlocal count
        count += 1
        return kernel(h, e, t)

    monkeypatch.setattr(search_module, "_trace_through_edge", counting)
    assert pin(turan_search(n, t)) == expected
    assert count == calls


@pytest.mark.parametrize("n, t", [(6, 2), (6, 3), (7, 2)])
def test_search_skips_only_noncanonical_children_by_twin_rule(monkeypatch, n, t):
    # every child a twin swap alone lowers, taken at its node, is not in it,
    # is marked lowered by the status pass and closes a non-canonical child
    # by the reference minimizer; each image is the child with one vertex
    # moved to a smaller twin, a swap that is an automorphism of the node;
    # the node counts hold
    twin_lowered = 0
    classify_past = search_module._classify_past

    def spy(h, t, triples, last_idx, dead, below, automorphisms):
        nonlocal twin_lowered
        out_dead, lowered = classify_past(h, t, triples, last_idx, dead, below, automorphisms)
        edges = set(h.edges)
        for idx in range(last_idx + 1, len(triples)):
            e = triples[idx]
            images = list(search_module._lower_images(below, [], e))
            if dead >> idx & 1 or not images:
                continue
            for j in images:
                assert j < idx
                (v,) = set(e) - set(triples[j])
                (w,) = set(triples[j]) - set(e)
                assert w < v and below[v] >> w & 1
                swap = list(range(h.n))
                swap[v], swap[w] = w, v
                assert {tuple(sorted(swap[u] for u in f)) for f in edges} == edges
            assert lowered >> idx & 1
            assert e not in edges
            assert not reference_is_canonical(Hypergraph3(h.n, [*h.edges, e]))
            twin_lowered += 1
        return out_dead, lowered

    monkeypatch.setattr(search_module, "_classify_past", spy)
    result = turan_search(n, t)
    assert twin_lowered > 0
    assert result.stats["symmetry_skips"] > 0
    assert result.nodes_explored == {(6, 2): 69, (6, 3): 156, (7, 2): 278}[n, t]


@pytest.mark.parametrize("n, t", [(6, 2), (6, 3), (7, 2)])
def test_search_skips_only_noncanonical_children_by_automorphism_rule(monkeypatch, n, t):
    # one rule reads both kinds of known automorphism, twin swaps and the
    # permutations the node's canonicity test found: every triple the status
    # pass marks lowered, taken at its node, is not in it and closes a
    # non-canonical child by the reference minimizer; every permutation the
    # pass reads is an automorphism of the node; the marks equal a
    # recomputation over the twin transpositions and the found permutations,
    # written out as explicit permutations; the node counts hold
    marked = 0
    classify_past = search_module._classify_past

    def spy(h, t, triples, last_idx, dead, below, automorphisms):
        nonlocal marked
        out_dead, lowered = classify_past(h, t, triples, last_idx, dead, below, automorphisms)
        edges = set(h.edges)
        assert all({tuple(sorted(p[v] for v in f)) for f in edges} == edges for p in automorphisms)
        perms = [*automorphisms]
        for cls in _twin_classes(h):
            for v, w in itertools.combinations(cls, 2):
                swap = list(range(h.n))
                swap[v], swap[w] = w, v
                perms.append(swap)
        expected = 0
        for idx in range(last_idx + 1, len(triples)):
            e = triples[idx]
            if dead >> idx & 1 or all(triple_index(*sorted(p[v] for v in e)) >= idx for p in perms):
                continue
            expected |= 1 << idx
            assert e not in edges
            assert not reference_is_canonical(Hypergraph3(h.n, [*h.edges, e]))
            marked += not out_dead >> idx & 1
        assert lowered == expected
        return out_dead, lowered

    monkeypatch.setattr(search_module, "_classify_past", spy)
    result = turan_search(n, t)
    # a marked child that is alive is skipped unless the bound stops first
    assert 0 < result.stats["symmetry_skips"] <= marked
    assert result.nodes_explored == {(6, 2): 69, (6, 3): 156, (7, 2): 278}[n, t]


@pytest.mark.parametrize(
    "n, t, tried, trace_rejects, noncanon_rejects, recursed, symmetry_skips, bound_cuts",
    [
        pytest.param(7, 2, 1028, 552, 199, 277, 558, 1962, id="7-2"),
        pytest.param(6, 3, 246, 58, 33, 155, 120, 741, id="6-3"),
    ],
)
def test_search_counts_its_children(
    n, t, tried, trace_rejects, noncanon_rejects, recursed, symmetry_skips, bound_cuts
):
    # every child tried is dead (a trace reject, however its status was
    # found), rejected as non-canonical or recursed into, and each recursion
    # is a node below the root; neither the symmetry skips nor the child edges
    # past the alive bound are tried (with the bound that counted every
    # later triple, (7, 2) tried 1,944 = 1,313 + 238 + 393 and (6, 3)
    # 329 = 100 + 49 + 180)
    result = turan_search(n, t)
    assert result.stats == {
        "tried": tried,
        "symmetry_skips": symmetry_skips,
        "trace_rejects": trace_rejects,
        "noncanon_rejects": noncanon_rejects,
        "recursed": recursed,
        "bound_cuts": bound_cuts,
    }
    assert tried == trace_rejects + noncanon_rejects + recursed
    assert result.nodes_explored == recursed + 1


@pytest.mark.parametrize("n, t, cap", [(6, 2, 100), (6, 3, 100), (7, 2, 100), (6, 2, 1), (7, 2, 3)])
def test_status_pass_matches_the_kernel_and_the_bound_cuts_only_short_subtrees(
    monkeypatch, n, t, cap
):
    # at every node, each triple past its last edge is dead iff the kernel
    # finds a trace through it, whether the status was inherited, read from
    # an image or checked; and every canonical child that is not dead and
    # not recursed into was cut by the bound: the node's edges plus the
    # alive triples from the child's on stay below the best, or tie it with
    # WITNESS_CAP classes kept, when the node's loop ends
    monkeypatch.setattr(search_module, "WITNESS_CAP", cap)
    nodes = []  # (index sequence, last index, dead mask) in the order entered
    classify_past = search_module._classify_past

    def spy(h, t, triples, last_idx, dead, below, automorphisms):
        out, lowered = classify_past(h, t, triples, last_idx, dead, below, automorphisms)
        assert out & dead == dead
        for idx in range(last_idx + 1, len(triples)):
            assert (out >> idx & 1) == (_trace_through_edge(h, triples[idx], t) is not None)
        nodes.append((edge_indices(h.edges), last_idx, out))
        return out, lowered

    monkeypatch.setattr(search_module, "_classify_past", spy)
    result = turan_search(n, t)
    assert len(nodes) == result.nodes_explored
    triples = all_triples(n)
    total = len(triples)
    cuts = 0
    for i, (seq, last_idx, dead) in enumerate(nodes):
        # the subtree is the run of later nodes that extend seq; the loop
        # ends before the first node after it
        later = range(i + 1, len(nodes))
        end = next((k for k in later if nodes[k][0][: len(seq)] != seq), len(nodes))
        sizes = [len(nodes[k][0]) for k in range(end)]
        best = max(sizes)
        kept = min(sizes.count(best), cap)
        recursed = {nodes[k][0][-1] for k in range(i + 1, end) if len(nodes[k][0]) == len(seq) + 1}
        m = len(seq)
        for idx in range(last_idx + 1, total):
            if dead >> idx & 1 or idx in recursed:
                continue
            if not is_canonical_labeling(Hypergraph3(n, [*(triples[j] for j in seq), triples[idx]])):
                continue
            alive = sum(1 for j in range(idx, total) if not dead >> j & 1)
            assert m + alive < best or (m + alive == best and kept == cap)
            cuts += 1
    assert cuts > 0
    stats = result.stats
    skipped = stats["symmetry_skips"] + stats["bound_cuts"]
    assert stats["tried"] + skipped == sum(total - 1 - last_idx for _, last_idx, _ in nodes)


def _smaller_twins_of(h):
    return search_module._smaller_twins(h.n, _twin_classes(h))


def test_automorphism_rule_on_two_edges_through_a_vertex():
    # {0, 1, 2}, {0, 3, 4} on 5 vertices: the twin classes are {0}, {1, 2},
    # {3, 4} and the block swap (1 3)(2 4), no product of twin swaps, is an
    # automorphism; it maps the child edge {1, 3, 4} to the colex-smaller
    # {1, 2, 3}, which no twin swap does, and nothing lowers {0, 1, 3}
    h = Hypergraph3(5, [(0, 1, 2), (0, 3, 4)])
    found = []
    assert is_canonical_labeling(h, found)
    assert sorted(found) == [[0, 1, 2, 3, 4], [0, 3, 4, 1, 2]]
    below = _smaller_twins_of(h)
    assert list(search_module._lower_images(below, found, (1, 3, 4))) == [triple_index(1, 2, 3)]
    assert list(search_module._lower_images(below, [], (1, 3, 4))) == []
    assert not reference_is_canonical(Hypergraph3(5, [*h.edges, (1, 3, 4)]))
    assert list(search_module._lower_images(below, found, (0, 1, 3))) == []


def test_twin_rule_on_one_edge():
    # on 6 vertices, {0, 1, 2} has twin classes {0, 1, 2} and {3, 4, 5}
    h = Hypergraph3(6, [(0, 1, 2)])
    below = _smaller_twins_of(h)
    assert below == [0, 0b1, 0b11, 0, 0b1000, 0b11000]
    # 4 -> 3 gives {0, 1, 3}
    assert list(search_module._lower_images(below, [], (0, 1, 4))) == [triple_index(0, 1, 3)]
    assert list(search_module._lower_images(below, [], (0, 1, 3))) == []
    assert reference_is_canonical(Hypergraph3(6, [(0, 1, 2), (0, 1, 3)]))
    assert not reference_is_canonical(Hypergraph3(6, [(0, 1, 2), (0, 1, 4)]))


def test_search_builds_no_certificates(monkeypatch):
    # the search only asks the kernel whether a trace exists
    calls = 0
    builder = traces_module.least_third_certificate

    def counting(*args):
        nonlocal calls
        calls += 1
        return builder(*args)

    monkeypatch.setattr(traces_module, "least_third_certificate", counting)
    assert pin(turan_search(7, 2)) == (9, 278, 5, N7_T2_SHA256)
    assert calls == 0


# sha256 of the witnesses' edges, one witness per line as "a,b,c a,b,c ...",
# as the orderly search printed them before the block-end prune in canon
N8_WITNESS_SHA256 = "0234bb256325c1ed90fc7ef10aae17cd4dbf8557ec4d415080d51a169c3536ee"


def test_search_n8_regression():
    result = turan_search(8, 2)
    assert (result.value, result.nodes_explored, len(result.witnesses)) == (11, 1558, 16)
    text = "\n".join(" ".join(f"{a},{b},{c}" for a, b, c in w.edges) for w in result.witnesses)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == N8_WITNESS_SHA256
    assert len({canonical_form(w) for w in result.witnesses}) == 16
    for w in result.witnesses:
        assert contains_trace(w, 2) is None


# -- incremental check -------------------------------------------------------------


def test_incremental_completes_partial_trace():
    h = Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6)])
    assert incremental_trace_check(h, (1, 3, 7), 2) == (1, 0, [2, 3])  # pair, leaves
    cert = incremental_certificate(h, (1, 3, 7), 2)
    assert cert is not None
    h.add_edge((1, 3, 7))
    assert verify_certificate(h, cert)


def test_incremental_disjoint_edge_absent():
    h = Hypergraph3(9, [(0, 1, 2)])
    assert incremental_trace_check(h, (3, 4, 5), 2) is None


def _snapshot(h):
    """Copies of h's edges, link index and shadow neighbourhoods."""
    return (
        h.edges,
        {v: {u: set(thirds) for u, thirds in row.items()} for v, row in h.link_index().items()},
        [set(h.shadow_neighbors(v)) for v in range(h.n)],
    )


def test_incremental_check_only_reads_the_hypergraph(monkeypatch):
    # the check answers for h + e without adding e: whether it finds a
    # trace, finds none or refuses the edge, h is unchanged and no edge is
    # added or removed; a present, out-of-range or two-vertex edge raises
    # add_edge's own message, from the validator the two share.  In shared,
    # 1 and 3 of the new edge (1, 3, 7) already lie in the edge (0, 1, 3):
    # the thirds {0} of the pair {1, 3} gain 7 in h + e, and the trace found
    # uses them, so they must be read from a copy, not extended in place
    h = Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6)])
    shared = Hypergraph3(8, [*h.edges, (0, 1, 3)])
    bad = [(0, 2, 4), (1, 3, 8), (1, 3)]
    messages = []
    for e in bad:
        with pytest.raises(ValueError) as refused:
            h.copy().add_edge(e)
        messages.append(str(refused.value))
    assert len(set(messages)) == 3
    before, shared_before = _snapshot(h), _snapshot(shared)
    mutations, validated = 0, []
    add, remove, new_edge = Hypergraph3.add_edge, Hypergraph3.remove_edge, Hypergraph3.new_edge

    def counted(method):
        def wrapper(self, edge):
            nonlocal mutations
            mutations += 1
            return method(self, edge)

        return wrapper

    def spy_new_edge(self, edge):
        validated.append(edge)
        return new_edge(self, edge)

    monkeypatch.setattr(Hypergraph3, "add_edge", counted(add))
    monkeypatch.setattr(Hypergraph3, "remove_edge", counted(remove))
    monkeypatch.setattr(Hypergraph3, "new_edge", spy_new_edge)
    assert incremental_trace_check(h, (1, 3, 7), 2) == (1, 0, [2, 3])
    assert _snapshot(h) == before
    assert incremental_trace_check(h, (3, 4, 5), 2) is None
    assert _snapshot(h) == before
    for e, message in zip(bad, messages):
        with pytest.raises(ValueError) as refused:
            incremental_trace_check(h, e, 2)
        assert str(refused.value) == message
        assert _snapshot(h) == before
    assert incremental_trace_check(shared, (1, 3, 7), 2) == (1, 0, [2, 3])
    assert _snapshot(shared) == shared_before
    assert mutations == 0
    assert validated == [(1, 3, 7), (3, 4, 5), *bad, (1, 3, 7)]


def test_incremental_equivalence_on_random_pairs():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        n = rng.randint(5, 8)
        t = rng.choice([2, 3])
        h = random_hypergraph(n, rng.choice([0.1, 0.2, 0.3]), rng)
        if contains_trace(h, t) is not None:
            continue
        missing = [e for e in itertools.combinations(range(n), 3) if e not in h]
        if not missing:
            continue
        e = missing[rng.randrange(len(missing))]
        inc = incremental_certificate(h, e, t)
        h.add_edge(e)
        full = contains_trace(h, t)
        assert (inc is None) == (full is None)
        if inc is not None:
            assert verify_certificate(h, inc)
        done += 1


# -- CNF export ---------------------------------------------------------------------


def test_cnf_sat_at_value_unsat_above(tmp_path, oracle_table):
    for n in (4, 5):
        value = oracle_table[(n, 2)].value
        sat_path = tmp_path / f"sat_{n}.cnf"
        export_cnf(n, value, 2, str(sat_path))
        assert dpll_satisfiable(*parse_dimacs(str(sat_path)))
        unsat_path = tmp_path / f"unsat_{n}.cnf"
        export_cnf(n, value + 1, 2, str(unsat_path))
        assert not dpll_satisfiable(*parse_dimacs(str(unsat_path)))


def test_cnf_trivially_unsat_when_m_exceeds_triples(tmp_path):
    path = tmp_path / "over.cnf"
    export_cnf(4, 5, 2, str(path))
    assert not dpll_satisfiable(*parse_dimacs(str(path)))


def test_cnf_for_a_t_with_no_room_has_only_cardinality_clauses(tmp_path):
    # no trace fits on 5 vertices at this t, so there is no blocking clause
    # and every hypergraph is trace-free
    path = tmp_path / "room.cnf"
    export_cnf(5, 10, 10**20, str(path))
    num_vars, clauses = parse_dimacs(str(path))
    assert clauses == [[v] for v in range(1, 11)]
    assert dpll_satisfiable(num_vars, clauses)
    export_cnf(5, 11, 10**20, str(path))
    assert not dpll_satisfiable(*parse_dimacs(str(path)))


def test_cnf_refuses_large_n(tmp_path):
    with pytest.raises(CapExceeded):
        export_cnf(8, 4, 2, str(tmp_path / "no.cnf"))


def test_cnf_header_consistent(tmp_path):
    path = tmp_path / "head.cnf"
    num_vars, num_clauses = export_cnf(5, 4, 2, str(path))
    parsed_vars, clauses = parse_dimacs(str(path))
    assert parsed_vars == num_vars
    assert len(clauses) == num_clauses
    assert all(abs(lit) <= num_vars for cl in clauses for lit in cl)
