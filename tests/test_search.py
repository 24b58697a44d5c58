"""Extremal search, oracle, incremental check, and CNF export tests."""

import hashlib
import itertools
import random

import pytest

from trace_turan import (
    CapExceeded,
    Hypergraph3,
    canonical_form,
    contains_trace,
    contains_trace_naive,
    export_cnf,
    incremental_trace_check,
    trace_templates,
    turan_oracle,
    turan_search,
    verify_certificate,
)
from trace_turan import search as search_module
from trace_turan.canon import is_canonical_labeling
from trace_turan.indexing import all_triples, triple_index

from helpers import dpll_satisfiable, parse_dimacs, random_hypergraph

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
    [(7, 2, 1257, 393, 394), (6, 3, 359, 180, 181)],
)
def test_search_canonicity_calls(monkeypatch, n, t, calls, accepts, nodes):
    # every child that passes the trace check is tested once, and each
    # accept is one node below the empty root
    counts = {"calls": 0, "accepts": 0}

    def counting(h):
        verdict = is_canonical_labeling(h)
        counts["calls"] += 1
        counts["accepts"] += verdict
        return verdict

    monkeypatch.setattr(search_module, "is_canonical_labeling", counting)
    result = turan_search(n, t)
    assert counts == {"calls": calls, "accepts": accepts}
    assert result.nodes_explored == nodes == accepts + 1


# sha256 of the witnesses' edges, one witness per line as "a,b,c a,b,c ...",
# as the orderly search printed them before the block-end prune in canon
N8_WITNESS_SHA256 = "0234bb256325c1ed90fc7ef10aae17cd4dbf8557ec4d415080d51a169c3536ee"


def test_search_n8_regression():
    result = turan_search(8, 2)
    assert (result.value, result.nodes_explored, len(result.witnesses)) == (11, 2604, 16)
    text = "\n".join(" ".join(f"{a},{b},{c}" for a, b, c in w.edges) for w in result.witnesses)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == N8_WITNESS_SHA256
    assert len({canonical_form(w) for w in result.witnesses}) == 16
    for w in result.witnesses:
        assert contains_trace(w, 2) is None


# -- incremental check -------------------------------------------------------------


def test_incremental_completes_partial_trace():
    h = Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6)])
    cert = incremental_trace_check(h, (1, 3, 7), 2)
    assert cert is not None
    h.add_edge((1, 3, 7))
    assert verify_certificate(h, cert)


def test_incremental_disjoint_edge_absent():
    h = Hypergraph3(9, [(0, 1, 2)])
    assert incremental_trace_check(h, (3, 4, 5), 2) is None


def test_incremental_restores_hypergraph():
    h = Hypergraph3(8, [(0, 2, 4)])
    incremental_trace_check(h, (0, 3, 5), 2)
    assert h.edge_count == 1


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
        inc = incremental_trace_check(h, e, t)
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
