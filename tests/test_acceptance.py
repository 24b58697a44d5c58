"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertions make pytest enforce the same verdicts.
"""

import itertools
import math
import random
import shutil

from trace_turan import (
    Hypergraph3,
    contains_trace,
    contains_trace_naive,
    dominated_min_degree,
    dominated_pair_min1,
    derivation_check,
    epsilon,
    lemma_status_report,
    lift_to_trace_free,
    log_grid,
    polarity_graph,
    turan_search,
    verify_certificate,
)
import trace_turan.dominated as dominated
from trace_turan.lemma_checks import CERTIFIED

from helpers import (
    dpll_satisfiable,
    epsilon_interval,
    export_cnf,
    four_subset_has_c4,
    is_dominated,
    max_dominated_subset,
    parse_dimacs,
    random_hypergraph,
    random_loop_graph,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" -- {detail}" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_oracle_equivalence(oracle_table, search_table):
    elapsed = 0.0
    agree = True
    for t in (2, 3):
        for n in range(4, 7):
            o, s = oracle_table[(n, t)], search_table[(n, t)]
            elapsed += o.elapsed + s.elapsed
            agree = agree and o.value == s.value
    forced = oracle_table[(4, 2)].value == 4 and oracle_table[(5, 3)].value == 10
    ok = agree and forced and elapsed < 600
    report(
        "criterion 1: oracle equivalence (n <= 6, t in {2,3})",
        ok,
        f"values agree, ex(4,t=2)=4, ex(5,t=3)=10, total {elapsed:.1f}s",
    )


def test_criterion_2_detector_equivalence():
    rng_master = random.Random(987654321)
    disagreements = 0
    checked = 0
    for _ in range(1000):
        n = rng_master.randint(4, 8)
        p = rng_master.choice([0.1, 0.2, 0.3, 0.4, 0.5])
        t = rng_master.choice([2, 3])
        h = random_hypergraph(n, p, rng_master)
        fast, slow = contains_trace(h, t), contains_trace_naive(h, t)
        if (fast is None) != (slow is None):
            disagreements += 1
        elif fast is not None and not (
            verify_certificate(h, fast) and verify_certificate(h, slow)
        ):
            disagreements += 1
        checked += 1
    triples5 = list(itertools.combinations(range(5), 3))
    for mask in range(1 << 10):
        h = Hypergraph3(5, [triples5[i] for i in range(10) if mask >> i & 1])
        for t in (2, 3):
            if (contains_trace(h, t) is None) != (contains_trace_naive(h, t) is None):
                disagreements += 1
            checked += 1
    report(
        "criterion 2: detector equivalence",
        disagreements == 0,
        f"{checked} comparisons (1000 random + all 1024 on n=5 x two t), {disagreements} disagreements",
    )


def test_criterion_3_lemma_invariant_suite(search_table):
    clean = True
    for (n, t), result in search_table.items():
        for w in result.witnesses:
            clean = clean and not any(st.violations for st in lemma_status_report(w, t, 14))
    for q in (2, 3, 5, 7):
        h = lift_to_trace_free(polarity_graph(q))
        clean = clean and not any(st.violations for st in lemma_status_report(h, 2, 14))

    violating = [
        Hypergraph3(
            7,
            [
                (0, 1, 2), (0, 1, 3), (0, 1, 4),
                (0, 2, 5), (1, 2, 6), (0, 3, 5),
                (1, 3, 6), (0, 4, 5), (1, 4, 6),
            ],
        ),
        Hypergraph3(
            12,
            [
                edge
                for u in range(2, 10)
                for hub in (10, 11)
                for edge in ((0, u, hub), (1, u, hub))
            ],
        ),
        Hypergraph3(17, itertools.combinations(range(17), 3)),
    ]
    certified = True
    total_violations = 0
    for h in violating:
        violations = [v for st in lemma_status_report(h, 2, 14) for v in st.violations]
        total_violations += len(violations)
        certified = certified and bool(violations)
        for v in violations:
            certified = certified and v.note == CERTIFIED
            certified = certified and v.certificate is not None
            certified = certified and verify_certificate(h, v.certificate)
    report(
        "criterion 3: lemma invariant suite",
        clean and certified,
        f"clean on witnesses and lifts; {total_violations} violations on "
        f"{len(violating)} built instances, all certified",
    )


def test_criterion_4_construction_fidelity():
    ok = True
    detail = []
    for q in (2, 3, 5, 7):
        g = polarity_graph(q)
        ok = ok and g.vertices == range(q * q + q + 1)
        ok = ok and g.edge_count == q * (q + 1) ** 2 // 2
        ok = ok and not four_subset_has_c4(g)
        h = lift_to_trace_free(g)
        ok = ok and contains_trace(h, 2) is None
        if q == 7:
            ratio = h.edge_count / h.n**1.5
            ok = ok and ratio >= 0.45
            detail.append(f"q=7 lift ratio {ratio:.3f}")
    report("criterion 4: construction fidelity (q in {2,3,5,7})", ok, "; ".join(detail))


def test_criterion_5_numeric_derivation():
    grid = log_grid(14, 10**6, 1000)
    points = derivation_check(grid)
    all_certified = len(points) >= 1000 and all(p.certified for p in points)
    eps_ok = epsilon(14) <= 0.25 and epsilon_interval(14).hi <= 0.25
    report(
        "criterion 5: numeric derivation of the headline bound",
        all_certified and eps_ok,
        f"{len(points)} interval-certified grid points; eps(14)={epsilon(14):.5f} <= 1/4",
    )


def test_criterion_6_dominated_set_guarantees(monkeypatch):
    rng = random.Random(1357924680)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 20)
        gx = random_loop_graph(n, rng.choice([0.15, 0.3, 0.5]), rng, min_degree=1)
        gy = random_loop_graph(n, rng.choice([0.15, 0.3, 0.5]), rng, min_degree=1)
        r = dominated_pair_min1(gx, gy)
        ok = ok and len(r) >= math.ceil(n / 3)
        ok = ok and is_dominated(gx, r) and is_dominated(gy, r)
    for _ in range(500):
        n = rng.randint(2, 24)
        delta = rng.choice([2, 3, 4, 14])
        g = random_loop_graph(n, 0.45, rng, min_degree=delta)
        r = dominated_min_degree(g, delta)
        ok = ok and len(r) >= math.ceil((1 - epsilon(delta)) * n)
        ok = ok and is_dominated(g, r)

    # deterministic-fallback sweep with an all-subsets cross-check
    monkeypatch.setattr(dominated, "_MAX_RETRIES", 0)
    exhaustive_ok = True
    for n in range(3, 13):
        for delta in (2, 3, 4):
            for case in range(10):
                g = random_loop_graph(
                    n, 0.5, random.Random(n * 1000 + delta * 100 + case), min_degree=delta
                )
                r = dominated_min_degree(g, delta)
                target = math.ceil((1 - epsilon(delta)) * n)
                exhaustive_ok = exhaustive_ok and len(r) >= target
                exhaustive_ok = exhaustive_ok and is_dominated(g, r)
                if n <= 10 and case < 3:
                    exhaustive_ok = exhaustive_ok and max_dominated_subset(g) >= target
    report(
        "criterion 6: dominated-set guarantees",
        ok and exhaustive_ok,
        "1000 random instances + forced-fallback sweep n <= 12, delta in {2,3,4}",
    )


def test_criterion_7_monotonicity_regression(search_table):
    known = {
        (4, 2): 4, (5, 2): 6, (6, 2): 7,
        (4, 3): 4, (5, 3): 10, (6, 3): 14,
    }
    stable = all(search_table[key].value == val for key, val in known.items())
    mono_n = all(
        search_table[(n, t)].value <= search_table[(n + 1, t)].value
        for t in (2, 3)
        for n in (4, 5)
    )
    mono_t = all(search_table[(n, 2)].value <= search_table[(n, 3)].value for n in (4, 5, 6))
    rerun = turan_search(5, 2)
    bit_stable = (
        rerun.value == search_table[(5, 2)].value
        and [w.edges for w in rerun.witnesses]
        == [w.edges for w in search_table[(5, 2)].witnesses]
    )
    report(
        "criterion 7: monotone regression table",
        stable and mono_n and mono_t and bit_stable,
        "values " + ", ".join(f"ex({n},{t})={v}" for (n, t), v in sorted(known.items())),
    )


def _external_solver():
    for name in ("minisat", "cryptominisat5", "kissat", "picosat", "cadical", "glucose"):
        path = shutil.which(name)
        if path:
            return name
    return None


def test_criterion_8_cnf_cross_check(tmp_path, oracle_table):
    solver = _external_solver()
    if solver is not None:
        import subprocess

        def solve(path):
            proc = subprocess.run([solver, str(path)], capture_output=True)
            return proc.returncode == 10

        backend = solver
    else:

        def solve(path):
            return dpll_satisfiable(*parse_dimacs(str(path)))

        backend = "built-in DPLL fallback (no external solver on PATH)"
    ok = True
    for n in (4, 5):
        value = oracle_table[(n, 2)].value
        sat_path = tmp_path / f"{n}_at.cnf"
        export_cnf(n, value, 2, str(sat_path))
        unsat_path = tmp_path / f"{n}_above.cnf"
        export_cnf(n, value + 1, 2, str(unsat_path))
        ok = ok and solve(sat_path) and not solve(unsat_path)
    report("criterion 8: CNF cross-check (n <= 5, t=2)", ok, f"solver: {backend}")
