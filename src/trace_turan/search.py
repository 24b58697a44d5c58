"""Exact values of the trace Turán function at desk scale.

Two independent routes to the same number:

* ``turan_oracle`` -- subset enumeration over all triples in colex order
  against a precomputed table of minimal trace configurations (bitmask
  inclusion tests), capped at n <= 6.  It keeps a mask reached at the best
  iff the mask is a canonical labelling (see ``turan_oracle``), and tests
  the masks at the best in batches, so an interim best costs no test;
* ``turan_search`` -- orderly generation (Read 1978): grow
  canonically-labeled trace-free hypergraphs one colex-larger edge at a
  time, rejecting non-canonical children and pruning with the incremental
  trace check of ``traces`` (``_trace_through_edge``: a trace's pair and
  leaves through the new edge, or None; sound as the parent is trace-free),
  capped at n <= 12.  The check reads the parent alone, before the child
  edge is added, so only trace-free children are added, tested for
  canonicity and removed again.  ``SearchResult.stats`` counts what became
  of each child.
  Traces are monotone under adding edges, so a child edge found trace-free
  below a sibling is trace-free at the parent too, and the parent skips
  the check for it.  A child edge f that an automorphism of the parent
  maps to a colex-smaller edge is skipped unadded: the child is
  isomorphic to one with a smaller index sequence and is not canonical.
  The automorphisms read are the transpositions of twins and the ones the
  parent's own canonicity test found.

``export_cnf`` emits a DIMACS formula satisfiable iff a trace-free
hypergraph with the requested edge count exists, for external cross-checks
of both routes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .canon import _twin_classes, canonical_form, is_canonical_labeling
from .hypergraph import CapExceeded, Hypergraph3
from .indexing import Triple, all_triples, triple_index
from .traces import _t_of, _trace_fits, _trace_through_edge


@dataclass
class SearchResult:
    n: int
    t: int
    value: int
    witnesses: list[Hypergraph3]
    nodes_explored: int
    elapsed: float
    # turan_search's run counts: child edges the twin and automorphism rules
    # skip unadded (twin_skips, automorphism_skips), and the children tried,
    # each rejected by the trace check, rejected as non-canonical or
    # recursed into; the oracle keeps none
    stats: dict[str, int] = field(default_factory=dict)


# both routes keep at most this many witness classes
WITNESS_CAP = 100


def trace_templates(n: int, t: int) -> list[frozenset[int]]:
    """Every minimal trace configuration on n vertices as an edge-index set.

    A configuration fixes the pair {x, y}, the t leaves, and one third
    vertex outside the core per pattern edge; the 2t resulting triples are
    automatically distinct because their core intersections differ.
    """
    if not _trace_fits(n, t):
        return []
    templates: set[frozenset[int]] = set()
    verts = range(n)
    for x, y in itertools.combinations(verts, 2):
        others = [u for u in verts if u != x and u != y]
        for d in itertools.combinations(others, t):
            core = {x, y, *d}
            outside = [w for w in verts if w not in core]
            choices = []
            for pv in (x, y):
                for u in d:
                    choices.append([triple_index(pv, u, w) for w in outside])
            for combo in itertools.product(*choices):
                templates.add(frozenset(combo))
    return sorted(templates, key=sorted)


def _templates_by_edge(n: int, t: int) -> tuple[int, list[list[int]]]:
    """Per-edge list of residual masks: each template minus its largest
    edge, as bits, filed under that edge.  The oracle includes edges in
    index order, so a template can only be completed by its largest edge."""
    total = len(all_triples(n))
    by_edge: list[list[int]] = [[] for _ in range(total)]
    for tmpl in trace_templates(n, t):
        mask = 0
        for idx in tmpl:
            mask |= 1 << idx
        top = max(tmpl)
        by_edge[top].append(mask & ~(1 << top))
    return total, by_edge


ORACLE_CAP = 6
SEARCH_CAP = 12


def turan_oracle(n: int, t: int) -> SearchResult:
    """Ground-truth maximum edge count by pruned subset enumeration.

    The walk includes each edge before it excludes it, so it reaches masks
    of equal size in lexicographic order of their sorted index sequences,
    and it reaches every trace-free mask of the best size until the
    ``WITNESS_CAP`` prune stops it.  A class's canonical labelling is its
    least such sequence, so the first mask of each class reached at the
    best is that class's canonical labelling: a mask is kept iff
    ``is_canonical_labeling`` accepts it, and each kept mask is a new
    class, keyed by its canonical form.

    The masks reached at the current best are decided in batches: at the
    end, or once they could hold ``WITNESS_CAP`` classes, which is when the
    cap prune needs the exact class count.  An interim best that a larger
    one replaces then costs no canonicity test, and the prune fires exactly
    where it would if every mask were decided on arrival.

    Refuses n > 6 outright rather than degrading into an open-ended run.
    """
    t = _t_of(t)
    if n > ORACLE_CAP:
        raise CapExceeded(f"oracle handles n <= {ORACLE_CAP}, got n={n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    start = time.perf_counter()
    total, by_edge = _templates_by_edge(n, t)
    nodes = 0
    best = -1
    witness_forms: dict[bytes, int] = {}  # the canonical mask of each class, in order
    pending: list[int] = []  # masks at best not yet decided
    triples = all_triples(n)

    def to_graph(mask: int) -> Hypergraph3:
        return Hypergraph3(n, [triples[i] for i in range(total) if mask >> i & 1])

    def decide_pending() -> None:
        for mask in pending:
            h = to_graph(mask)
            if is_canonical_labeling(h):
                witness_forms[canonical_form(h)] = mask
        pending.clear()

    def record(mask: int, m: int) -> None:
        nonlocal best
        if m > best:
            best = m
            witness_forms.clear()
            pending.clear()
        pending.append(mask)
        if len(witness_forms) + len(pending) >= WITNESS_CAP:
            decide_pending()

    def rec(idx: int, mask: int, m: int) -> None:
        nonlocal nodes
        nodes += 1
        if m + (total - idx) < best or (
            m + (total - idx) == best and len(witness_forms) >= WITNESS_CAP
        ):
            return
        if idx == total:
            record(mask, m)
            return
        rest = ~mask
        for res in by_edge[idx]:
            if not res & rest:
                break
        else:
            rec(idx + 1, mask | (1 << idx), m + 1)
        rec(idx + 1, mask, m)

    rec(0, 0, 0)
    decide_pending()
    witnesses = [to_graph(mask) for mask in witness_forms.values()]
    return SearchResult(n, t, best, witnesses, nodes, time.perf_counter() - start)


def _smaller_twins(n: int, classes: list[list[int]]) -> list[int]:
    """Per vertex v, the bitmask of v's twins with smaller labels in classes."""
    below = [0] * n
    for cls in classes:
        mask = 0
        for v in cls:  # ascending
            below[v] = mask
            mask |= 1 << v
    return below


def _twin_lowers(below: list[int], e: Triple) -> bool:
    """True when some vertex of e has a smaller twin outside e, so that
    swapping the two maps e to a colex-smaller edge."""
    a, b, c = e
    return bool((below[a] | below[b] | below[c]) & ~(1 << a | 1 << b | 1 << c))


def _automorphism_lowers(automorphisms: list[list[int]], e: Triple) -> bool:
    """True when some permutation in automorphisms maps e to a colex-smaller
    edge; triples compare in colex order as their (max, mid, min) lists."""
    a, b, c = e
    key = [c, b, a]
    for p in automorphisms:
        if sorted((p[a], p[b], p[c]), reverse=True) < key:
            return True
    return False


def turan_search(n: int, t: int) -> SearchResult:
    """Exact maximum by isomorph-free orderly generation, for n <= 12.

    Every canonically-labeled trace-free hypergraph is reachable from the
    empty one by adding its colex-largest edge last, so extending canonical
    states by strictly larger edges and keeping only canonical children
    visits each isomorphism class exactly once.

    Each node returns the child edges its subtree proved trace-free.  If
    h + f + ... + e is trace-free, so is its subgraph h + e, so a node
    skips the trace check for any later child e that an earlier child's
    subtree returned.  That child is still added, tested for canonicity
    and recursed into in the same order, so nodes and witnesses do not
    change.

    A child edge f is skipped before it is added, with neither check, when
    some vertex v of f has a smaller twin w outside f in h.  The swap
    (v w) is an automorphism of h, so it maps f to an edge f* outside h
    with a smaller colex index, and h + f is isomorphic to h + f*, whose
    sorted index sequence is smaller: h + f is not canonical.  Twin classes
    are computed once per node: a child's, before its canonicity test, serve
    that test and, if it passes, the child's own node.

    The same holds for any automorphism of h that maps f to a colex-smaller
    edge, and the canonicity test that accepted h found some: every leaf of
    its decide-only walk is one.  The node keeps them and skips, after the
    twin rule and again with neither check, each child edge one of them
    lowers.  Neither rule changes the children recursed into, so nodes and
    witnesses do not change.

    The trace check runs before a child edge is added, so a child with a
    trace is never added; the result's ``stats`` count each outcome.

    When no trace fits (t > n - 3) every hypergraph is trace-free, and the
    search answers at once: value C(n, 3), the complete hypergraph as the
    one witness, one node and zero counts.
    """
    t = _t_of(t)
    if n > SEARCH_CAP:
        raise CapExceeded(f"search capped at n <= {SEARCH_CAP}, got n={n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    start = time.perf_counter()
    triples = all_triples(n)
    total = len(triples)
    stats = dict.fromkeys(
        ("tried", "twin_skips", "automorphism_skips", "trace_rejects", "noncanon_rejects", "recursed"),
        0,
    )
    if not _trace_fits(n, t):
        complete = Hypergraph3(n, triples)
        return SearchResult(n, t, total, [complete], 1, time.perf_counter() - start, stats)

    best = -1
    witnesses: list[Hypergraph3] = []
    h = Hypergraph3(n)

    # returns, as a bitmask of edge indices, every edge this subtree found
    # trace-free when added; each is also trace-free added to this node alone
    def rec(last_idx: int, automorphisms: list[list[int]], classes: list[list[int]]) -> int:
        nonlocal best, witnesses
        m = h.edge_count
        if m > best:
            best = m
            witnesses = [h.copy()]
        elif m == best and len(witnesses) < WITNESS_CAP:
            witnesses.append(h.copy())
        free = 0
        below = _smaller_twins(n, classes)
        for idx in range(last_idx + 1, total):
            if m + (total - idx) < best or (
                m + (total - idx) == best and len(witnesses) >= WITNESS_CAP
            ):
                break
            e = triples[idx]
            if _twin_lowers(below, e):
                stats["twin_skips"] += 1
                continue
            if _automorphism_lowers(automorphisms, e):
                stats["automorphism_skips"] += 1
                continue
            if not free >> idx & 1 and _trace_through_edge(h, e, t) is not None:
                stats["trace_rejects"] += 1
                continue
            free |= 1 << idx
            h.add_edge(e)
            found: list[list[int]] = []
            twins = _twin_classes(h)
            if is_canonical_labeling(h, found, twins):
                stats["recursed"] += 1
                free |= rec(idx, found, twins)
            else:
                stats["noncanon_rejects"] += 1
            h.remove_edge(e)
        return free

    rec(-1, [], _twin_classes(h))
    stats["tried"] = stats["trace_rejects"] + stats["noncanon_rejects"] + stats["recursed"]
    # every node but the root was recursed into
    return SearchResult(n, t, best, witnesses, stats["recursed"] + 1, time.perf_counter() - start, stats)


# -- DIMACS export ----------------------------------------------------------

CNF_CAP = 7


def export_cnf(n: int, m: int, t: int, path: str) -> tuple[int, int]:
    """Write a DIMACS CNF satisfiable iff some n-vertex trace-free
    hypergraph has at least m edges.

    One variable per triple; a sequential-counter cardinality constraint
    keeps at least m of them true; every minimal trace configuration
    contributes a blocking clause.  Returns (variables, clauses).
    """
    t = _t_of(t)
    if n > CNF_CAP:
        raise CapExceeded(f"CNF export handles n <= {CNF_CAP}, got n={n}")
    total = len(all_triples(n))
    clauses: list[list[int]] = []
    num_vars = max(total, 1)

    if m > total:
        clauses.append([1])
        clauses.append([-1])
    elif m > 0:
        k = total - m  # allowed number of excluded triples
        if k == 0:
            for v in range(1, total + 1):
                clauses.append([v])
        else:
            # sequential counter bounding the excluded literals y_i = -x_i,
            # so -y_i below denotes the positive edge variable i
            def y(i: int) -> int:  # 1-based
                return -i

            s = {}
            for i in range(1, total):
                for j in range(1, k + 1):
                    num_vars += 1
                    s[i, j] = num_vars
            clauses.append([-y(1), s[1, 1]])
            for j in range(2, k + 1):
                clauses.append([-s[1, j]])
            for i in range(2, total):
                clauses.append([-y(i), s[i, 1]])
                clauses.append([-s[i - 1, 1], s[i, 1]])
                for j in range(2, k + 1):
                    clauses.append([-y(i), -s[i - 1, j - 1], s[i, j]])
                    clauses.append([-s[i - 1, j], s[i, j]])
                clauses.append([-y(i), -s[i - 1, k]])
            clauses.append([-y(total), -s[total - 1, k]])

    for tmpl in trace_templates(n, t):
        clauses.append([-(idx + 1) for idx in sorted(tmpl)])

    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"c trace-free existence: n={n} m={m} t={t}\n")
        fh.write(f"p cnf {num_vars} {len(clauses)}\n")
        for cl in clauses:
            fh.write(" ".join(map(str, cl)) + " 0\n")
    return num_vars, len(clauses)
