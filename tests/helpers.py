"""Independent reference implementations used only as test oracles.

Nothing here shares code with the library paths it checks: canonical forms
are minimized over all n! permutations or by a frozen copy of the earlier
branch-and-bound minimizer, traces by a frozen copy of the earlier detector
that scans every pair and every leaf, shells N1/N2 and E_u/V_u by a frozen
copy of the earlier scan over a sorted, re-validated edge list, 4-cycles are
found by scanning 4-subsets, dominated sets by scanning all subsets, and the
DIMACS formulas are decided by a tiny DPLL with unit propagation.  The edge
partition, the link graphs and dominated sets are checked against their
defining properties.  ``epsilon_interval`` re-types the library's ε over
outward-rounded intervals, as a certified reference for ``epsilon``.
``reference_loads_edge_lines`` is a frozen copy of the earlier
token-by-token edge-line reader, for any number of vertices per line; the
library's ``loads_hypergraph`` must match it at three.  No command reads a
graph file, so ``loads_graph``, the reader of the text that ``dumps_graph``
writes, lives here on that frozen reader and returns the one ``Graph`` type
on ``range(n)``.  ``leaf_candidates`` is a frozen copy of the library's
earlier per-pair candidate builder, the reference for ``contains_trace``'s
row sweep.  ``incremental_certificate`` is a library wrapper: the
library's incremental check returns a pair and leaves, and tests that
compare certificates build one from them.
``brute_force_ex_c4`` computes the graph numbers ex(n, C4) by branch and
bound over edge sets.  ``reference_turan_oracle`` is a frozen copy of the
library's earlier oracle, which dedupes the masks it reaches at the best
by canonical form; it shares the library's trace templates and
``canonical_form``.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable, TypeVar

from trace_turan import search as search_module
from trace_turan import (
    EdgePartition,
    FormatError,
    Graph,
    Hypergraph3,
    Interval,
    SearchResult,
    TraceCertificate,
    canonical_form,
    incremental_trace_check,
    least_third_certificate,
    lift_to_trace_free,
    link_graph,
    polarity_graph,
)
from trace_turan.hypergraph import _as_triple
from trace_turan.indexing import Triple, all_triples, edge_indices


def random_hypergraph(n: int, p: float, rng: random.Random) -> Hypergraph3:
    h = Hypergraph3(n)
    for e in itertools.combinations(range(n), 3):
        if rng.random() < p:
            h.add_edge(e)
    return h


def relabelled_lift(q: int) -> Hypergraph3:
    """The lift of the polarity graph for q under a vertex permutation
    seeded by q, so the apex is not the last vertex."""
    h = lift_to_trace_free(polarity_graph(q))
    perm = list(range(h.n))
    random.Random(q).shuffle(perm)
    return Hypergraph3(h.n, [tuple(perm[v] for v in e) for e in h.edges])


def random_loop_graph(
    n: int, p: float, rng: random.Random, min_degree: int = 1
) -> Graph:
    """Random simple graph with loops added until min_degree is reached."""
    g = Graph(range(n))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    for v in range(n):
        deficit = min_degree - g.degree(v)
        if deficit > 0:
            g.add_loop(v, deficit)
    return g


def brute_force_min_index_sequence(h: Hypergraph3) -> tuple[int, ...]:
    """Canonical sequence by trying every vertex permutation."""
    from trace_turan.indexing import triple_index

    best = None
    for perm in itertools.permutations(range(h.n)):
        seq = tuple(sorted(triple_index(perm[a], perm[b], perm[c]) for a, b, c in h.edges))
        if best is None or seq < best:
            best = seq
    return best if best is not None else ()


# -- canonical labelling reference (pre-incremental minimizer) ------------------

_BIG = 1 << 60


def _reference_twin(v: int, w: int, incident: dict[int, list[frozenset[int]]], edge_set: set[frozenset[int]]) -> bool:
    """True if transposing v and w maps the edge set to itself."""
    for e in incident[v] + incident[w]:
        swapped = frozenset(w if u == v else v if u == w else u for u in e)
        if swapped not in edge_set:
            return False
    return True


def reference_min_index_sequence(
    n: int,
    edges: list[Triple],
    best: list[int],
    decide_only: bool,
) -> bool:
    """Minimize the index sequence over relabelings, in place on ``best``.

    The library's minimizer as it stood before twin classes and block keys
    were hoisted out of the recursion, kept for A/B comparison: it rebuilds
    every block and re-tests twinship at every frame.

    With decide_only=True, ``best`` is left untouched and the return value
    says whether some relabeling beats it strictly.  Otherwise ``best`` ends
    up holding the canonical sequence and the return value is meaningless.
    """
    edge_fs = [frozenset(e) for e in edges]
    edge_set = set(edge_fs)
    incident: dict[int, list[frozenset[int]]] = {v: [] for v in range(n)}
    for e in edge_fs:
        for v in e:
            incident[v].append(e)

    pos: dict[int, int] = {}
    found_smaller = False

    def block_for(v: int, depth: int) -> list[int]:
        blk = []
        for e in incident[v]:
            others = [u for u in e if u != v]
            if others[0] in pos and others[1] in pos:
                i, j = sorted((pos[others[0]], pos[others[1]]))
                blk.append(comb(depth, 3) + comb(j, 2) + i)
        blk.sort()
        return blk

    def rec(depth: int, emitted: int) -> None:
        nonlocal found_smaller
        if found_smaller and decide_only:
            return
        if depth == n:
            return
        unassigned = [v for v in range(n) if v not in pos]
        scored = []
        for v in unassigned:
            blk = block_for(v, depth)
            scored.append((tuple(blk) + (_BIG,), v, blk))
        scored.sort()
        tried: list[int] = []
        for _, v, blk in scored:
            if any(_reference_twin(v, w, incident, edge_set) for w in tried):
                continue
            tried.append(v)
            # compare blk against the incumbent at offset ``emitted``
            verdict = 0  # 0 equal, -1 smaller, +1 larger
            for i, idx in enumerate(blk):
                incumbent = best[emitted + i] if emitted + i < len(best) else _BIG
                if idx != incumbent:
                    verdict = -1 if idx < incumbent else 1
                    break
            if verdict > 0:
                continue
            if verdict < 0:
                if decide_only:
                    found_smaller = True
                    return
                del best[emitted:]
                best.extend(blk)
            pos[v] = depth
            rec(depth + 1, emitted + len(blk))
            del pos[v]
            if found_smaller and decide_only:
                return

    rec(0, 0)
    return found_smaller



def reference_index_sequence(h: Hypergraph3) -> tuple[int, ...]:
    best = list(edge_indices(h.edges))
    reference_min_index_sequence(h.n, list(h.edges), best, decide_only=False)
    return tuple(best)


def reference_is_canonical(h: Hypergraph3) -> bool:
    best = list(edge_indices(h.edges))
    return not reference_min_index_sequence(h.n, list(h.edges), best, decide_only=True)


def reference_turan_oracle(n: int, t: int) -> SearchResult:
    """The earlier ``turan_oracle``: masks at the best are deduped by
    canonical form, in order at the end or once they could hold
    ``WITNESS_CAP`` classes (read from the library at call time)."""
    t = search_module._t_of(t)
    total, by_edge = search_module._templates_by_edge(n, t)
    nodes = 0
    best = -1
    witness_forms: dict[bytes, int] = {}  # first mask of each class, in order
    pending: list[int] = []  # masks at best not yet canonicalized
    triples = all_triples(n)
    cap = search_module.WITNESS_CAP

    def to_graph(mask: int) -> Hypergraph3:
        return Hypergraph3(n, [triples[i] for i in range(total) if mask >> i & 1])

    def canonicalize_pending() -> None:
        for mask in pending:
            witness_forms.setdefault(canonical_form(to_graph(mask)), mask)
        pending.clear()

    def record(mask: int, m: int) -> None:
        nonlocal best
        if m > best:
            best = m
            witness_forms.clear()
            pending.clear()
        pending.append(mask)
        if len(witness_forms) + len(pending) >= cap:
            canonicalize_pending()

    def rec(idx: int, mask: int, m: int) -> None:
        nonlocal nodes
        nodes += 1
        if m + (total - idx) < best or (m + (total - idx) == best and len(witness_forms) >= cap):
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
    canonicalize_pending()
    witnesses = [to_graph(mask) for mask in witness_forms.values()]
    return SearchResult(n, t, best, witnesses, nodes, 0.0)


# -- trace detector reference (full pair and leaf scan) ----------------------------


def _reference_search_pair(
    h: Hypergraph3, x: int, y: int, t: int, forced: int | None = None
) -> TraceCertificate | None:
    """The library's ``_search_pair`` as it stood before the shadow index:
    every vertex is tried as a leaf, and there is no time budget."""
    wx: dict[int, frozenset[int]] = {}
    wy: dict[int, frozenset[int]] = {}
    pool = []
    for u in range(h.n):
        if u == x or u == y:
            continue
        cx = h.codegree_thirds(x, u) - {y}
        cy = h.codegree_thirds(y, u) - {x}
        if cx and cy:
            wx[u] = cx
            wy[u] = cy
            pool.append(u)
    if len(pool) < t or (forced is not None and forced not in wx):
        return None
    pool.sort(key=lambda u: (-min(len(wx[u]), len(wy[u])), u))
    if forced is not None:
        pool.remove(forced)
    chosen: list[int] = [forced] if forced is not None else []

    def feasible(d_set: set[int]) -> bool:
        return all(wx[u] - d_set and wy[u] - d_set for u in chosen)

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == t:
            return tuple(sorted(chosen))
        if t - len(chosen) > len(pool) - start:
            return None
        for i in range(start, len(pool)):
            u = pool[i]
            chosen.append(u)
            if feasible(set(chosen)):
                hit = extend(i + 1)
                if hit is not None:
                    return hit
            chosen.pop()
        return None

    d = extend(0)
    if d is None:
        return None
    d_set = set(d)
    assignment = {}
    for u in d:
        assignment[("x", u)] = tuple(sorted((x, u, min(wx[u] - d_set))))
        assignment[("y", u)] = tuple(sorted((y, u, min(wy[u] - d_set))))
    return TraceCertificate(x, y, d, assignment)


def leaf_candidates(h: Hypergraph3, a: int, b: int) -> list[tuple]:
    """The leaf candidates of the pair {a, b}, unordered: each common shadow
    neighbour u that keeps a third of {a, u} other than b and a third of
    {b, u} other than a, as (minus the smaller count of such thirds, u,
    thirds of {a, u}, thirds of {b, u})."""
    cands = []
    for u in h.shadow_neighbors(a) & h.shadow_neighbors(b):
        sa = h.codegree_thirds(a, u)
        sb = h.codegree_thirds(b, u)
        na = len(sa) - (b in sa)
        nb = len(sb) - (a in sb)
        if na and nb:
            cands.append((-min(na, nb), u, sa, sb))
    return cands


def reference_contains_trace(h: Hypergraph3, t: int) -> TraceCertificate | None:
    """``contains_trace`` before the shadow index: every pair, ascending."""
    if h.n < t + 2:
        return None
    for x in range(h.n):
        for y in range(x + 1, h.n):
            cert = _reference_search_pair(h, x, y, t)
            if cert is not None:
                return cert
    return None


def reference_incremental_trace_check(
    h: Hypergraph3, new_edge: Triple, t: int
) -> TraceCertificate | None:
    """``incremental_trace_check`` before the shadow index: every q outside
    the new edge is tried as the second pair vertex."""
    e = tuple(sorted(new_edge))
    h.add_edge(e)
    try:
        if h.n < t + 2:
            return None
        seen_pairs = set()
        for p in e:
            for q in range(h.n):
                if q in e:
                    continue
                x, y = (p, q) if p < q else (q, p)
                if (x, y) in seen_pairs:
                    continue
                seen_pairs.add((x, y))
                for u in e:
                    if u == p:
                        continue
                    cert = _reference_search_pair(h, x, y, t, forced=u)
                    if cert is not None:
                        return cert
        return None
    finally:
        h.remove_edge(e)


def incremental_certificate(h: Hypergraph3, new_edge: Triple, t: int) -> TraceCertificate | None:
    """The certificate of ``incremental_trace_check``'s answer, or None: the
    ``least_third_certificate`` of its pair and leaves, built while new_edge
    is in h; h is restored."""
    found = incremental_trace_check(h, new_edge, t)
    if found is None:
        return None
    e = tuple(sorted(new_edge))
    h.add_edge(e)
    try:
        return least_third_certificate(h, *found)
    finally:
        h.remove_edge(e)


# -- shell reference (sorted copy of the edges, re-validated) ------------------


def reference_neighborhoods(
    h: Hypergraph3, v: int, restrict: Iterable[Triple] | None = None
) -> tuple[set[int], set[int]]:
    """The library's ``neighborhoods`` as it stood with its ``restrict``
    parameter: every call copies and sorts the edges."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range")
    if restrict is None:
        edges = list(h.edges)
    else:
        edges = [_as_triple(e) for e in restrict]
        for e in edges:
            if e not in h._edges:
                raise ValueError(f"restricted edge {e} not in hypergraph")
    n1: set[int] = set()
    for e in edges:
        if v in e:
            n1.update(e)
    n1.discard(v)
    n2: set[int] = set()
    for e in edges:
        if any(u in n1 for u in e):
            n2.update(e)
    n2 -= n1
    n2.discard(v)
    return n1, n2


def reference_eu_vu(
    h: Hypergraph3, v: int, u: int, restrict: Iterable[Triple] | None = None
) -> tuple[set[Triple], set[int]]:
    """The library's ``eu_vu`` as it stood with its ``restrict`` parameter:
    the edges go through ``reference_neighborhoods`` as a restriction."""
    edges = list(h.edges) if restrict is None else [_as_triple(e) for e in restrict]
    n1, n2 = reference_neighborhoods(h, v, edges)
    if u not in n1:
        raise ValueError(f"{u} is not a distance-1 neighbor of {v}")
    eu = {e for e in edges if sum(1 for w in e if w in n1) == 1 and u in e}
    vu = {w for e in eu for w in e if w in n2}
    return eu, vu


# -- edge partition and link graph properties ----------------------------------


def validate_partition(p: EdgePartition, h: Hypergraph3) -> None:
    """A, B and C split the edges of h, each edge filed by its least co-degree:
    1 in A, at most delta in B, above delta in C."""
    assert p.A | p.B | p.C == set(h.edges)
    assert not (p.A & p.B) and not (p.A & p.C) and not (p.B & p.C)
    for e in h.edges:
        least = min(h.codegree(x, y) for x, y in itertools.combinations(e, 2))
        if least == 1:
            assert e in p.A
        elif least <= p.delta:
            assert e in p.B
        else:
            assert e in p.C


def is_dominated(g: Graph, d: Iterable[int]) -> bool:
    """Every member of D has a loop or a neighbour outside D."""
    d_set = frozenset(d)
    if not all(v in g.vertices for v in d_set):
        raise ValueError("D must be a subset of the vertex set")
    return all(
        g.loops_at(v) >= 1 or any(u not in d_set for u in g.neighbors(v)) for v in d_set
    )


@dataclass
class DegreeInequalityReport:
    """Outcome of checking d_L(u) >= d_H(x, u) - 1 over a link graph."""

    passed: bool
    failures: list[tuple[int, int, int]] = field(default_factory=list)  # (u, d_L, d_H)


def verify_degree_inequality(h: Hypergraph3, x: int, s: Iterable[int], y: int) -> DegreeInequalityReport:
    """Check that every u in S has link-graph degree >= codegree(x, u) - 1.

    A failure here signals a bug in link_graph, never interesting input.
    """
    s_set = frozenset(s)
    g = link_graph(h, x, s_set, y)
    failures = []
    for u in sorted(s_set):
        d_l = g.degree(u)
        d_h = h.codegree(x, u)
        if d_l < d_h - 1:
            failures.append((u, d_l, d_h))
    return DegreeInequalityReport(not failures, failures)


# The edge-line reader as it was before it read each line by one pattern
# match: token by token, with str.split.  Frozen as the reference that
# ``loads_hypergraph`` must match, result for result and error for error.

T = TypeVar("T")

_INT_TOKEN = re.compile(r"-?[0-9]+")


def _all_ints(parts: list[str]) -> bool:
    # int() alone would also take 1_0, +2 and non-ASCII digits, which no writer emits
    return all(_INT_TOKEN.fullmatch(p) for p in parts)


def int_tokens(parts: list[str], line: str, lineno: int) -> tuple[int, ...]:
    """The integers (ASCII ``-?[0-9]+``) of one text line; FormatError names
    the line otherwise."""
    if not _all_ints(parts):
        raise FormatError(f"non-integer vertex in {line!r}", lineno)
    return tuple(int(p) for p in parts)


def reference_loads_edge_lines(
    text: str, arity: int, new: Callable[[int], T], add: Callable[[T, tuple[int, ...]], object]
) -> T:
    """Read the ``n m`` format with `arity` vertices per edge line into new(n).

    Blank lines are skipped.  Every defect -- a missing, non-integer or
    negative header, a wrong token count, an edge that add() refuses, or an
    edge count other than m -- raises FormatError.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}", 1)
    if not _all_ints(head):
        raise FormatError(f"non-integer header {lines[0]!r}", 1)
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise FormatError(f"negative count in header {lines[0]!r}", 1)
    obj = new(n)
    seen = 0
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != arity:
            raise FormatError(f"edge line must have {arity} vertices, got {line!r}", i)
        edge = int_tokens(parts, line, i)
        try:
            add(obj, edge)
        except ValueError as exc:
            raise FormatError(str(exc), i) from None
        seen += 1
    if seen != m:
        raise FormatError(f"header promised {m} edges, found {seen}")
    return obj


def _add_new_edge(g: Graph, edge: tuple[int, ...]) -> None:
    u, v = edge
    if v in g.neighbors(u):
        raise ValueError(f"duplicate edge {edge}")
    g.add_edge(u, v)


def loads_graph(text: str) -> Graph:
    """Read the graph text format that ``dumps_graph`` writes."""
    return reference_loads_edge_lines(text, 2, lambda n: Graph(range(n)), _add_new_edge)


def four_subset_has_c4(g: Graph) -> bool:
    """4-cycle detection by enumerating vertex 4-subsets and pairings."""
    for quad in itertools.combinations(sorted(g.vertices), 4):
        a, b, c, d = quad
        for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, b, d, c)):
            if (
                q in g.neighbors(p)
                and r in g.neighbors(q)
                and s in g.neighbors(r)
                and p in g.neighbors(s)
            ):
                return True
    return False


def brute_force_ex_c4(n: int) -> int:
    """ex(n, C4), the most edges of a 4-cycle-free graph on n vertices, by
    branch and bound over the pairs in order (practical to n = 8).  An edge
    uv closes a 4-cycle exactly when a neighbour of u and v have a common
    neighbour."""
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n  # neighbour bitmasks
    best = 0

    def grow(i: int, m: int) -> None:
        nonlocal best
        best = max(best, m)
        if m + len(pairs) - i <= best:
            return
        u, v = pairs[i]
        if not any(adj[w] & adj[v] for w in range(n) if adj[u] >> w & 1):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            grow(i + 1, m + 1)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        grow(i + 1, m)

    grow(0, 0)
    return best


def epsilon_interval(delta: float) -> Interval:
    """(1 + ln(delta+1))/(delta+1) over outward-rounded intervals."""
    d1 = Interval.point(delta) + Interval.point(1.0)
    return (d1.log() + Interval.point(1.0)) / d1


def max_dominated_subset(g: Graph) -> int:
    """Largest dominated set size by scanning all subsets (|V| <= ~16)."""
    verts = sorted(g.vertices)
    best = 0
    for mask in range(1 << len(verts)):
        d = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if len(d) > best and is_dominated(g, d):
            best = len(d)
    return best


def parse_dimacs(path: str) -> tuple[int, list[list[int]]]:
    clauses = []
    num_vars = 0
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                num_vars = int(line.split()[2])
                continue
            lits = [int(x) for x in line.split()]
            assert lits[-1] == 0
            clauses.append(lits[:-1])
    return num_vars, clauses


def dpll_satisfiable(num_vars: int, clauses: list[list[int]]) -> bool:
    """Plain DPLL with unit propagation; adequate for tens of variables."""

    def propagate(assign: dict[int, bool]) -> dict[int, bool] | None:
        assign = dict(assign)
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = []
                satisfied = False
                for lit in cl:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned.append(lit)
                    elif (lit > 0) == val:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return assign

    def solve(assign: dict[int, bool]) -> bool:
        assign = propagate(assign)
        if assign is None:
            return False
        for v in range(1, num_vars + 1):
            if v not in assign:
                return solve({**assign, v: True}) or solve({**assign, v: False})
        return True

    return solve({})
