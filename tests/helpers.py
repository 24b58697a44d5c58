"""Independent reference implementations used only as test oracles.

Nothing here shares code with the library paths it checks: canonical forms
are minimized over all n! permutations or by a frozen copy of the earlier
branch-and-bound minimizer, 4-cycles are found by scanning 4-subsets,
dominated sets by scanning all subsets, and the DIMACS formulas are decided
by a tiny DPLL with unit propagation.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from trace_turan import Graph, Hypergraph3, LoopGraph
from trace_turan.indexing import Triple, edge_indices


def random_hypergraph(n: int, p: float, rng: random.Random) -> Hypergraph3:
    h = Hypergraph3(n)
    for e in itertools.combinations(range(n), 3):
        if rng.random() < p:
            h.add_edge(e)
    return h


def random_loop_graph(
    n: int, p: float, rng: random.Random, min_degree: int = 1
) -> LoopGraph:
    """Random simple graph with loops added until min_degree is reached."""
    g = LoopGraph(range(n))
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


def four_subset_has_c4(g: Graph) -> bool:
    """4-cycle detection by enumerating vertex 4-subsets and pairings."""
    for quad in itertools.combinations(range(g.n), 4):
        a, b, c, d = quad
        for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, b, d, c)):
            if (
                g.has_edge(p, q)
                and g.has_edge(q, r)
                and g.has_edge(r, s)
                and g.has_edge(s, p)
            ):
                return True
    return False


def max_dominated_subset(g: LoopGraph) -> int:
    """Largest dominated set size by scanning all subsets (|V| <= ~16)."""
    verts = sorted(g.vertices)
    best = 0
    for mask in range(1 << len(verts)):
        d = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if len(d) <= best:
            continue
        d_set = set(d)
        if all(
            g.loops_at(v) >= 1 or any(u not in d_set for u in g.neighbors(v))
            for v in d
        ):
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
