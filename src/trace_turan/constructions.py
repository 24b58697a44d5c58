"""Lower-bound generators.

A projective-plane polarity pairs points with lines; joining each point to
the points of its polar line gives a C4-free graph on q^2 + q + 1 vertices
with q(q+1)^2 / 2 edges (absolute points lose only their self-loop).
Lifting any graph through one extra apex vertex turns it into a 3-uniform
hypergraph with the same edge count; when the graph is C4-free the lift
carries no 4-cycle trace, which the exact detector confirms instance by
instance rather than by assumption.
"""

from __future__ import annotations

import itertools
import random

from .hypergraph import CapExceeded, Graph, Hypergraph3
from .indexing import all_triples
from .traces import _t_of, incremental_trace_check

# the largest inputs the builders take: each refuses more with CapExceeded
# before it builds a point or a triple
POLARITY_CAP = 43
GREEDY_CAP = 30
GREEDY_T_CAP = 8
RESTARTS_CAP = 1000


def _loopless_order(g: Graph) -> int:
    """n for a loopless graph on vertices 0..n-1; ValueError for any other."""
    n = len(g.vertices)
    if g.loop_count or (g.vertices != range(n) and g.vertices != frozenset(range(n))):
        raise ValueError(f"needs a loopless graph on vertices 0..n-1, got {g!r}")
    return n


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def polarity_graph(q: int) -> Graph:
    """C4-free graph from the standard polarity of the plane over GF(q).

    Vertices are projective points (first nonzero coordinate scaled to 1),
    u ~ v iff their dot product vanishes mod q; self-orthogonal points keep
    their other edges.  Prime q only, up to ``POLARITY_CAP``; the cap is
    checked first, so a huge q costs no trial division.
    """
    if q > POLARITY_CAP:
        raise CapExceeded(f"polarity graph capped at q <= {POLARITY_CAP}, got q={q}")
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    points: list[tuple[int, int, int]] = [(0, 0, 1)]
    points.extend((0, 1, c) for c in range(q))
    points.extend((1, b, c) for b in range(q) for c in range(q))
    g = Graph(range(len(points)))
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            r = points[j]
            if (p[0] * r[0] + p[1] * r[1] + p[2] * r[2]) % q == 0:
                g.add_edge(i, j)
    return g


def contains_c4(g: Graph) -> bool:
    """Subgraph 4-cycle test via common neighborhoods."""
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        if len(g.neighbors(u) & g.neighbors(v)) >= 2:
            return True
    return False


def lift_to_trace_free(g: Graph) -> Hypergraph3:
    """One-extra-vertex lift: hyperedge {u, v, apex} per graph edge uv.

    Preserves the edge count; a C4-free input yields a hypergraph free of
    4-cycle traces (any trace set either misses the apex, forcing a C4 in
    the graph, or contains it, which no exact pattern intersection allows).
    Needs a loopless graph on vertices 0..n-1; the apex is n.
    """
    apex = _loopless_order(g)
    h = Hypergraph3(apex + 1)
    for u, v in g.edges:
        h.add_edge((u, v, apex))
    return h


def greedy_lower_bound(n: int, t: int, seed: int = 0, restarts: int = 32) -> Hypergraph3:
    """Best maximal trace-free hypergraph over seeded random greedy runs.

    Each run inserts the triples in a random order, keeping an edge exactly
    when the incremental detector finds no trace through it.  t, also
    against ``GREEDY_T_CAP``, then n against ``GREEDY_CAP`` and restarts
    against ``RESTARTS_CAP``, are checked before any triple is built, so a
    bad t is refused even when n < 3.  The leaf search tries more leaf sets
    as t grows, so t is capped as well as n.
    """
    t = _t_of(t)
    if t > GREEDY_T_CAP:
        raise CapExceeded(f"greedy capped at t <= {GREEDY_T_CAP}, got t={t}")
    if n > GREEDY_CAP:
        raise CapExceeded(f"greedy capped at n <= {GREEDY_CAP}, got n={n}")
    if restarts > RESTARTS_CAP:
        raise CapExceeded(f"greedy capped at restarts <= {RESTARTS_CAP}, got restarts={restarts}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    best: Hypergraph3 | None = None
    for r in range(restarts):
        rng = random.Random(seed * 1000003 + r)
        order = list(all_triples(n))
        rng.shuffle(order)
        h = Hypergraph3(n)
        for e in order:
            if incremental_trace_check(h, e, t) is None:
                h.add_edge(e)
        if best is None or h.edge_count > best.edge_count:
            best = h
    assert best is not None
    return best


# -- graph text format (same shape as the hypergraph one) -------------------


def dumps_graph(g: Graph) -> str:
    """The ``n m`` text of a loopless graph on vertices 0..n-1."""
    edges = g.edges
    lines = [f"{_loopless_order(g)} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
