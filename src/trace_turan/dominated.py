"""Dominated sets in graphs with loops.

A set D is dominated when every member has a loop or a neighbor outside D.
Three constructions live here:

* a greedy spanning decomposition into stars and looped singletons, as
  a map from each component's center to its leaves,
* a set dominated in two graphs at once of size >= |S|/3 (min degree 1):
  the vertices that are a center in neither decomposition when there are
  enough of them, else the largest class of a 3-colouring of the union of
  the two star forests,
* a sampled set of size >= (1 - eps_delta) n (min degree delta), with a
  deterministic conditional-expectation fallback so the size contract holds
  on every call.  Each call seeds its own generator with 0, so the answer
  depends on the graph alone.

Every operation returns the set itself.  Subsets of dominated sets are
dominated, which the lemma-check pipeline uses to trim results to an exact
target size.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable

from .bounds import epsilon
from .hypergraph import Graph


# random rounds before dominated_min_degree switches to the derandomized one
_MAX_RETRIES = 100


def star_loop_decomposition(g: Graph) -> dict[int, frozenset[int]]:
    """Greedy spanning decomposition for graphs of minimum degree >= 1.

    The result maps each component's center to its leaves: a star of >= 2
    vertices, or a looped singleton with no leaves.  Vertices are claimed in
    ascending order.  A looped vertex becomes its own component; otherwise
    the vertex opens a star over its uncovered neighbors.  When all
    neighbors are already covered the structure is repaired: absorb a
    looped singleton, steal a leaf from a star that can spare one, merge
    with a single-edge star into a 2-leaf star, or join as a new leaf when
    the contact vertex is itself a center.  A component formed anew enters
    the map last.
    """
    verts = sorted(g.vertices)
    if any(g.degree(v) == 0 for v in verts):
        raise ValueError("star decomposition needs minimum degree >= 1")
    leaves: dict[int, frozenset[int]] = {}
    center_of: dict[int, int] = {}
    for v in verts:
        if v in center_of:
            continue
        center_of[v] = v
        if g.loops_at(v) >= 1:
            leaves[v] = frozenset()
            continue
        fresh = frozenset(u for u in g.neighbors(v) if u not in center_of)
        if fresh:
            leaves[v] = fresh
            center_of.update(dict.fromkeys(fresh, v))
            continue
        u = min(g.neighbors(v))
        c = center_of[u]
        if not leaves[c]:  # looped singleton u: absorb into a 2-star
            del leaves[u]
            leaves[v] = frozenset({u})
            center_of[u] = v
        elif c == u:  # u already a center: join as a leaf
            leaves[u] |= {v}
            center_of[v] = u
        elif len(leaves[c]) >= 2:  # steal the leaf u
            leaves[c] -= {u}
            leaves[v] = frozenset({u})
            center_of[u] = v
        else:  # single edge (c, u): remerge around u
            del leaves[c]
            leaves[u] = frozenset({v, c})
            center_of[v] = center_of[c] = center_of[u] = u
    return leaves


def _center_set(stars: dict[int, frozenset[int]]) -> set[int]:
    """Star centers; for 2-vertex stars the lower id plays the center."""
    return {min(c, *ls) if len(ls) == 1 else c for c, ls in stars.items() if ls}


def _star_union_colouring(
    verts: list[int], decomps: Iterable[dict[int, frozenset[int]]]
) -> dict[int, int]:
    """Greedy colouring with 0/1/2 of the union H of the star edges.

    Peels a vertex of least remaining degree (ties to the lowest id), then
    colours in reverse peeling order with the least colour its coloured
    neighbors leave free.  dominated_pair_min1 shows why 3 colours suffice.
    """
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for stars in decomps:
        for c, ls in stars.items():
            for leaf in ls:
                adj[c].add(leaf)
                adj[leaf].add(c)
    remaining = {v: len(adj[v]) for v in verts}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (remaining[u], u))
        del remaining[v]
        order.append(v)
        for u in adj[v]:
            if u in remaining:
                remaining[u] -= 1
    colour: dict[int, int] = {}
    for v in reversed(order):
        used = {colour[u] for u in adj[v] if u in colour}
        colour[v] = min(c for c in range(3) if c not in used)
    return colour


def dominated_pair_min1(gx: Graph, gy: Graph) -> frozenset[int]:
    """A set dominated in both graphs of size >= ceil(|S|/3).

    |S| = 3 is special: a non-adjacent pair when the simple-edge union is
    not a triangle, a singleton when it is.  Otherwise the first try is the
    set of survivors after removing the star centers of both decompositions
    (2-vertex star centers default to the lower id).  When that undershoots
    the bound, the answer is the largest class of a 3-colouring of the
    union H of the star edges of both decompositions (the lowest colour
    wins ties).

    Why that works.  Every edge of a star forest, or of a subgraph of one,
    has an end of degree 1 in it, and distinct edges have distinct such
    ends.  In a subgraph of H with minimum degree >= 3 no vertex has degree
    1 in both forests (it would have degree <= 2), so charging each edge to
    such an end charges each vertex at most once: the subgraph would have
    no more edges than vertices, against its minimum degree.  So every
    subgraph of H has a vertex of degree <= 2, and greedy colouring in
    reverse peeling order needs 3 colours (Szekeres-Wilf 1968).  A colour
    class misses each member's star partners in both decompositions (its
    center, or all of its leaves), which are neighbors in that graph;
    looped singletons have their loop.  The largest class is
    dominated in both graphs and has >= ceil(|S|/3) members.
    """
    verts = sorted(gx.vertices)
    if verts != sorted(gy.vertices):
        raise ValueError("graphs must share a vertex set")
    if not verts:
        return frozenset()
    if gx.min_degree() < 1 or gy.min_degree() < 1:
        raise ValueError("both graphs need minimum degree >= 1")
    if len(verts) == 3:
        union = {*gx.edges, *gy.edges}
        for u, v in itertools.combinations(verts, 2):
            if (u, v) not in union:
                return frozenset({u, v})
        return frozenset({min(verts)})

    dx = star_loop_decomposition(gx)
    dy = star_loop_decomposition(gy)
    d = set(verts) - (_center_set(dx) | _center_set(dy))
    if len(d) < -(-len(verts) // 3):
        colour = _star_union_colouring(verts, (dx, dy))
        d = max(({v for v in verts if colour[v] == c} for c in range(3)), key=len)
    return frozenset(d)


def _dominated_part(g: Graph, sampled: set[int]) -> set[int]:
    """The sampled vertices with a loop or an unsampled neighbour."""
    return {
        v
        for v in sampled
        if g.loops_at(v) >= 1 or any(u not in sampled for u in g.neighbors(v))
    }


def _sample_round(g: Graph, p: float, rng: random.Random) -> set[int]:
    return _dominated_part(g, {v for v in sorted(g.vertices) if rng.random() < p})


def _derandomized_round(g: Graph, p_float: float) -> set[int]:
    """Conditional-expectation greedy on E[|D|]; exact Fraction arithmetic.

    The estimator sums, per vertex, the probability of ending up sampled
    with a loop or an unsampled neighbor, given the decisions so far.  It
    never decreases when the better branch is taken, so the final integer
    count is at least the initial expectation.
    """
    p = Fraction(p_float)
    verts = sorted(g.vertices)
    state: dict[int, bool | None] = {v: None for v in verts}

    def q(v: int) -> Fraction:
        s = state[v]
        if s is False:
            return Fraction(0)
        saved = (
            g.loops_at(v) >= 1
            or any(state[u] is False for u in g.neighbors(v))
        )
        undecided = sum(1 for u in g.neighbors(v) if state[u] is None)
        if s is True:
            return Fraction(1) if saved else 1 - p**undecided
        return p if saved else p * (1 - p**undecided)

    def local(v: int) -> Fraction:
        return q(v) + sum(q(u) for u in sorted(g.neighbors(v)))

    for v in verts:
        state[v] = True
        f_in = local(v)
        state[v] = False
        f_out = local(v)
        state[v] = f_in >= f_out
    return _dominated_part(g, {v for v in verts if state[v]})


def dominated_min_degree(g: Graph, delta: float) -> frozenset[int]:
    """A dominated set of size >= ceil((1 - eps_delta) n), min degree delta.

    Samples vertices with the standard inclusion probability and drops the
    loopless ones whose whole neighborhood got sampled; retries a bounded
    number of times, then switches to the deterministic greedy so the bound
    is met on every call.  The generator is seeded with 0 on every call.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    verts = sorted(g.vertices)
    if not verts:
        return frozenset()
    if g.min_degree() < delta:
        raise ValueError(f"minimum degree {g.min_degree()} below delta {delta}")
    n = len(verts)
    target = math.ceil((1.0 - epsilon(delta)) * n)
    p = 1.0 - math.log(delta + 1.0) / (delta + 1.0)
    rng = random.Random(0)
    d: set[int] | None = None
    for _ in range(_MAX_RETRIES):
        attempt = _sample_round(g, p, rng)
        if len(attempt) >= target:
            d = attempt
            break
    if d is None:
        d = _derandomized_round(g, p)
    assert len(d) >= target, "derandomized round must meet the size bound"
    return frozenset(d)


def simultaneous_dominated_min_degree(gx: Graph, gy: Graph, delta: float) -> frozenset[int]:
    """Intersection of per-graph dominated sets: size >= ceil((1-2eps)|S|).

    Requires delta >= 14, which keeps eps <= 1/4 and the guarantee positive.
    """
    if sorted(gx.vertices) != sorted(gy.vertices):
        raise ValueError("graphs must share a vertex set")
    if delta < 14:
        raise ValueError(f"simultaneous domination needs delta >= 14, got {delta}")
    if not gx.vertices:
        return frozenset()
    d = dominated_min_degree(gx, delta) & dominated_min_degree(gy, delta)
    target = math.ceil((1.0 - 2.0 * epsilon(delta)) * len(gx.vertices))
    assert len(d) >= target, "intersection bound must hold by inclusion-exclusion"
    return d
