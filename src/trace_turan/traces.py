"""Deciding and certifying K_{2,t} traces in 3-uniform hypergraphs.

A K_{2,t} trace on vertices {x, y} union D assigns to each pattern edge
{x, u} (and {y, u}) a hyperedge whose intersection with {x, y} union D is
exactly that pair.  Distinct pattern edges force distinct hyperedges on
their own (two hyperedges with different exact intersections can never
coincide), so the exact detector needs no matching step; the Berge variant,
where hyperedges only need to *contain* their pair, does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterator

from .hypergraph import FormatError, Hypergraph3, int_tokens
from .indexing import Triple

PatternEdge = tuple[str, int]  # ("x" | "y", leaf vertex)


class SearchTimeout(Exception):
    """Raised when a detector exceeds its time budget; distinct from absent."""


def _t_of(t: int) -> int:
    """The t of the pattern K_{2,t} (t = 2 is the 4-cycle), checked."""
    t = int(t)
    if t < 2:
        raise ValueError(f"pattern requires t >= 2, got {t}")
    return t


@dataclass
class TraceCertificate:
    """Explicit witness: vertices x, y, leaf set D, and the edge assignment."""

    x: int
    y: int
    D: tuple[int, ...]
    assignment: dict[PatternEdge, Triple]

    def pattern_edges(self) -> list[PatternEdge]:
        return [(side, u) for side in ("x", "y") for u in self.D]

    def to_text(self) -> str:
        lines = [f"{self.x} {self.y} | {' '.join(map(str, self.D))} |"]
        for side, u in self.pattern_edges():
            a, b, c = self.assignment[(side, u)]
            lines.append(f"{side} {u} -> {a} {b} {c}")
        return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> TraceCertificate:
    """Read ``TraceCertificate.to_text`` output; malformed text raises FormatError."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError("missing certificate header", 1)
    i, first = lines[0]
    head, bar, tail = first.partition("|")
    pair = head.split()
    if not bar or len(pair) != 2:
        raise FormatError(f"bad certificate header {first!r}", i)
    x, y = int_tokens(pair, first, i)
    d = int_tokens(tail.replace("|", "").split(), first, i)
    assignment: dict[PatternEdge, Triple] = {}
    for i, line in lines[1:]:
        lhs, arrow, rhs = line.partition("->")
        side_u, edge = lhs.split(), rhs.split()
        if not arrow or len(side_u) != 2 or side_u[0] not in ("x", "y") or len(edge) != 3:
            raise FormatError(f"bad certificate line {line!r}", i)
        (u,) = int_tokens(side_u[1:], line, i)
        a, b, c = sorted(int_tokens(edge, line, i))
        assignment[(side_u[0], u)] = (a, b, c)
    return TraceCertificate(x, y, d, assignment)


def verify_certificate(h: Hypergraph3, cert: TraceCertificate) -> bool:
    """Check every certificate invariant against h; never raises."""
    d = tuple(cert.D)
    core = {cert.x, cert.y, *d}
    if len(core) != len(d) + 2 or len(d) < 2:
        return False
    if not all(0 <= v < h.n for v in core):
        return False
    wanted = {(side, u) for side in ("x", "y") for u in d}
    if set(cert.assignment) != wanted:
        return False
    seen: set[Triple] = set()
    for (side, u), edge in cert.assignment.items():
        if edge not in h:
            return False
        pair_vertex = cert.x if side == "x" else cert.y
        if set(edge) & core != {pair_vertex, u}:
            return False
        if edge in seen:
            return False
        seen.add(edge)
    return True


class _DetectorBudget:
    """Coarse wall-clock budget shared across one detector invocation."""

    __slots__ = ("deadline", "ticks")

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.ticks = 0

    def tick(self) -> None:
        if self.deadline is None:
            return
        self.ticks += 1
        if self.ticks & 31 == 1 and time.monotonic() > self.deadline:
            raise SearchTimeout("trace search exceeded its time budget")


def _build_certificate(
    x: int, y: int, d: tuple[int, ...], wx: dict[int, AbstractSet[int]], wy: dict[int, AbstractSet[int]]
) -> TraceCertificate:
    """Each pattern edge takes the least third outside the core; wx[u] and
    wy[u] are the thirds of {x, u} and {y, u}."""
    skip_x = {y, *d}
    skip_y = {x, *d}
    assignment: dict[PatternEdge, Triple] = {}
    for u in d:
        axw = min(wx[u] - skip_x)
        ayw = min(wy[u] - skip_y)
        assignment[("x", u)] = tuple(sorted((x, u, axw)))  # type: ignore[assignment]
        assignment[("y", u)] = tuple(sorted((y, u, ayw)))  # type: ignore[assignment]
    return TraceCertificate(x, y, d, assignment)


def _search_pair(
    h: Hypergraph3,
    x: int,
    y: int,
    t: int,
    budget: _DetectorBudget,
    forced: int | None = None,
) -> TraceCertificate | None:
    """Find a trace with pair vertices (x, y); optionally force one leaf.

    Leaf candidates come from the common shadow neighbourhood of x and y:
    every other vertex has no edge with x or no edge with y.
    """
    common = h.shadow_neighbors(x) & h.shadow_neighbors(y)
    if len(common) < t or (forced is not None and forced not in common):
        return None
    # live sets of the pair index, read without copies: wx[u] holds every
    # third of {x, u}, y included, so each reader below skips y itself
    thirds = h.pair_index()
    wx: dict[int, AbstractSet[int]] = {}
    wy: dict[int, AbstractSet[int]] = {}
    rank: dict[int, int] = {}
    for u in common:
        # u is a shadow neighbour of x and of y, so both pairs are indexed
        sx = thirds[(x, u) if x < u else (u, x)]
        sy = thirds[(y, u) if y < u else (u, y)]
        nx = len(sx) - (y in sx)
        ny = len(sy) - (x in sy)
        if nx and ny:
            wx[u] = sx
            wy[u] = sy
            rank[u] = -min(nx, ny)
    if len(rank) < t or (forced is not None and forced not in rank):
        return None
    pool = sorted(rank, key=lambda u: (rank[u], u))
    if forced is not None:
        pool.remove(forced)
    chosen: list[int] = [forced] if forced is not None else []

    def feasible() -> bool:
        # every chosen leaf keeps a third outside the leaves and the pair
        bx = {y, *chosen}
        by = {x, *chosen}
        return all(not wx[u] <= bx and not wy[u] <= by for u in chosen)

    def extend(start: int) -> tuple[int, ...] | None:
        budget.tick()
        if len(chosen) == t:
            return tuple(sorted(chosen))
        if t - len(chosen) > len(pool) - start:
            return None
        for i in range(start, len(pool)):
            u = pool[i]
            chosen.append(u)
            if feasible():
                hit = extend(i + 1)
                if hit is not None:
                    return hit
            chosen.pop()
        return None

    d = extend(0)
    if d is None:
        return None
    return _build_certificate(x, y, d, wx, wy)


def contains_trace(
    h: Hypergraph3, t: int, time_budget: float | None = None
) -> TraceCertificate | None:
    """Exact K_{2,t}-trace detection with a certificate, or None if absent.

    Deterministic: pairs (x, y) are scanned in ascending order and leaf
    candidates in descending co-degree order.  Only pairs with a common
    shadow neighbour are scanned; no other pair has a leaf.  Raises
    SearchTimeout when the optional wall-clock budget runs out, so a timeout
    is never mistaken for trace-freeness.
    """
    t = _t_of(t)
    if h.n < t + 2:
        return None
    budget = _DetectorBudget(time_budget)
    for x, y in _pairs_with_common_neighbor(h):
        cert = _search_pair(h, x, y, t, budget)
        if cert is not None:
            return cert
    return None


def _pairs_with_common_neighbor(h: Hypergraph3) -> Iterator[tuple[int, int]]:
    """The pairs x < y with a common shadow neighbour, in ascending order."""
    nbrs = h.shadow_neighbors
    for x in range(h.n):
        reach: set[int] = set()
        for u in nbrs(x):
            reach |= nbrs(u)
        for y in sorted(y for y in reach if y > x):
            yield x, y


def contains_trace_naive(h: Hypergraph3, t: int) -> TraceCertificate | None:
    """Independent oracle: exhaust (x, y, D) choices and edge assignments.

    Cost grows fast; intended for n <= 10 with t <= 3.
    """
    t = _t_of(t)
    if h.n < t + 2:
        return None
    edges = list(h.edges)
    for x in range(h.n):
        for y in range(x + 1, h.n):
            others = [u for u in range(h.n) if u != x and u != y]
            for d in itertools.combinations(others, t):
                core = {x, y, *d}
                pat = [("x", u) for u in d] + [("y", u) for u in d]
                cands = []
                for side, u in pat:
                    pv = x if side == "x" else y
                    cands.append([e for e in edges if set(e) & core == {pv, u}])
                assignment: dict[PatternEdge, Triple] = {}
                used: set[Triple] = set()

                def assign(i: int) -> bool:
                    if i == len(pat):
                        return True
                    for e in cands[i]:
                        if e in used:
                            continue
                        used.add(e)
                        assignment[pat[i]] = e
                        if assign(i + 1):
                            return True
                        used.discard(e)
                        del assignment[pat[i]]
                    return False

                if assign(0):
                    return TraceCertificate(x, y, d, dict(assignment))
    return None


def trace_from_dominated(
    h: Hypergraph3,
    x: int,
    y: int,
    s,
    dx_witness: dict[int, "Witness"],
    dy_witness: dict[int, "Witness"],
) -> TraceCertificate:
    """Assemble a trace certificate from a set dominated in both link graphs.

    For each u in D, a loop witness yields an edge {x, u, w} with w outside
    S (and w != y); a neighbor witness u' in S minus D yields {x, u, u'}.
    The y side is symmetric.  Invalid witnesses raise ValueError.
    """
    s_set = frozenset(s)
    d = tuple(sorted(dx_witness))
    if tuple(sorted(dy_witness)) != d:
        raise ValueError("witness maps must cover the same dominated set")
    if not set(d) <= s_set or x in s_set or y in s_set or x == y:
        raise ValueError("dominated set must lie in S, which must avoid x and y")
    d_set = set(d)
    assignment: dict[PatternEdge, Triple] = {}
    for side, pv, witnesses in (("x", x, dx_witness), ("y", y, dy_witness)):
        other = y if side == "x" else x
        for u in d:
            w = witnesses[u]
            if w.kind == "neighbor":
                partner = w.neighbor
                if partner is None or partner not in s_set or partner in d_set:
                    raise ValueError(f"neighbor witness for {u} must lie in S minus D")
                if tuple(sorted((pv, u, partner))) not in h:
                    raise ValueError(f"witness edge {{{pv}, {u}, {partner}}} missing from H")
            else:
                outside = sorted(
                    v
                    for v in h.codegree_thirds(pv, u)
                    if v not in s_set and v != other
                )
                if not outside:
                    raise ValueError(f"loop witness for {u} has no supporting edge at {pv}")
                partner = outside[0]
            assignment[(side, u)] = tuple(sorted((pv, u, partner)))  # type: ignore[assignment]
    cert = TraceCertificate(x, y, d, assignment)
    if not verify_certificate(h, cert):
        raise ValueError("witnesses do not assemble into a valid certificate")
    return cert


def _berge_pair(h: Hypergraph3, x: int, y: int, t: int) -> bool:
    ex: dict[int, list[Triple]] = {}
    ey: dict[int, list[Triple]] = {}
    pool = []
    for u in h.shadow_neighbors(x) & h.shadow_neighbors(y):
        lx = [tuple(sorted((x, u, w))) for w in h.codegree_thirds(x, u)]
        ly = [tuple(sorted((y, u, w))) for w in h.codegree_thirds(y, u)]
        if lx and ly:
            ex[u] = sorted(lx)  # type: ignore[assignment]
            ey[u] = sorted(ly)  # type: ignore[assignment]
            pool.append(u)
    if len(pool) < t:
        return False
    pool.sort(key=lambda u: (-min(len(ex[u]), len(ey[u])), u))

    matched: dict[PatternEdge, Triple] = {}
    owner: dict[Triple, PatternEdge] = {}

    def augment(pe: PatternEdge, cands: list[Triple], seen: set[Triple]) -> bool:
        for e in cands:
            if e in seen:
                continue
            seen.add(e)
            holder = owner.get(e)
            if holder is None or augment(
                holder, ex[holder[1]] if holder[0] == "x" else ey[holder[1]], seen
            ):
                owner[e] = pe
                matched[pe] = e
                return True
        return False

    def extend(start: int, size: int) -> bool:
        if size == t:
            return True
        if t - size > len(pool) - start:
            return False
        for i in range(start, len(pool)):
            u = pool[i]
            saved_matched = dict(matched)
            saved_owner = dict(owner)
            if augment(("x", u), ex[u], set()) and augment(("y", u), ey[u], set()):
                if extend(i + 1, size + 1):
                    return True
            matched.clear()
            matched.update(saved_matched)
            owner.clear()
            owner.update(saved_owner)
        return False

    return extend(0, 0)


def contains_berge(h: Hypergraph3, t: int) -> bool:
    """True iff h contains a Berge K_{2,t}: distinct hyperedges each
    containing its pattern pair (supersets allowed, unlike traces).

    Injectivity is enforced with an augmenting-path matching between the 2t
    pattern edges and candidate hyperedges.
    """
    t = _t_of(t)
    if h.n < t + 2 or h.edge_count < 2 * t:
        return False
    return any(_berge_pair(h, x, y, t) for x, y in _pairs_with_common_neighbor(h))
