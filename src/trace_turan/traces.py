"""Deciding and certifying K_{2,t} traces in 3-uniform hypergraphs.

A K_{2,t} trace on vertices {x, y} union D assigns to each pattern edge
{x, u} (and {y, u}) a hyperedge whose intersection with {x, y} union D is
exactly that pair.  Distinct pattern edges force distinct hyperedges on
their own (two hyperedges with different exact intersections can never
coincide), so the exact detector needs no matching step.  Each hyperedge
of a trace has a vertex outside its core of t + 2, so it needs n >= t + 3.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .hypergraph import FormatError, Hypergraph3, int_tokens
from .indexing import Triple

PatternEdge = tuple[str, int]  # ("x" | "y", leaf vertex)


class SearchTimeout(Exception):
    """Raised when a detector exceeds its time budget; distinct from absent."""


def _trace_fits(n: int, t: int) -> bool:
    """n >= t + 3: each pattern edge needs a third outside the core of t + 2."""
    return n >= t + 3


def _t_of(t: int) -> int:
    """The t of the pattern K_{2,t} (t = 2 is the 4-cycle), checked: an int
    of at least 2; 2.9 or "3" is refused, not read as 2 or 3."""
    if not isinstance(t, int):
        raise ValueError(f"pattern t must be an integer, got {t!r}")
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
    """Read ``TraceCertificate.to_text`` output; malformed text raises FormatError.

    The header is exactly ``x y | leaves |``: two vertices, a bar, the
    leaves, a closing bar and nothing but whitespace after it.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError("missing certificate header", 1)
    i, first = lines[0]
    head, *fields = first.split("|")
    pair = head.split()
    if len(fields) != 2 or fields[1].strip() or len(pair) != 2:
        raise FormatError(f"bad certificate header {first!r}", i)
    x, y = int_tokens(pair, first, i)
    d = int_tokens(fields[0].split(), first, i)
    assignment: dict[PatternEdge, Triple] = {}
    for i, line in lines[1:]:
        lhs, arrow, rhs = line.partition("->")
        side_u, edge = lhs.split(), rhs.split()
        if not arrow or len(side_u) != 2 or side_u[0] not in ("x", "y") or len(edge) != 3:
            raise FormatError(f"bad certificate line {line!r}", i)
        (u,) = int_tokens(side_u[1:], line, i)
        a, b, c = sorted(int_tokens(edge, line, i))
        if (side_u[0], u) in assignment:
            raise FormatError(f"repeated pattern edge in {line!r}", i)
        assignment[(side_u[0], u)] = (a, b, c)
    return TraceCertificate(x, y, d, assignment)


def verify_certificate(h: Hypergraph3, cert: TraceCertificate) -> bool:
    """Check every certificate invariant against h; never raises.

    Distinct pattern edges have distinct exact intersections with the core,
    so once each edge passes its intersection test no two share an edge.
    """
    d = tuple(cert.D)
    if not all(isinstance(v, int) and 0 <= v < h.n for v in (cert.x, cert.y, *d)):
        return False
    core = {cert.x, cert.y, *d}
    if len(core) != len(d) + 2 or len(d) < 2:
        return False
    wanted = {(side, u) for side in ("x", "y") for u in d}
    if set(cert.assignment) != wanted:
        return False
    for (side, u), edge in cert.assignment.items():
        if edge not in h:
            return False
        pair_vertex = cert.x if side == "x" else cert.y
        if set(edge) & core != {pair_vertex, u}:
            return False
    return True


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise SearchTimeout("trace search exceeded its time budget")


# a leaf candidate u of the pair {a, b}: (minus its co-degree, u, thirds of
# {a, u}, thirds of {b, u}).  u is a common shadow neighbour of a and b that
# keeps a third of {a, u} other than b and a third of {b, u} other than a;
# its co-degree is the smaller count of such thirds.  The third sets are
# live sets of the link index, or copies where the pair gains a third.
_Candidate = tuple[int, int, AbstractSet[int], AbstractSet[int]]


def _choose_leaves(
    a: int,
    b: int,
    t: int,
    cands: list[_Candidate],
    deadline: float | None,
    forced: _Candidate | None = None,
) -> list[int] | None:
    """The leaves of a trace on the pair {a, b}: t of the candidates, of
    which there are at least t, in candidate order, or None.  Both kernels
    make every leaf decision here.

    A leaf set fits when each leaf keeps a third outside the core {a, b}
    union leaves on both sides; one core serves both, since a third of
    {a, u} is never a, nor one of {b, u} ever b.  forced, if given, is one
    of the candidates and must be a leaf.  With exactly t candidates one fit
    test decides the forced set, and cands is sorted in place only when it
    fits: on a trace-free input no such pool does.  A larger pool is sorted
    in place and searched depth-first for its first fitting set, which is
    the answer, as fitting only fails more as leaves are added.  The search
    grows the core in place: a candidate v joins it before its test and
    leaves it on backtrack.  The chosen leaves fit, as does any single
    candidate, so only v and the chosen leaves with v among their thirds
    are tested.  The deadline, if any, is checked once for a forced set and
    once per search step.
    """
    if len(cands) == t:
        _check_deadline(deadline)
        core = {a, b}
        for c in cands:
            core.add(c[1])
        for _, _, sa, sb in cands:
            if sa <= core or sb <= core:
                return None
        cands.sort()  # u is unique, so no third set is ever compared
        return [c[1] for c in cands]
    cands.sort()
    if forced is None:
        pool, chosen, core = cands, [], {a, b}
    else:
        pool = cands.copy()
        pool.remove(forced)  # u is unique, so only forced itself compares equal
        chosen, core = [forced], {a, b, forced[1]}
    picked: list[int] = []  # the pool index of each leaf taken from the pool
    need = t - len(chosen)
    size = len(pool)
    i = 0
    while need:
        if i > size - need:  # too few candidates left: backtrack
            if not picked:
                return None
            i = picked.pop() + 1
            core.discard(chosen.pop()[1])
            need += 1
            continue
        _check_deadline(deadline)
        c = pool[i]
        _, v, sa, sb = c
        core.add(v)
        fits = not (sa <= core or sb <= core)
        if fits:
            for _, _, da, db in chosen:
                if (v in da and da <= core) or (v in db and db <= core):
                    fits = False
                    break
        if fits:
            chosen.append(c)
            picked.append(i)
            need -= 1
        else:
            core.discard(v)
        i += 1
    return [c[1] for c in chosen]


def least_third_certificate(
    h: Hypergraph3, x: int, y: int, D: Iterable[int]
) -> TraceCertificate | None:
    """The trace on the pair {x, y} with leaves D where each pattern edge
    takes the least third outside the core {x, y} union D, or None when some
    pattern edge has no such third.

    The pair is oriented x < y and the leaves ascend, so (x, y) and (y, x)
    give the same certificate.  For x != y and two or more distinct leaves
    outside {x, y}, any certificate it returns passes ``verify_certificate``.
    """
    x, y = min(x, y), max(x, y)
    d = tuple(sorted(D))
    core = {x, y, *d}
    link = h.link_index()
    assignment: dict[PatternEdge, Triple] = {}
    for side, p in (("x", x), ("y", y)):
        row = link.get(p, {})
        for u in d:
            outside = row.get(u, frozenset()) - core
            if not outside:
                return None
            assignment[(side, u)] = tuple(sorted((p, u, min(outside))))  # type: ignore[assignment]
    return TraceCertificate(x, y, d, assignment)


def contains_trace(
    h: Hypergraph3, t: int, time_budget: float | None = None
) -> TraceCertificate | None:
    """Exact K_{2,t}-trace detection with a certificate, or None if absent.

    Deterministic: pairs (x, y) are scanned in ascending order and leaf
    candidates in descending co-degree order.  The scan is one neighbour
    sweep per row, a support vertex x with its partners y > x: each path
    x - u - y is walked once and gives the pair {x, y} the candidate u, so
    no pair without a common shadow neighbour is touched.  Each vertex u a
    row walks through gets its link sorted once per call, on first use: its
    shadow neighbours ascending, each with the thirds of its pair, so a row
    walks from u only to the partners past x.  The partners with at least t
    candidates are then visited ascending, each pool decided unsorted by
    ``_choose_leaves``, and the first leaves found give
    ``least_third_certificate``.

    The optional wall-clock budget is checked once per support row and once
    per leaf decision: a forced leaf set or a leaf-search step.  So a zero
    budget times out as soon as the first row is scanned.
    Running out raises SearchTimeout, so a timeout is never mistaken for
    trace-freeness; a budget that is not a finite number >= 0 raises
    ValueError.
    """
    t = _t_of(t)
    if time_budget is not None and not (math.isfinite(time_budget) and time_budget >= 0):
        raise ValueError(f"time budget must be a finite number >= 0, got {time_budget}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    if not _trace_fits(h.n, t):
        return None
    link = h.link_index()
    # u -> u's shadow neighbours y ascending, and each with the thirds of
    # {u, y}, built the first time a row walks through u
    rows: dict[int, tuple[list[int], list[tuple[int, AbstractSet[int]]]]] = {}
    for x in h.support():
        cands_of: dict[int, list[_Candidate]] = {}  # partner y -> candidates
        for u, sa in link[x].items():
            r = rows.get(u)
            if r is None:
                row = sorted(link[u].items())  # y is unique, so no set is compared
                r = rows[u] = ([y for y, _ in row], row)
            ys, row = r
            k = bisect_right(ys, x)
            if k == len(ys):
                continue
            la = len(sa)
            for y, sb in row[k:]:
                na = la - (y in sa)
                nb = len(sb) - (x in sb)
                if na and nb:
                    c = (-na if na < nb else -nb, u, sa, sb)
                    if y in cands_of:
                        cands_of[y].append(c)
                    else:
                        cands_of[y] = [c]
        _check_deadline(deadline)
        for y in sorted(y for y, cands in cands_of.items() if len(cands) >= t):
            leaves = _choose_leaves(x, y, t, cands_of[y], deadline)
            if leaves is not None:
                return least_third_certificate(h, x, y, leaves)
    return None


def incremental_trace_check(
    h: Hypergraph3, new_edge: Triple, t: int
) -> tuple[int, int, list[int]] | None:
    """The pair p, q and the leaves of a trace of h + new_edge through
    new_edge, or None; h is only read.  new_edge is checked as ``add_edge``
    checks it, so an edge of h, an edge out of range or anything but three
    distinct vertices raises the same ValueError.  For a trace-free h, None
    means that h + new_edge is trace-free.  No certificate is built: one that
    verifies is ``least_third_certificate(h, p, q, leaves)`` with new_edge
    in h.
    """
    t = _t_of(t)
    return _trace_through_edge(h, h.new_edge(new_edge), t)


def _trace_through_edge(
    h: Hypergraph3, e: Triple, t: int
) -> tuple[int, int, list[int]] | None:
    """The pair p, q and the leaves of a trace of h + e that uses e, or
    None, for a sorted edge e that h lacks; h is only read.  ``turan_search``
    calls it before it adds a child edge and ``incremental_trace_check``
    returns it; neither builds a certificate, which ``least_third_certificate``
    makes from the answer with e in h.

    e serves a pattern edge {p, u} with p, u in e, so the pair is {p, q} for
    some q outside e, and u is a leaf adjacent to q in the shadow graph; q
    ranges, ascending, over the shadow neighbours of e's other two vertices,
    which are the same in h and h + e outside e.  Per p the h + e side of
    every pool is built once: p's link in h + e, each shadow neighbour u of
    p with the thirds of {p, u}.  It is a copy of p's link in h, whose third
    sets are read live, except for e's other two vertices, whose pairs with
    p gain e's third vertex and so get a copy; the live set is never
    extended.  Each q walks its own link against this side map, reading a
    neighbour u and the thirds of {q, u} in one step, and the candidates
    that are vertices of e are recorded as the pool is built; a pool
    without one is skipped unsorted.  ``_choose_leaves`` decides the
    others, with the vertices of e among the candidates forced as a leaf in
    turn.  When the decision forced on the first fails, no fitting leaf set
    holds it, and fitting only fails more as leaves are added, so the
    decision forced on the second, if t candidates are left, drops it from
    the pool and finds the same leaves.
    """
    if not _trace_fits(h.n, t):
        return None
    link = h.link_index()
    x, y, z = e
    for p, u1, u2 in ((x, y, z), (y, x, z), (z, x, y)):
        # u -> thirds of {p, u} in h + e, over p's shadow neighbours in h + e
        lp = link.get(p, {})
        side = dict(lp)
        side[u1] = {*lp.get(u1, ()), u2}
        side[u2] = {*lp.get(u2, ()), u1}
        qs = {*link.get(u1, ()), *link.get(u2, ())}
        qs.difference_update(e)
        for q in sorted(qs):
            cands = []
            f1 = f2 = None  # u1 and u2 as candidates, if they are candidates
            for u, sb in link[q].items():
                sa = side.get(u)
                if sa is not None:
                    na = len(sa) - (q in sa)
                    nb = len(sb) - (p in sb)
                    if na and nb:
                        c = (-na if na < nb else -nb, u, sa, sb)
                        cands.append(c)
                        if u == u1:
                            f1 = c
                        elif u == u2:
                            f2 = c
            if len(cands) < t or (f1 is None and f2 is None):
                continue
            for c in (f1, f2):
                if c is None or len(cands) < t:
                    continue
                leaves = _choose_leaves(p, q, t, cands, None, c)
                if leaves is not None:
                    return p, q, leaves
                cands.remove(c)
    return None


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
