"""Structural inequalities that hold in every trace-free hypergraph, checked
per instance, with constructive certificates on violation.

Each check mirrors a constructive argument: whenever the inequality fails,
the same structure that witnesses the failure becomes a TraceCertificate.
``least_third_certificate`` builds every constructive certificate but one:
given a pair and its leaves, it gives each pattern edge its least third
outside the core.  The leaves are a set dominated in both link graphs,
two common neighbours of the pair not joined through it, or two shell
roots whose shell sets meet.  The one exception is the triangle case at
t = 2, where both link graphs on a 3-set union to a triangle and
``_cert_triangle_links`` assembles four edges through one apex leaf.
Every certificate is verified once, when it is attached to its violation.
On a genuinely trace-free input, therefore, every check must pass; a
violation on one is reported as "certificate search exhausted", never
dropped.

The checks form one table, ``_CHECKS``, in report order.  A row gives the
check's name, its premise hypergraph (the residual edges B | C of the
co-degree partition, or the dense core C), an optional extra premise
(delta >= 14 for the core checks, t = 2 for the 4-cycle checks) and a
function that only finds violations: it returns its detail string and a
list of (subject, observed, bound, certificate or None).

One runner, ``lemma_status_report``, does the rest for every row.  A check
is "vacuous", not "pass", so dashboards do not overstate coverage: first
when its extra premise fails ("needs delta >= 14", "4-cycle checks need
t = 2"), otherwise when its premise hypergraph is empty ("no residual
edges", "dense core empty").  A check that runs becomes "violated" when it
finds anything and "pass" when not; each finding becomes a LemmaViolation.
One without a verified constructive certificate takes the exact detector's
answer for the whole input, computed at most once per report: its
certificate, or None and "certificate search exhausted" when the input is
trace-free.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .bounds import epsilon
from .dominated import dominated_pair_min1, simultaneous_dominated_min_degree
from .hypergraph import Hypergraph3, link_graph, neighborhoods, eu_vu, partition_edges
from .traces import (
    TraceCertificate,
    _t_of,
    contains_trace,
    least_third_certificate,
    verify_certificate,
)

CERTIFIED = "certified"
EXHAUSTED = "certificate search exhausted"


@dataclass
class LemmaViolation:
    check: str
    subject: tuple
    observed: float
    bound: float
    certificate: TraceCertificate | None = None
    note: str = ""


@dataclass
class CheckStatus:
    check: str
    status: str  # "pass" | "vacuous" | "violated"
    detail: str = ""
    violations: list[LemmaViolation] = field(default_factory=list)


def _cert_via_links(
    h: Hypergraph3, x: int, y: int, s: frozenset[int], t: int, dominate: Callable
) -> TraceCertificate | None:
    """Trace from a set dominated in both link graphs on S, found by
    ``dominate(lx, ly)``.

    Each caller's premise gives the links the minimum degree ``dominate``
    needs: u in S has degree at least codeg_h(x, u) - 1 in lx (and likewise
    in ly), as each third other than y is a neighbour or a loop.  In
    residual-codegree, {x, y, u} lies in B | C, so that co-degree is at
    least 2.  In the core and shell checks, {x, u} and {y, u} each lie in
    an edge of the dense core C, so it exceeds delta.  A broken premise
    makes ``dominate`` raise.

    The set has t or more vertices but in the triangle case.  In
    residual-codegree |S| > 3t - 3 (> 2 at t = 2), and pair_min1 keeps
    ceil(|S|/3) >= t vertices, except one when |S| = 3 and the links union
    to a triangle.  Elsewhere |S| >= (1 + 4 eps) t, and the simultaneous set
    keeps (1 - 2 eps) |S| >= t vertices, as eps < 1/4.
    """
    lx = link_graph(h, x, s, y)
    ly = link_graph(h, y, s, x)
    d = dominate(lx, ly)
    if len(d) < t:
        return _cert_triangle_links(h, x, y, s)
    # a subset of a dominated set stays dominated, and a leaf u dominated
    # in both links has, on each side, a third outside {x, y} | D
    return least_third_certificate(h, x, y, sorted(d)[:t])


def _cert_triangle_links(h: Hypergraph3, x: int, y: int, s: frozenset[int]) -> TraceCertificate | None:
    """Four-edge assembly for the case where both link graphs on a 3-set
    union to a triangle: two edges through one apex leaf plus the two
    (x, y, *) edges trace a 4-cycle."""
    for p, o in ((x, y), (y, x)):
        for u in sorted(s):
            rest = sorted(s - {u})
            v, w = rest
            if (p, u, v) in h and (p, u, w) in h and (p, o, v) in h and (p, o, w) in h:
                return TraceCertificate(
                    x=o,
                    y=u,
                    D=(v, w),
                    assignment={
                        ("x", v): tuple(sorted((p, o, v))),
                        ("x", w): tuple(sorted((p, o, w))),
                        ("y", v): tuple(sorted((p, u, v))),
                        ("y", w): tuple(sorted((p, u, w))),
                    },
                )
    return None


def _cert_common_neighborhood(hb: Hypergraph3, x: int, y: int) -> TraceCertificate | None:
    """4-cycle from eight common neighbors in the residual hypergraph; its
    edges are edges of hb, so it is a certificate for h too."""
    common = hb.shadow_neighbors(x) & hb.shadow_neighbors(y)
    clean = [u for u in sorted(common) if (x, y, u) not in hb]
    if len(clean) < 6:
        return None
    for ui, uj in itertools.combinations(clean[:6], 2):
        if (x, ui, uj) in hb or (y, ui, uj) in hb:
            continue  # ui, uj adjacent in the auxiliary graph
        cert = least_third_certificate(hb, x, y, (ui, uj))
        if cert is not None:
            return cert
    return None


def _shell_sets(g: Hypergraph3, v: int) -> dict[int, set[int]]:
    """V_u for each u in N1(v), in ascending u: the distance-2 vertices
    covered by the edges meeting N1(v) exactly in {u}."""
    n1, _ = neighborhoods(g, v)
    return {u: eu_vu(g, u, n1)[1] for u in sorted(n1)}


def _cert_shell_overlap(hb: Hypergraph3, v: int) -> TraceCertificate | None:
    """4-cycle on the pair {v, z} with leaves u, w: shell roots u, w in
    N1(v) whose shell sets V_u, V_w share z, the least shared vertex.
    ``least_third_certificate`` finds it when each root has a third with v
    other than the other root: z, at distance 2, shares no edge with v, and
    the E_u edge through z avoids v and w.  Failing that, eight or more
    shared shell vertices give a common-neighbourhood 4-cycle on u, w."""
    vu = _shell_sets(hb, v)
    for u, w in itertools.combinations(vu, 2):
        overlap = vu[u] & vu[w]
        if not overlap:
            continue
        cert = least_third_certificate(hb, v, min(overlap), (u, w))
        if cert is None and len(overlap) >= 8:
            cert = _cert_common_neighborhood(hb, u, w)
        if cert is not None:
            return cert
    return None


def _attach_certificate(
    h: Hypergraph3,
    viol: LemmaViolation,
    cert: TraceCertificate | None,
    detected: Callable[[], TraceCertificate | None],
) -> LemmaViolation:
    """Attach the constructive certificate if it verifies, else the exact
    detector's answer ``detected()``, which is None only on a trace-free h."""
    if cert is None or not verify_certificate(h, cert):
        cert = detected()
    viol.certificate = cert
    viol.note = EXHAUSTED if cert is None else CERTIFIED
    return viol


# -- the checks ----------------------------------------------------------------
#
# Each takes (h, g, t, delta), g being the premise hypergraph of its
# row, and returns (detail, [(subject, observed, bound, certificate), ...]).


def _codegree_cap(h: Hypergraph3, g: Hypergraph3, t: int, least: int, bound: float, dominate: Callable):
    """The pairs of g with co-degree at least `least`, each certified from a
    set ``dominate`` finds in the links on its thirds."""
    found = []
    for x, y, d in g.codegree_pairs():
        if d >= least:
            cert = _cert_via_links(h, x, y, g.codegree_thirds(x, y), t, dominate)
            found.append(((x, y), d, bound, cert))
    return found


def _residual_codegree(h: Hypergraph3, hma: Hypergraph3, t: int, delta: int):
    bound = 2 if t == 2 else 3 * t - 3
    return f"bound {bound}", _codegree_cap(h, hma, t, bound + 1, bound, dominated_pair_min1)


def _codegree_ceiling(t: int, delta: int) -> tuple[int, float]:
    """The co-degree ceiling ceil((1 + 4 eps) t) and its bound (1 + 4 eps) t - 1."""
    k = (1 + 4 * epsilon(delta)) * t
    return math.ceil(k), k - 1


def _core_codegree(h: Hypergraph3, core: Hypergraph3, t: int, delta: int):
    k_ceiling, bound = _codegree_ceiling(t, delta)
    simultaneous = functools.partial(simultaneous_dominated_min_degree, delta=delta)
    # the ceiling is the integer reading the construction supports
    return f"bound {bound:.4f}", _codegree_cap(h, core, t, k_ceiling, bound, simultaneous)


def _expansion_hits(core: Hypergraph3, x: int, y: int) -> list[tuple[int, int]]:
    """The pairs a < b in N1(x) with {y, a, b} an edge of core, read from
    y's link row; x is not in N1(x), so no such edge holds x."""
    n1x = core.shadow_neighbors(x)
    row = core.link_index()[y]
    return [(a, b) for a, thirds in row.items() if a in n1x for b in thirds if a < b and b in n1x]


def _shell_expansion(h: Hypergraph3, core: Hypergraph3, t: int, delta: int):
    k = core.max_codegree()
    bound = k + 0.5 * k * 50 * t
    simultaneous = functools.partial(simultaneous_dominated_min_degree, delta=delta)
    found = []
    for x in core.support():
        for y in sorted(core.shadow_neighbors(x)):
            hits = _expansion_hits(core, x, y)
            if len(hits) >= bound:
                s = frozenset(w for pair in hits for w in pair)
                cert = _cert_via_links(h, x, y, s, t, simultaneous)
                found.append(((x, y), len(hits), bound, cert))
    return f"bound {bound:.1f}", found


def _shell_cover_sum(h: Hypergraph3, core: Hypergraph3, t: int, delta: int):
    k_ceiling, _ = _codegree_ceiling(t, delta)
    bound = (k_ceiling - 1) * h.n
    simultaneous = functools.partial(simultaneous_dominated_min_degree, delta=delta)
    found = []
    for v in core.support():
        vu = _shell_sets(core, v)
        total = sum(len(s) for s in vu.values())
        if total > bound:
            counts: dict[int, list[int]] = {}
            for u, cover in vu.items():
                for x in cover:
                    counts.setdefault(x, []).append(u)
            x_best = max(sorted(counts), key=lambda x: len(counts[x]))
            s = frozenset(counts[x_best])
            cert = None
            if len(s) >= k_ceiling:
                cert = _cert_via_links(h, v, x_best, s, t, simultaneous)
            found.append(((v,), total, bound, cert))
    return f"bound {bound}", found


def _common_neighborhood(h: Hypergraph3, hb: Hypergraph3, t: int, delta: int):
    n1 = {v: hb.shadow_neighbors(v) for v in hb.support()}
    found = []
    for x, y in itertools.combinations(sorted(n1), 2):
        common = n1[x] & n1[y]
        if len(common) > 7:
            found.append(((x, y), len(common), 7, _cert_common_neighborhood(hb, x, y)))
    return "bound 7", found


def _shell_pair_overlap(h: Hypergraph3, hb: Hypergraph3, t: int, delta: int):
    found = []
    for e in hb.edges:
        for v in e:
            u, w = (a for a in e if a != v)  # both in N1(v): e is an edge of hb
            n1, _ = neighborhoods(hb, v)
            _, vu = eu_vu(hb, u, n1)
            _, vw = eu_vu(hb, w, n1)
            overlap = vu & vw
            if len(overlap) > 7:
                cert = _cert_common_neighborhood(hb, u, w)
                if cert is None:
                    cert = _cert_shell_overlap(hb, v)
                found.append(((v, u, w), len(overlap), 7, cert))
    return "bound 7", found


def _shell_size_floor(h: Hypergraph3, hb: Hypergraph3, t: int, delta: int):
    found = []
    for v in hb.support():
        for u, vu in _shell_sets(hb, v).items():
            du = hb.degree(u)
            if len(vu) < du - 16:
                cert = _cert_common_neighborhood(hb, min(u, v), max(u, v))
                found.append(((v, u), len(vu), du - 16, cert))
    return "slack 16", found


def _shell_sum(h: Hypergraph3, hb: Hypergraph3, t: int, delta: int):
    found = []
    for v in hb.support():
        total = sum(map(len, _shell_sets(hb, v).values()))
        bound = h.n + 14 * hb.degree(v)
        if total > bound:
            found.append(((v,), total, bound, _cert_shell_overlap(hb, v)))
    return "n + 14 d(v)", found


_EMPTY_PREMISE = {"residual": "no residual edges", "core": "dense core empty"}
_NEEDS_DELTA_14 = "needs delta >= 14"
_NEEDS_T_2 = "4-cycle checks need t = 2"

_CHECKS = (
    ("residual-codegree-cap", "residual", None, _residual_codegree),
    ("core-codegree-cap", "core", _NEEDS_DELTA_14, _core_codegree),
    ("shell-expansion-cap", "core", _NEEDS_DELTA_14, _shell_expansion),
    ("shell-cover-sum-cap", "core", _NEEDS_DELTA_14, _shell_cover_sum),
    ("common-neighborhood-cap", "residual", _NEEDS_T_2, _common_neighborhood),
    ("shell-pair-overlap-cap", "residual", _NEEDS_T_2, _shell_pair_overlap),
    ("shell-size-floor", "residual", _NEEDS_T_2, _shell_size_floor),
    ("shell-sum-cap", "residual", _NEEDS_T_2, _shell_sum),
)


def lemma_status_report(h: Hypergraph3, t: int, delta: int = 14) -> list[CheckStatus]:
    """Run every structural check; one status entry per check, in table order."""
    t = _t_of(t)
    part = partition_edges(h, delta)
    premises = {
        "residual": Hypergraph3(h.n, sorted(part.B | part.C)),
        "core": Hypergraph3(h.n, sorted(part.C)),
    }
    unmet = {_NEEDS_DELTA_14: delta < 14, _NEEDS_T_2: t != 2}
    # the exact detector answers one question of h, so it runs at most once,
    # and only when some violation lacks a verified constructive certificate
    detected = functools.cache(lambda: contains_trace(h, t))
    report = []
    for name, premise, extra, check in _CHECKS:
        g = premises[premise]
        if unmet.get(extra):
            report.append(CheckStatus(name, "vacuous", extra))
        elif g.edge_count == 0:
            report.append(CheckStatus(name, "vacuous", _EMPTY_PREMISE[premise]))
        else:
            detail, found = check(h, g, t, delta)
            violations = [
                _attach_certificate(h, LemmaViolation(name, subject, observed, bound), cert, detected)
                for subject, observed, bound, cert in found
            ]
            report.append(CheckStatus(name, "violated" if violations else "pass", detail, violations))
    return report
