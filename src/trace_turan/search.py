"""Exact values of the trace Turán function at desk scale.

Two independent routes to the same number:

* ``turan_oracle`` -- subset enumeration over all triples in colex order
  against a precomputed table of minimal trace configurations (bitmask
  inclusion tests), capped at n <= 6.  It keeps a mask reached at the best
  iff the mask is a canonical labelling (see ``turan_oracle``), and tests
  the masks at the best in batches, so an interim best costs no test;
* ``turan_search`` -- orderly generation (Read 1978): grow
  canonically-labeled trace-free hypergraphs one colex-larger edge at a
  time, rejecting non-canonical children, capped at n <= 12.  One pass
  per node (``_classify_past``) marks the later triples that close a trace
  (on the incremental check ``_trace_through_edge`` of ``traces``) and
  those that a known automorphism of the node maps to a colex-smaller
  triple: twin swaps and the permutations the node's own canonicity test
  found.  The children stop once the node's edges plus the alive triples
  left cannot reach the best, and a marked child is skipped unadded: it is
  isomorphic to one with a smaller index sequence, so not canonical.
  ``SearchResult.stats`` counts what became of each child.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterator
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
    # turan_search's run counts: child edges a known automorphism lowers,
    # skipped unadded (symmetry_skips), the children tried, each dead
    # (trace_rejects), rejected as non-canonical or recursed into, and the
    # child edges past a node's alive bound (bound_cuts); the oracle keeps
    # none
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


def _lower_images(below: list[int], automorphisms: list[list[int]], e: Triple) -> Iterator[int]:
    """The indices of the colex-smaller triples that a twin swap, read from
    below, or a permutation in automorphisms maps e to."""
    a, b, c = e
    inside = 1 << a | 1 << b | 1 << c
    for v in e:
        lower = below[v] & ~inside
        while lower:
            w = (lower & -lower).bit_length() - 1
            lower &= lower - 1
            yield triple_index(*(w if u == v else u for u in e))
    for p in automorphisms:
        image = sorted((p[a], p[b], p[c]), reverse=True)
        if image < [c, b, a]:
            yield triple_index(*image)


def _classify_past(
    h: Hypergraph3,
    t: int,
    triples: tuple[Triple, ...],
    last_idx: int,
    dead: int,
    below: list[int],
    automorphisms: list[list[int]],
) -> tuple[int, int]:
    """(dead, lowered), bitmasks of triple indices: the given dead plus every
    triple past last_idx that closes a trace when added to h, and every
    triple past last_idx, not dead on entry, with a colex-smaller image
    under ``_lower_images``.

    dead holds triples that closed one added to a subgraph of h, so they
    still do: traces are monotone.  In ascending order, a triple e not in
    dead takes the status of a colex-smaller image e* under a twin swap or
    a permutation in automorphisms, all automorphisms of h, once that is
    known, as it is when e* lies past last_idx (decided already) or in
    dead; the automorphism maps h + e onto h + e*.  Otherwise one trace
    check decides e.
    """
    lowered = 0
    for idx in range(last_idx + 1, len(triples)):
        if dead >> idx & 1:
            continue
        for j in _lower_images(below, automorphisms, triples[idx]):
            lowered |= 1 << idx
            if dead >> j & 1:
                dead |= 1 << idx
                break
            if j > last_idx:
                break
        else:
            if _trace_through_edge(h, triples[idx], t) is not None:
                dead |= 1 << idx
    return dead, lowered


def turan_search(n: int, t: int) -> SearchResult:
    """Exact maximum by isomorph-free orderly generation, for n <= 12.

    Every canonically-labeled trace-free hypergraph is reachable from the
    empty one by adding its colex-largest edge last, so extending canonical
    states by strictly larger edges and keeping only canonical children
    visits each isomorphism class exactly once.

    Before a node h expands its children, ``_classify_past`` decides for
    every triple e past h's last edge whether h + e has a trace ("dead").
    Every node below child e is h + e plus alive triples after e, so the
    children stop, in index order, at the first whose alive triples from its
    own on cannot bring h to the best (or only tie it with ``WITNESS_CAP``
    classes kept).  Such a subtree holds no node at the best, so the value and the
    witnesses, in order, do not depend on the bound.

    The same pass marks each triple f that a known automorphism of h maps
    to a colex-smaller triple f* ("lowered"): the swap (v w) of a vertex v
    of f with a smaller twin w outside f, or a permutation found by the
    canonicity test that accepted h (every leaf of its decide-only walk is
    one).  Such an f lies outside h, and h + f is isomorphic to h + f*,
    whose sorted index sequence is smaller, so h + f is not canonical: a
    lowered child that is not dead is skipped before it is added, with no
    canonicity test.  No skipped child would have been recursed into, so
    nodes and witnesses do not change.  Twin classes are computed once per node: a
    child's, before its canonicity test, serve that test and, if it passes,
    the child's own node.

    A dead child is never added.  The result's ``stats`` count each
    outcome; ``bound_cuts`` counts the child edges past a node's stop.

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
    keys = "tried symmetry_skips trace_rejects noncanon_rejects recursed bound_cuts"
    stats = dict.fromkeys(keys.split(), 0)
    if not _trace_fits(n, t):
        complete = Hypergraph3(n, triples)
        return SearchResult(n, t, total, [complete], 1, time.perf_counter() - start, stats)

    best = -1
    witnesses: list[Hypergraph3] = []
    h = Hypergraph3(n)

    # dead: the triples an ancestor found to close a trace added to it
    def rec(
        last_idx: int, dead: int, automorphisms: list[list[int]], classes: list[list[int]]
    ) -> None:
        nonlocal best, witnesses
        m = h.edge_count
        if m > best:
            best = m
            witnesses = [h.copy()]
        elif m == best and len(witnesses) < WITNESS_CAP:
            witnesses.append(h.copy())
        below = _smaller_twins(n, classes)
        dead, lowered = _classify_past(h, t, triples, last_idx, dead, below, automorphisms)
        alive = total - 1 - last_idx - bin(dead >> (last_idx + 1)).count("1")
        for idx in range(last_idx + 1, total):
            # every node below child idx is h plus alive edges from idx on
            if m + alive < best or (m + alive == best and len(witnesses) >= WITNESS_CAP):
                stats["bound_cuts"] += total - idx
                break
            if dead >> idx & 1:
                stats["trace_rejects"] += 1
                continue
            alive -= 1
            if lowered >> idx & 1:
                stats["symmetry_skips"] += 1
                continue
            e = triples[idx]
            h.add_edge(e)
            found: list[list[int]] = []
            twins = _twin_classes(h)
            if is_canonical_labeling(h, found, twins):
                stats["recursed"] += 1
                rec(idx, dead, found, twins)
            else:
                stats["noncanon_rejects"] += 1
            h.remove_edge(e)

    rec(-1, 0, [], _twin_classes(h))
    stats["tried"] = stats["trace_rejects"] + stats["noncanon_rejects"] + stats["recursed"]
    # every node but the root was recursed into
    return SearchResult(n, t, best, witnesses, stats["recursed"] + 1, time.perf_counter() - start, stats)

