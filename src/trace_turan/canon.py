"""Canonical forms for 3-uniform hypergraphs.

The canonical form of H is the lexicographically least sorted sequence of
colex edge indices over all vertex relabelings.  Two hypergraphs on the same
vertex count get equal forms iff they are isomorphic, and a labeled
hypergraph whose own index sequence equals its canonical sequence is the
unique canonical representative of its class -- the property the orderly
search leans on (removing the colex-largest edge of a canonical sequence
leaves a canonical sequence).

The minimization is a branch and bound over partial label assignments.
Edges completed at label depth k have indices in [C(k,3), C(k+1,3)), so the
final sorted sequence grows in per-depth blocks and prefix pruning against
the incumbent is exact.  That includes where a block ends: a branch whose
block ties the incumbent's but stops short of it is pruned at once, since
the incumbent's next entry is below C(k+1,3) and every completion of the
branch puts an entry of at least C(k+1,3) there.  Candidates are tried in
block order, so the first pruned candidate ends the depth.

Two things make a branch cheap.  Twin classes -- vertices any two of which
are swapped by an automorphism transposing just them -- do not depend on
the partial assignment, so they are computed once per call; each depth tries only the
smallest unassigned member of each class, which collapses the blowup on
highly symmetric inputs such as complete or empty hypergraphs.  And every
unassigned vertex u keeps the pair keys C(j,2)+i of the edges it would
complete, one per assigned pair labeled i < j: giving v label d appends
C(d,2)+pos(w) for each assigned w with {u,v,w} an edge.  The new keys exceed
all older ones, so the list stays sorted without a sort, backtracking pops
what was appended, and u's block at depth d is C(d,3) plus each key.
"""

from __future__ import annotations

from math import comb

from .hypergraph import Hypergraph3
from .indexing import Triple, edge_indices

_BIG = 1 << 60


def _twin_classes(n: int, edges: list[Triple]) -> list[list[int]]:
    """Vertices grouped by mutual twinship, each class in ascending order.

    v and w are twins when transposing them maps the edge set to itself,
    i.e. when their links agree once pairs containing the other are dropped.
    Twinship is an equivalence, so one comparison per class suffices.
    """
    links: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for a, b, c in edges:
        links[a].add((b, c))
        links[b].add((a, c))
        links[c].add((a, b))
    classes: list[list[int]] = []
    for v in range(n):
        for cls in classes:
            w = cls[0]
            if {p for p in links[v] if w not in p} == {p for p in links[w] if v not in p}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _min_index_sequence(
    n: int,
    edges: list[Triple],
    best: list[int],
    decide_only: bool,
) -> bool:
    """Minimize the index sequence over relabelings, in place on ``best``.

    With decide_only=True, ``best`` is left untouched and the return value
    says whether some relabeling beats it strictly.  Otherwise ``best`` ends
    up holding the canonical sequence and the return value is meaningless.
    """
    classes = _twin_classes(n, edges)
    thirds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, c in edges:
        thirds[a][b].append(c)
        thirds[b][a].append(c)
        thirds[a][c].append(b)
        thirds[c][a].append(b)
        thirds[b][c].append(a)
        thirds[c][b].append(a)

    c3 = [comb(d, 3) for d in range(n + 1)]
    c2 = [comb(d, 2) for d in range(n)]
    pos = [-1] * n
    order: list[int] = []  # assigned vertices by label
    keys: list[list[int]] = [[] for _ in range(n)]
    found_smaller = False

    def rec(depth: int, emitted: int) -> None:
        nonlocal found_smaller
        if depth == n:
            return
        scored = []
        for cls in classes:
            for v in cls:
                if pos[v] < 0:
                    # the sentinel sorts a block before its own prefixes,
                    # as the longer block gives the smaller sequence
                    scored.append((keys[v] + [_BIG], v))
                    break
        scored.sort()
        base = c3[depth]
        next_base = c3[depth + 1]
        pair_base = c2[depth]
        for _, v in scored:
            blk = [base + k for k in keys[v]]
            # compare blk against the incumbent at offset ``emitted``; past
            # its end the incumbent reads as _BIG
            end = emitted + len(blk)
            incumbent = best[emitted:end]
            if len(incumbent) < len(blk):
                incumbent += [_BIG] * (len(blk) - len(incumbent))
            if blk != incumbent:
                if blk > incumbent:
                    break  # and so is every later candidate, as scored is sorted
                if decide_only:
                    found_smaller = True
                    return
                del best[emitted:]
                best.extend(blk)
            elif end < len(best) and best[end] < next_base:
                # a tie, but the incumbent completes one more edge at this
                # depth; every completion puts at least next_base at ``end``
                break
            pos[v] = depth
            touched = []
            row = thirds[v]
            for i, w in enumerate(order):  # ascending labels keep keys sorted
                for u in row[w]:
                    if pos[u] < 0:
                        keys[u].append(pair_base + i)
                        touched.append(u)
            order.append(v)
            rec(depth + 1, end)
            order.pop()
            for u in touched:
                keys[u].pop()
            pos[v] = -1
            if found_smaller and decide_only:
                return

    rec(0, 0)
    return found_smaller


def canonical_index_sequence(h: Hypergraph3) -> tuple[int, ...]:
    """Lexicographically least colex index sequence over all relabelings."""
    best = list(edge_indices(h.edges))
    _min_index_sequence(h.n, list(h.edges), best, decide_only=False)
    return tuple(best)


def canonical_form(h: Hypergraph3) -> bytes:
    """A byte string equal for two hypergraphs iff they are isomorphic."""
    seq = canonical_index_sequence(h)
    return f"{h.n};{len(seq)};{','.join(map(str, seq))}".encode("ascii")


def is_canonical_labeling(h: Hypergraph3) -> bool:
    """True iff h's own index sequence is already the canonical one."""
    best = list(edge_indices(h.edges))
    return not _min_index_sequence(h.n, list(h.edges), best, decide_only=True)
