"""Canonical forms for 3-uniform hypergraphs.

The canonical form of H is the lexicographically least sorted sequence of
colex edge indices over all vertex relabelings.  Two hypergraphs on the same
vertex count get equal forms iff they are isomorphic, and a labeled
hypergraph whose own index sequence equals its canonical sequence is the
unique canonical representative of its class -- the property the orderly
search leans on (removing the colex-largest edge of a canonical sequence
leaves a canonical sequence).

The minimization is a branch and bound over partial label assignments.
Edges completed at label depth d have indices C(d,3) + C(j,2) + i with
i < j < d, so the sorted sequence is a run of per-depth blocks, each read
by its pair keys C(j,2) + i.  Every key list ends in a sentinel above all
keys: the incumbent's blocks, split once per call, and the list each
unassigned vertex u keeps of the edges it would complete.  Plain list
comparison is then the sequence order, and a longer block sorts before its
own prefix, whose next entry falls at a later depth.  Giving v label d
inserts C(d,2) + pos(w) before u's sentinel for each assigned w and each
u in link[v][w], read from the hypergraph's own link index
(``Hypergraph3.link_index``), so canonical labelling builds no index of
its own; the new keys exceed all older ones, so the list stays sorted,
and backtracking removes them.

Each frame scans the candidates once.  Deciding, it returns at the first
key below the incumbent block.  Forming, it takes the least key as the new
incumbent block and opens every deeper one.  Either way it recurses only
into the candidates whose key equals that block; forming rebuilds the
sequence from the blocks at the end.  Candidates are the smallest
unassigned member of each twin class -- vertices any two of which are
swapped by an automorphism transposing just them.  The classes do not
depend on the partial assignment, so they are computed once per call, and
they collapse the blowup on highly symmetric inputs such as complete or
empty hypergraphs; twinship too is read off the link index.  Each leaf a
deciding walk reaches ties the input's own sequence, so its vertex order
is an automorphism, which the orderly search reads to skip children.  The
walk starts from the input's own sequence and returns its verdict and its
sequence, so each public entry point is one call.
"""

from __future__ import annotations

from math import comb

from .hypergraph import Hypergraph3
from .indexing import edge_indices

_BIG = 1 << 60
_OPEN = [_BIG, _BIG]  # above every sentinel-terminated key list


def _twin_classes(h: Hypergraph3) -> list[list[int]]:
    """Vertices grouped by mutual twinship, each class in ascending order.

    v and w are twins when transposing them maps the edge set to itself,
    i.e. when link[v][u] - {w} == link[w][u] - {v} for every other u, read
    from h's link index.  Twinship is an equivalence, so one comparison per
    class suffices, and a transposition keeps degrees, so only vertices of
    one degree are compared.
    """
    link = h.link_index()
    degree = [h.degree(v) for v in range(h.n)]
    classes: list[list[int]] = []
    for v in range(h.n):
        row_v = link.get(v, {})
        for cls in classes:
            w = cls[0]
            row_w = link.get(w, {})
            if degree[v] == degree[w] and all(
                row_v.get(u, frozenset()) - {w} == row_w.get(u, frozenset()) - {v}
                for u in row_v.keys() | row_w.keys()
                if u != v and u != w
            ):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _min_index_sequence(
    h: Hypergraph3,
    decide_only: bool,
    leaves: list[list[int]] | None = None,
    classes: list[list[int]] | None = None,
) -> tuple[bool, tuple[int, ...]]:
    """Minimize h's index sequence over relabelings, reading its link index.

    The walk starts from h's own sequence as the incumbent and returns
    (found_smaller, sequence).  With decide_only=True it stops at the first
    relabeling that beats h's sequence strictly, and the sequence returned
    is h's own.  Otherwise found_smaller is meaningless and the sequence is
    the canonical one.  ``leaves``, when given, gains the vertex order
    (label -> vertex) of every leaf the walk reaches.  ``classes`` are h's
    twin classes, computed here unless given.
    """
    n = h.n
    link = h.link_index()
    if classes is None:
        classes = _twin_classes(h)
    own = edge_indices(h.edges)
    c3 = [comb(d, 3) for d in range(n + 1)]
    c2 = [comb(d, 2) for d in range(n)]
    # the incumbent as one key block per depth
    blocks = [[x - c3[d] for x in own if c3[d] <= x < c3[d + 1]] + [_BIG] for d in range(n)]
    pos = [-1] * n
    order: list[int] = []  # assigned vertices by label
    keys: list[list[int]] = [[_BIG] for _ in range(n)]

    def rec(depth: int) -> bool:
        if depth == n:
            if leaves is not None:
                leaves.append(order[:])
            return False
        least = blocks[depth]
        ties: list[int] = []
        for cls in classes:
            for v in cls:
                if pos[v] < 0:
                    k = keys[v]
                    if k < least:
                        if decide_only:
                            return True
                        least = k
                        ties = [v]
                    elif k == least:
                        ties.append(v)
                    break
        if least is not blocks[depth]:
            blocks[depth] = least[:]  # keys[v] changes under the recursion
            blocks[depth + 1:] = [_OPEN] * (n - depth - 1)
        pair_base = c2[depth]
        for v in ties:
            pos[v] = depth
            touched = []
            row = link.get(v, {})
            for i, w in enumerate(order):  # ascending labels keep keys sorted
                for u in row.get(w, ()):
                    if pos[u] < 0:
                        ku = keys[u]
                        ku.insert(-1, pair_base + i)
                        touched.append(ku)
            order.append(v)
            if rec(depth + 1):
                return True
            order.pop()
            for ku in touched:
                del ku[-2]
            pos[v] = -1
        return False

    found_smaller = rec(0)
    if decide_only:
        return found_smaller, own
    return found_smaller, tuple(c3[d] + k for d, blk in enumerate(blocks) for k in blk[:-1])


def canonical_index_sequence(h: Hypergraph3) -> tuple[int, ...]:
    """Lexicographically least colex index sequence over all relabelings."""
    return _min_index_sequence(h, decide_only=False)[1]


def canonical_form(h: Hypergraph3) -> bytes:
    """A byte string equal for two hypergraphs iff they are isomorphic."""
    seq = canonical_index_sequence(h)
    return f"{h.n};{len(seq)};{','.join(map(str, seq))}".encode("ascii")


def is_canonical_labeling(
    h: Hypergraph3,
    automorphisms: list[list[int]] | None = None,
    classes: list[list[int]] | None = None,
) -> bool:
    """True iff h's own index sequence is already the canonical one.

    One decide-only walk over h's link index answers; its verdict is
    returned as is.  ``automorphisms``, when given, gains the permutation i -> order[i] of
    every leaf the decide-only walk reaches.  Each such leaf ties h's own
    sequence, so each permutation is an automorphism of h.  A walk that
    answers False stops at the first smaller block, so it reaches only
    some of them.  ``classes``, when given, are h's twin classes as
    ``_twin_classes`` returns them, so a caller that needs them too
    computes them once.
    """
    return not _min_index_sequence(h, True, automorphisms, classes)[0]
