"""Colexicographic indexing of sorted vertex triples.

The search modules address edges by a dense integer index: triple (a, b, c)
with a < b < c gets index C(c,3) + C(b,2) + a, which orders triples
colexicographically and makes the index independent of n.
"""

from __future__ import annotations

from math import comb

Triple = tuple[int, int, int]


def triple_index(a: int, b: int, c: int) -> int:
    a, b, c = sorted((a, b, c))
    return comb(c, 3) + comb(b, 2) + a


def all_triples(n: int) -> tuple[Triple, ...]:
    """All sorted triples on 0..n-1 in colex (= index) order."""
    out = []
    for c in range(2, n):
        for b in range(1, c):
            for a in range(b):
                out.append((a, b, c))
    return tuple(out)


def edge_indices(edges) -> tuple[int, ...]:
    """Sorted index sequence of an edge collection."""
    return tuple(sorted(triple_index(*e) for e in edges))
