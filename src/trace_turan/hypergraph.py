"""Core data structures: 3-uniform hypergraphs, one graph type with loops
for polarity and link graphs alike, and the small/medium/large co-degree
edge partition.

Hypergraph vertices are dense integers 0..n-1.  Edges are sorted triples
indexed by each vertex's link, so co-degree queries are O(1) and the index
survives incremental edge insertion/removal (the extremal search mutates a
hypergraph in place as the single owner).  The link's keys are the vertex's
shadow neighbours, so the trace detectors visit only pairs and leaves that
share an edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping

from .indexing import Triple

Pair = tuple[int, int]


class FormatError(ValueError):
    """Malformed hypergraph, graph or certificate text; carries a 1-based
    line number when one line is at fault."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class CapExceeded(ValueError):
    """Requested size is beyond a fixed exact-computation cap."""


_NO_NEIGHBORS: frozenset[int] = frozenset()
_NO_LINK: Mapping[int, set[int]] = MappingProxyType({})


def _as_triple(edge: Iterable[int]) -> Triple:
    t = tuple(sorted(edge))
    if len(t) != 3 or not t[0] < t[1] < t[2]:
        raise ValueError(f"edge must have 3 distinct vertices, got {t}")
    return t  # type: ignore[return-value]


class Hypergraph3:
    """A 3-uniform hypergraph on vertices 0..n-1 with a link index.

    The index ``_link`` maps each vertex v to its link graph as an adjacency
    map: each shadow neighbour u of v (a vertex sharing an edge with v) maps
    to the set of "third" vertices w with {v, u, w} an edge.  ``_link[v][u]``
    and ``_link[u][v]`` are one set object, and no vertex or pair has an
    empty entry, so co-degrees, the edges through a pair and the shadow
    neighbours of a vertex are all O(1) away.  Only this module reads the
    index's layout; other modules read it through ``link_index``.
    """

    __slots__ = ("n", "_link", "_edges")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._link: dict[int, dict[int, set[int]]] = {}
        self._edges: set[Triple] = set()
        for e in edges:
            self.add_edge(e)

    # -- mutation ---------------------------------------------------------

    def new_edge(self, edge: Iterable[int]) -> Triple:
        """edge as a sorted triple, checked as ``add_edge`` checks it: three
        distinct vertices in range, not yet an edge; ValueError otherwise."""
        t = _as_triple(edge)
        if not (0 <= t[0] and t[2] < self.n):
            raise ValueError(f"edge {t} out of range for n={self.n}")
        if t in self._edges:
            raise ValueError(f"duplicate edge {t}")
        return t

    def add_edge(self, edge: Iterable[int]) -> Triple:
        a, b, c = t = self.new_edge(edge)
        self._edges.add(t)
        link = self._link
        la, lb, lc = link.setdefault(a, {}), link.setdefault(b, {}), link.setdefault(c, {})
        if b in la:
            la[b].add(c)
        else:
            la[b] = lb[a] = {c}
        if c in la:
            la[c].add(b)
        else:
            la[c] = lc[a] = {b}
        if c in lb:
            lb[c].add(a)
        else:
            lb[c] = lc[b] = {a}
        return t

    def remove_edge(self, edge: Iterable[int]) -> None:
        a, b, c = t = _as_triple(edge)
        if t not in self._edges:
            raise ValueError(f"no such edge {t}")
        self._edges.discard(t)
        link = self._link
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            s = link[u][v]
            s.discard(w)
            if not s:
                del link[u][v], link[v][u]
        for v in t:
            if not link[v]:
                del link[v]

    # -- queries ----------------------------------------------------------

    @property
    def edges(self) -> tuple[Triple, ...]:
        return tuple(sorted(self._edges))

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        try:
            return _as_triple(edge) in self._edges
        except (TypeError, ValueError):
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph3):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, m={len(self._edges)})"

    def copy(self) -> "Hypergraph3":
        return Hypergraph3(self.n, self._edges)

    def _check_pair(self, x: int, y: int) -> None:
        if x == y:
            raise ValueError(f"pair vertices must be distinct, got ({x}, {y})")
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={self.n}")

    def codegree(self, x: int, y: int) -> int:
        """Number of edges containing both x and y."""
        self._check_pair(x, y)
        return len(self._link.get(x, _NO_LINK).get(y, ()))

    def codegree_thirds(self, x: int, y: int) -> frozenset[int]:
        """The vertices w with {x, y, w} an edge."""
        self._check_pair(x, y)
        return frozenset(self._link.get(x, _NO_LINK).get(y, ()))

    def link_index(self) -> Mapping[int, Mapping[int, AbstractSet[int]]]:
        """The link index itself, live and read-only: each vertex v with an
        edge maps each shadow neighbour u to the vertices w with {v, u, w} an
        edge, one set shared by (v, u) and (u, v).  No other vertex or pair
        has an entry, and unlike ``shadow_neighbors`` it checks no vertex."""
        return self._link

    def _link_of(self, v: int) -> Mapping[int, set[int]]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._link.get(v, _NO_LINK)

    def shadow_neighbors(self, v: int) -> AbstractSet[int]:
        """The vertices sharing an edge with v: a live view, not a copy."""
        return self._link_of(v).keys()

    def degree(self, v: int) -> int:
        """Half the sum of codeg(v, w) over the shadow neighbours w of v."""
        return sum(map(len, self._link_of(v).values())) // 2

    def edges_at(self, v: int) -> list[Triple]:
        return sorted(tuple(sorted((v, w, z))) for w, s in self._link_of(v).items() for z in s if w < z)

    def max_codegree(self) -> int:
        return max((len(s) for row in self._link.values() for s in row.values()), default=0)

    def codegree_pairs(self) -> list[tuple[int, int, int]]:
        """All (x, y, codegree) with positive codegree, x < y, sorted."""
        return sorted((a, b, len(s)) for a, row in self._link.items() for b, s in row.items() if a < b)

    def support(self) -> list[int]:
        """Vertices incident to at least one edge."""
        return sorted(self._link)


class Graph:
    """A graph with simple edges plus loops counted with multiplicity.

    degree(v) = number of simple edges at v + loop multiplicity at v.  A
    ``range`` vertex set stays lazy, and adjacency and loop counts hold only
    the vertices that have them, so ``Graph(range(10**5))`` allocates nothing
    per vertex.
    """

    __slots__ = ("vertices", "_adj", "_loops")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[Iterable[int]] = (),
        loops: Mapping[int, int] | None = None,
    ):
        self.vertices = vertices if isinstance(vertices, range) else frozenset(vertices)
        self._adj: dict[int, set[int]] = {}
        self._loops: dict[int, int] = {}
        for e in edges:
            self.add_edge(*e)
        for v, mult in (loops or {}).items():
            self.add_loop(v, mult)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("use add_loop for loops")
        if u not in self.vertices or v not in self.vertices:
            raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def add_loop(self, v: int, mult: int = 1) -> None:
        if v not in self.vertices:
            raise ValueError(f"loop vertex {v} not in vertex set")
        if mult < 0:
            raise ValueError("loop multiplicity must be nonnegative")
        if mult:
            self._loops[v] = self._loops.get(v, 0) + mult

    @property
    def edges(self) -> tuple[Pair, ...]:
        """The simple edges (u, v), u < v, sorted."""
        return tuple(sorted((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v))

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    @property
    def loop_count(self) -> int:
        return sum(self._loops.values())

    def neighbors(self, v: int) -> AbstractSet[int]:
        """The simple-edge neighbours of v: a live view, not a copy."""
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in vertex set")
        return self._adj.get(v, _NO_NEIGHBORS)

    def loops_at(self, v: int) -> int:
        return self._loops.get(v, 0)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v)) + self._loops.get(v, 0)

    def min_degree(self) -> int:
        return min((self.degree(v) for v in self.vertices), default=0)

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self.vertices)}, |E|={self.edge_count}, loops={self.loop_count})"


@dataclass(frozen=True)
class EdgePartition:
    """Edges split by co-degree profile for a threshold delta >= 2.

    A:  edges with some pair of co-degree exactly 1,
    B:  edges whose pairs all have co-degree >= 2 and some pair <= delta,
    C:  edges whose pairs all have co-degree > delta.
    """

    delta: float
    A: frozenset[Triple]
    B: frozenset[Triple]
    C: frozenset[Triple]


def partition_edges(h: Hypergraph3, delta: float) -> EdgePartition:
    """Partition the edges of h into the (A, B, C) co-degree classes."""
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    link = h.link_index()
    a: set[Triple] = set()
    b: set[Triple] = set()
    c: set[Triple] = set()
    for e in h._edges:
        x, y, z = e
        lx = link[x]
        least = min(len(lx[y]), len(lx[z]), len(link[y][z]))
        (a if least == 1 else b if least <= delta else c).add(e)
    return EdgePartition(delta, frozenset(a), frozenset(b), frozenset(c))


def link_graph(h: Hypergraph3, x: int, s: Iterable[int], y: int) -> Graph:
    """The graph with loops on S recording edges of h through x.

    For an edge {x, u, v}: a simple edge uv when both u, v are in S, and a
    loop at u (multiplicity-counted) when v is outside S and v != y.  Edges
    {x, u, y} contribute nothing.
    """
    h._check_pair(x, y)
    s_set = frozenset(s)
    if x in s_set or y in s_set:
        raise ValueError("S must avoid x and y")
    g = Graph(s_set)
    for u in s_set:
        for v in h.codegree_thirds(x, u):
            if v in s_set:
                if u < v:
                    g.add_edge(u, v)
            elif v != y:
                g.add_loop(u)
    return g


def neighborhoods(h: Hypergraph3, v: int) -> tuple[set[int], set[int]]:
    """Distance-1 and distance-2 vertex sets of v."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range")
    edges = h._edges
    n1: set[int] = set()
    for e in edges:
        if v in e:
            n1.update(e)
    n1.discard(v)
    n2: set[int] = set()
    for e in edges:
        if any(u in n1 for u in e):
            n2.update(e)
    n2 -= n1
    n2.discard(v)
    return n1, n2


def eu_vu(h: Hypergraph3, u: int, n1: set[int]) -> tuple[set[Triple], set[int]]:
    """Edges meeting N1(v) exactly in {u}, and the distance-2 vertices they
    cover; ``n1`` is N1(v), the first set of ``neighborhoods(h, v)``.

    Only u's link row is read: such an edge is {u, a, b} with partner a and
    third b both outside N1(v), so a partner in N1(v) is skipped with its
    whole third set.  Neither a nor b is v, whose edges lie inside
    N1(v) + v, and both share an edge with u, so both are at distance 2:
    V_u is every vertex of E_u other than u."""
    if u not in n1:
        raise ValueError(f"{u} is not a distance-1 neighbor")
    eu = {
        tuple(sorted((u, a, b)))
        for a, thirds in h._link.get(u, _NO_LINK).items()
        if a not in n1
        for b in thirds
        if a < b and b not in n1
    }
    vu = {w for e in eu for w in e if w != u}
    return eu, vu


# -- text format ----------------------------------------------------------
#
#   n m
#   a b c     (m lines, 0-based vertices; writer emits sorted order)


def dumps_hypergraph(h: Hypergraph3) -> str:
    lines = [f"{h.n} {h.edge_count}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in h.edges)
    return "\n".join(lines) + "\n"


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _all_ints(parts: list[str]) -> bool:
    # int() alone would also take 1_0, +2 and non-ASCII digits, which no writer emits
    return all(_INT_TOKEN.fullmatch(p) for p in parts)


def int_tokens(parts: list[str], line: str, lineno: int) -> tuple[int, ...]:
    """The integers (ASCII ``-?[0-9]+``) of one text line; FormatError names
    the line otherwise."""
    if not _all_ints(parts):
        raise FormatError(f"non-integer vertex in {line!r}", lineno)
    return tuple(int(p) for p in parts)


_EDGE_LINE = re.compile(r"\s*(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)\s*").fullmatch


def loads_hypergraph(text: str) -> Hypergraph3:
    """Read the ``n m`` format into a Hypergraph3 on n vertices.

    Lines are those of ``str.splitlines``, whitespace is what ``str.isspace``
    accepts (as ``\\s`` matches in a str pattern) and a vertex is an ASCII
    ``-?[0-9]+`` token.  Blank lines are skipped.  Every defect -- a missing,
    non-integer or negative header, a wrong token count, an edge that
    ``add_edge`` refuses, or an edge count other than m -- raises
    FormatError.  An edge line is read by one pattern match, and only a line
    it refuses is split into tokens, to name the defect.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}", 1)
    if not _all_ints(head):
        raise FormatError(f"non-integer header {lines[0]!r}", 1)
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise FormatError(f"negative count in header {lines[0]!r}", 1)
    h = Hypergraph3(n)
    seen = 0
    for i, line in enumerate(lines[1:], start=2):
        match = _EDGE_LINE(line)
        if match is None:
            if not line.strip():
                continue
            if len(line.split()) != 3:
                raise FormatError(f"edge line must have 3 vertices, got {line!r}", i)
            # the count is right, so the pattern refused some token
            raise FormatError(f"non-integer vertex in {line!r}", i)
        try:
            h.add_edge(map(int, match.groups()))
        except ValueError as exc:
            raise FormatError(str(exc), i) from None
        seen += 1
    if seen != m:
        raise FormatError(f"header promised {m} edges, found {seen}")
    return h


def write_hypergraph(h: Hypergraph3, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_hypergraph(h))


def read_hypergraph(path: str) -> Hypergraph3:
    with open(path, encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not ASCII text ({exc.reason} at byte {exc.start})") from None
    return loads_hypergraph(text)
