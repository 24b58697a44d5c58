"""Per-layer metrics derived from the spans of one traced pass.

Every ``*_s`` metric is self time: the seconds a layer's spans spent outside
the wrapped spans they called.  The exception is ``search.other_s``, which
is ``turan_search`` time minus the canonical-labelling time inside it.  A
ratio whose base is 0 is reported as 0.

Each metric is one function of a ``Pass``.  The span names a metric reads
are recorded while it is computed, so a metric that reads a span whose
binding is absent is left out without a table of its dependencies.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times


class Pass:
    """Calls, self times and outcomes per span name, for spans[lo:hi]."""

    def __init__(self, spans: list[list], lo: int, hi: int, wall_s: float = 0.0):
        own = self_times(spans, lo, hi)
        self.wall_s = wall_s
        self.self_s = sum(own)
        self.read: set[str] = set()
        self._calls: dict[str, int] = defaultdict(int)
        self._secs: dict[str, float] = defaultdict(float)
        self._inclusive: dict[str, float] = defaultdict(float)
        self._outcomes: dict[str, list] = defaultdict(list)
        # (parent span name, span name) -> [(self seconds, outcome)]
        self._direct: dict[tuple, list] = defaultdict(list)
        for i, (name, start, end, parent, _job, outcome) in enumerate(spans[lo:hi]):
            self._calls[name] += 1
            self._secs[name] += own[i]
            self._inclusive[name] += (end - start) / 1e9
            if outcome is not None:
                self._outcomes[name].append(outcome)
            if parent >= lo:
                self._direct[(spans[parent][0], name)].append((own[i], outcome))

    def count(self, *names: str) -> int:
        self.read.update(names)
        return sum(self._calls[n] for n in names)

    def total(self, *names: str) -> float:
        self.read.update(names)
        return sum(self._secs[n] for n in names)

    def inclusive(self, name: str) -> float:
        self.read.add(name)
        return self._inclusive[name]

    def outcomes(self, name: str) -> list:
        self.read.add(name)
        return self._outcomes[name]

    def direct(self, parent: str, name: str) -> list[tuple[float, object]]:
        """(self seconds, outcome) of each ``name`` span opened by a ``parent`` span."""
        self.read.update((parent, name))
        return self._direct[(parent, name)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _children(p: Pass) -> int:
    """Children tried by turan_search: the add_edge calls it makes itself.

    Witness copies call add_edge inside ``copy``, so copy must be wrapped for
    them to be told apart.
    """
    p.count("hypergraph.copy")
    return len(p.direct("search.turan_search", "hypergraph.add"))


def _search_canon(p: Pass) -> list:
    return p.direct("search.turan_search", "canon.is_canonical")


def _recursed(p: Pass) -> int:
    return sum(p.outcomes("search.turan_search")) - p.count("search.turan_search")


def _trace_rejects(p: Pass) -> int:
    return _children(p) - len(_search_canon(p))


def _noncanon_rejects(p: Pass) -> int:
    return sum(1 for _, accepted in _search_canon(p) if not accepted)


def _report_totals(p: Pass) -> tuple[int, int]:
    reports = p.outcomes("lemma_checks.report")
    return sum(v for v, _ in reports), sum(nv for _, nv in reports)


def identity_gap(p: Pass) -> int:
    """Canon accepts made by turan_search minus its recursions.

    The children identity, children = trace rejects + non-canonical rejects
    + recursed, holds exactly when this is 0.
    """
    accepts = sum(1 for _, accepted in _search_canon(p) if accepted)
    return accepts - _recursed(p)


# name -> (unit, function of a Pass)
METRICS = {
    "canon.calls": ("count", lambda p: p.count("canon.is_canonical")),
    "canon.accepts": ("count", lambda p: sum(p.outcomes("canon.is_canonical"))),
    "canon.s": ("s", lambda p: p.total("canon.is_canonical", "canon.form")),
    "canon.accept_ratio": ("ratio", lambda p: _ratio(
        sum(p.outcomes("canon.is_canonical")), p.count("canon.is_canonical"))),
    "canon.form_calls": ("count", lambda p: p.count("canon.form")),
    "canon.form_s": ("s", lambda p: p.total("canon.form")),
    "search.nodes": ("count", lambda p: sum(p.outcomes("search.turan_search"))),
    "search.children": ("count", _children),
    "search.trace_rejects": ("count", _trace_rejects),
    "search.noncanon_rejects": ("count", _noncanon_rejects),
    "search.recursed": ("count", _recursed),
    "search.trace_reject_ratio": ("ratio", lambda p: _ratio(_trace_rejects(p), _children(p))),
    "search.noncanon_reject_ratio": ("ratio", lambda p: _ratio(_noncanon_rejects(p), _children(p))),
    "search.other_s": ("s", lambda p: p.inclusive("search.turan_search")
                       - sum(s for s, _ in _search_canon(p))),
    "search.oracle_nodes": ("count", lambda p: sum(p.outcomes("search.turan_oracle"))),
    "search.oracle_s": ("s", lambda p: p.total("search.turan_oracle")),
    "traces.detect_calls": ("count", lambda p: p.count("traces.detect")),
    "traces.detect_s": ("s", lambda p: p.total("traces.detect")),
    "traces.incremental_calls": ("count", lambda p: p.count("traces.incremental")),
    "traces.incremental_s": ("s", lambda p: p.total("traces.incremental")),
    "traces.incremental_reject_ratio": ("ratio", lambda p: _ratio(
        sum(p.outcomes("traces.incremental")), p.count("traces.incremental"))),
    "hypergraph.add_calls": ("count", lambda p: p.count("hypergraph.add")),
    "hypergraph.remove_calls": ("count", lambda p: p.count("hypergraph.remove")),
    "hypergraph.mutation_s": ("s", lambda p: p.total(
        "hypergraph.add", "hypergraph.remove", "hypergraph.copy")),
    "hypergraph.shell_calls": ("count", lambda p: p.count("hypergraph.neighborhoods", "hypergraph.eu_vu")),
    "hypergraph.shell_s": ("s", lambda p: p.total("hypergraph.neighborhoods", "hypergraph.eu_vu")),
    "hypergraph.partition_s": ("s", lambda p: p.total("hypergraph.partition")),
    "hypergraph.link_graph_s": ("s", lambda p: p.total("hypergraph.link_graph")),
    "lemma_checks.report_s": ("s", lambda p: p.total("lemma_checks.report")),
    "lemma_checks.violations": ("count", lambda p: _report_totals(p)[0]),
    "lemma_checks.nonvacuous": ("count", lambda p: _report_totals(p)[1]),
    "lemma_checks.fallback_calls": ("count", lambda p: p.count("lemma_checks.fallback")),
    "lemma_checks.fallback_s": ("s", lambda p: p.total("lemma_checks.fallback")),
    "lemma_checks.fallback_share": ("ratio", lambda p: _ratio(
        p.count("lemma_checks.fallback"), _report_totals(p)[0])),
    "dominated.calls": ("count", lambda p: p.count("dominated.pair_min1", "dominated.simultaneous")),
    "dominated.s": ("s", lambda p: p.total("dominated.pair_min1", "dominated.simultaneous")),
    "constructions.greedy_s": ("s", lambda p: p.total("constructions.greedy")),
    "constructions.kept_ratio": ("ratio", lambda p: _ratio(
        len(p.direct("constructions.greedy", "hypergraph.add")), p.count("traces.incremental"))),
    "cli.io_s": ("s", lambda p: p.total("cli.read", "cli.emit")),
    "cli.other_s": ("s", lambda p: p.total("cli.main")),
    "bench.traced_wall_s": ("s", lambda p: p.wall_s),
    "bench.unattributed_s": ("s", lambda p: p.wall_s - p.self_s),
}


def pass_metrics(p: Pass, absent: list[str]) -> dict[str, float]:
    """Every metric in METRICS that reads no absent span."""
    out = {}
    for name, (_, fn) in METRICS.items():
        p.read.clear()
        value = fn(p)
        if not p.read & set(absent):
            out[name] = value
    return out
