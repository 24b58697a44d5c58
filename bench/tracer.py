"""Spans and counts recorded around trace_turan's module bindings.

The benchmark never edits the library: it replaces a binding (a function
imported into a module, or a method on ``Hypergraph3``) with a wrapper that
records one span per call, and puts the original back afterwards.  A span is
``[name, start_ns, end_ns, parent, job, outcome]`` where ``parent`` indexes
the enclosing span (-1 at top level) and ``outcome`` is a small summary of
the return value (a node count, found or not, ...).

Only the binding named in a spec is wrapped.  ``from .traces import
contains_trace`` copies the function into the importing module, so the same
function reached through two modules is two layers here (``traces.detect``
from the CLI, ``lemma_checks.fallback`` from the check suite).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _found(result) -> bool:
    return result is not None


def _nodes(result) -> int:
    return result.nodes_explored


def _report_summary(report) -> tuple[int, int]:
    violations = sum(len(status.violations) for status in report)
    nonvacuous = sum(1 for status in report if status.status != "vacuous")
    return violations, nonvacuous


@dataclass(frozen=True)
class Spec:
    span: str  # span name; its prefix before the first dot is the layer
    owner: str  # dotted module path, optionally followed by ":Class"
    attr: str
    outcome: Callable | None = None


SPECS = (
    Spec("canon.is_canonical", "trace_turan.search", "is_canonical_labeling", bool),
    Spec("canon.form", "trace_turan.search", "canonical_form"),
    Spec("search.turan_search", "trace_turan.search", "turan_search", _nodes),
    Spec("search.turan_oracle", "trace_turan.search", "turan_oracle", _nodes),
    Spec("traces.detect", "trace_turan.cli", "contains_trace", _found),
    Spec("traces.incremental", "trace_turan.constructions", "incremental_trace_check", _found),
    Spec("hypergraph.add", "trace_turan.hypergraph:Hypergraph3", "add_edge"),
    Spec("hypergraph.remove", "trace_turan.hypergraph:Hypergraph3", "remove_edge"),
    Spec("hypergraph.copy", "trace_turan.hypergraph:Hypergraph3", "copy"),
    Spec("hypergraph.neighborhoods", "trace_turan.lemma_checks", "neighborhoods"),
    Spec("hypergraph.eu_vu", "trace_turan.lemma_checks", "eu_vu"),
    Spec("hypergraph.partition", "trace_turan.lemma_checks", "partition_edges"),
    Spec("hypergraph.link_graph", "trace_turan.lemma_checks", "link_graph"),
    Spec("lemma_checks.report", "trace_turan.cli", "lemma_status_report", _report_summary),
    Spec("lemma_checks.fallback", "trace_turan.lemma_checks", "contains_trace", _found),
    Spec("dominated.pair_min1", "trace_turan.lemma_checks", "dominated_pair_min1"),
    Spec("dominated.simultaneous", "trace_turan.lemma_checks", "simultaneous_dominated_min_degree"),
    Spec("constructions.greedy", "trace_turan.constructions", "greedy_lower_bound"),
    Spec("cli.main", "trace_turan.cli", "main"),
    Spec("cli.read", "trace_turan.cli", "read_hypergraph"),
    Spec("cli.emit", "trace_turan.cli", "_emit"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules.get(module_name)
    if obj is not None and class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Records spans while installed; ``job`` tags every span it opens."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.spans: list[list] = []
        self.job = -1
        self.absent = sorted(
            s.span for s in specs if not hasattr(_resolve(s.owner) or object(), s.attr)
        )
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, outcome):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if outcome is not None:
                try:
                    rec[5] = outcome(result)
                except (AttributeError, TypeError):  # result changed shape; leave it out
                    pass
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        for spec in self.specs:
            if spec.span in self.absent:
                continue
            owner = _resolve(spec.owner)
            original = getattr(owner, spec.attr)
            self._saved.append((owner, spec.attr, original))
            setattr(owner, spec.attr, self._wrap(spec.span, original, spec.outcome))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path, header: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {header}\n")
            fh.write("span,parent,job,name,start_ns,end_ns,outcome\n")
            for i, (name, start, end, parent, job, outcome) in enumerate(self.spans):
                out = "" if outcome is None else str(outcome).replace(",", ";")
                fh.write(f"{i},{parent},{job},{name},{start},{end},{out}\n")


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Seconds each span in spans[lo:hi] spent outside its child spans."""
    child = [0] * (hi - lo)
    for name, start, end, parent, job, outcome in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    return [(spans[lo + i][2] - spans[lo + i][1] - child[i]) / 1e9 for i in range(hi - lo)]
