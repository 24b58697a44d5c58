"""The bench's output contract, from short traced runs of the search,
detect and construct workloads, and the library bindings its tracer wraps.

The bench reports through standard output: every line is a JSON object and
the last one is the result.  A run that exits 0 with any other last line
reports nothing, so these tests run ``bench/run.py`` as the bench driver
does and read its output the same strict way.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
CHILD_OUTCOMES = ("search.trace_rejects", "search.noncanon_rejects", "search.recursed")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _is_finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _traced_run(workload):
    """The records of one short traced bench run, read strictly, and the
    metrics of its last line, which must be a correct result."""
    done = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines
    records = [json.loads(line, parse_constant=_reject_constant) for line in lines]

    result = records[-1]
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics
    assert all(_is_finite_number(v) for v in metrics.values()), metrics
    return records, metrics


def test_tracer_finds_every_binding_it_wraps(monkeypatch):
    # a wrapped binding the library renames or drops is left out of the
    # trace, and the per-layer metrics read from it vanish with it:
    # canon.s, for one, needs both canon.is_canonical and canon.form
    import trace_turan  # noqa: F401
    import trace_turan.cli  # noqa: F401

    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_RUN.parent / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == []


def test_traced_search_run_ends_with_a_result_line():
    records, metrics = _traced_run("search")
    assert metrics["search.children"] == sum(metrics[k] for k in CHILD_OUTCOMES)

    jobs = [r for r in records if "job" in r and "search.children" in r]
    assert jobs
    for job in jobs:
        # a job line leaves out its zero counts
        assert job["search.children"] == sum(job.get(k, 0) for k in CHILD_OUTCOMES), job


def test_traced_detect_run_ends_with_a_result_line():
    # the bench wraps trace_turan.cli.contains_trace as traces.detect; a
    # count of 0 would mean the check command no longer goes through it
    _, metrics = _traced_run("detect")
    assert metrics["traces.detect_calls"] > 0


def test_traced_construct_run_ends_with_a_result_line():
    # the incremental check only reads the hypergraph, so the greedy run
    # adds just the edges it keeps and removes none; it keeps some triples
    # but not all
    _, metrics = _traced_run("construct")
    assert metrics["traces.incremental_calls"] > 0
    assert metrics["hypergraph.remove_calls"] == 0
    kept = metrics["constructions.kept_ratio"] * metrics["traces.incremental_calls"]
    assert metrics["hypergraph.add_calls"] == round(kept)
    assert 0 < metrics["constructions.kept_ratio"] < 1
