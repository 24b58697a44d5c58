"""The bench's output contract, from one short traced run of the search workload.

The bench reports through standard output: every line is a JSON object and
the last one is the result.  A run that exits 0 with any other last line
reports nothing, so this test runs ``bench/run.py`` as the bench driver
does and reads its output the same strict way.
"""

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


def test_traced_search_run_ends_with_a_result_line():
    done = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", "search", "--seed", "3",
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
    assert metrics["search.children"] == sum(metrics[k] for k in CHILD_OUTCOMES)

    jobs = [r for r in records if "job" in r and "search.children" in r]
    assert jobs
    for job in jobs:
        assert job["search.children"] == sum(job[k] for k in CHILD_OUTCOMES), job
