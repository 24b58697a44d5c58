"""trace-turan benchmark: one workload per run, closed loop, stdlib only.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

One process and one thread run the workload's jobs back to back (a pass),
pass after pass, at least two, until the next pass would end after
``--seconds``.  Every
output is checked after the last pass, outside the timed region.  The last
line of standard output is one JSON object:

* ``--trace 0``: end-to-end metrics (``wall_s``, ``setup_s``,
  ``peak_rss_mib``);
* ``--trace 1``: per-layer metrics from passes run with the tracer
  installed, alternating with untraced passes for the overhead ratio.

``attempted`` counts the jobs run and ``failed`` those that raised or whose
output failed its check.  Spans of the traced passes go to
``.bench_out/spans-<workload>.csv``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from hostclock import HostClock
from layers import METRICS, Pass, identity_gap, pass_metrics
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH.parent / ".bench_out"
SETUP_REPEATS = 7
# spans the children identity is checked from
IDENTITY_SPANS = {"search.turan_search", "canon.is_canonical", "hypergraph.add", "hypergraph.copy"}


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median seconds of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(wl, jobs, tracer: Tracer | None, first_job: int):
    """Run every job once; returns ((start, end) per job, outputs, errors)."""
    stamps, outputs, errors = {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for i, (name, job) in enumerate(jobs):
            if tracer is not None:
                tracer.job = first_job + i
            start = time.perf_counter()
            try:
                output = job()
            except Exception:  # a job that raises is a failed job, not a crash
                errors[name] = traceback.format_exc(limit=3)
                continue
            finally:
                stamps[name] = (start, time.perf_counter())
            outputs[name] = wl.collect(output)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return stamps, outputs, errors


def check(wl, name: str, outputs: dict, errors: dict) -> str | None:
    """Why the job failed, or None."""
    if name in errors:
        return errors[name]
    try:
        return wl.check(name, outputs[name], outputs)
    except Exception:  # a malformed output fails its job, it does not stop the run
        return "check raised: " + traceback.format_exc(limit=3)


def job_passes(spans, lo: int, hi: int, first_job: int, jobs) -> dict[str, Pass]:
    """A Pass over each job's spans within the traced pass spans[lo:hi]."""
    bounds: dict[int, list[int]] = {}  # job id -> [first span, last span + 1]
    for k in range(lo, hi):
        bounds.setdefault(spans[k][4], [k, k])[1] = k + 1
    return {
        name: Pass(spans, *bounds[first_job + i])
        for i, (name, _) in enumerate(jobs)
        if first_job + i in bounds
    }


def wall(times: dict[str, list[float]]) -> float:
    """Sum over jobs of each job's median time."""
    return sum(statistics.median(t) for t in times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trace_turan" / "__init__.py").is_file():
        print(f"no trace_turan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # every search runs cold, as for a user without a cache directory
    os.environ.pop("TRACE_TURAN_CACHE", None)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    print(json.dumps({"provenance": provenance}))

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = time_setup(args.workload, args.seed, workdir)
    import trace_turan
    import trace_turan.cli  # noqa: F401  (jobs reach it as trace_turan.cli)

    wl = WORKLOADS[args.workload](trace_turan, args.seed, workdir)
    jobs = wl.jobs()
    tracer = Tracer() if args.trace else None
    if tracer is not None and tracer.absent:
        print(f"absent bindings, their metrics are not reported: {tracer.absent}", file=sys.stderr)

    passes = []  # ((start, end) per job, outputs, errors, first job id, span range or None)
    deadline = time.perf_counter() + args.seconds
    modes = [False, True] if tracer else [False]
    with HostClock() as clock:
        while True:
            traced = modes[len(passes) % len(modes)]
            lo = len(tracer.spans) if tracer else 0
            started = time.perf_counter()
            first_job = len(passes) * len(jobs)
            stamps, outputs, errors = run_pass(wl, jobs, tracer if traced else None, first_job)
            span_range = (lo, len(tracer.spans)) if traced else None
            passes.append((stamps, outputs, errors, first_job, span_range))
            cost = time.perf_counter() - started
            if len(passes) >= 2 and time.perf_counter() + cost > deadline:
                break
    # the high-water mark of set-up and jobs, before any check runs
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # traced or not -> job -> seconds at the reference host speed
    times = {False: defaultdict(list), True: defaultdict(list)}
    for stamps, _, _, _, span_range in passes:
        for name, stamp in stamps.items():
            times[span_range is not None][name].append(clock.scaled(*stamp))

    wl.ground_truth()
    attempted = failed = 0
    for _, outputs, errors, first_job, span_range in passes:
        gaps = {}
        if span_range is not None and not IDENTITY_SPANS & set(tracer.absent):
            per_job = job_passes(tracer.spans, *span_range, first_job, jobs)
            gaps = {
                name: identity_gap(p) for name, p in per_job.items() if p.count("search.turan_search")
            }
        for name, _ in jobs:
            attempted += 1
            reason = check(wl, name, outputs, errors)
            if reason is None and gaps.get(name):
                reason = f"children identity: canon accepts in turan_search - recursed = {gaps[name]}"
            if reason is not None:
                failed += 1
                print(f"FAILED {name}: {reason}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_s": (wall(times[False]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        traced = [
            pass_metrics(Pass(tracer.spans, *span_range, sum(e - s for s, e in stamps.values())),
                         tracer.absent)
            for stamps, _, _, _, span_range in passes
            if span_range is not None
        ]
        metrics = {
            name: (statistics.median(p[name] for p in traced), METRICS[name][0]) for name in traced[0]
        }
        metrics["bench.trace_overhead_ratio"] = (wall(times[True]) / wall(times[False]) - 1, "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans-{args.workload}.csv", json.dumps(provenance))
        _, _, _, first_job, span_range = passes[1]  # the first traced pass
        for name, p in job_passes(tracer.spans, *span_range, first_job, jobs).items():
            counts = pass_metrics(p, tracer.absent)
            counts = {k: v for k, v in counts.items() if METRICS[k][0] == "count" and v}
            print(json.dumps({"job": name, **counts}))

    raw = defaultdict(list)
    for stamps, *_ in passes:
        for name, (start, end) in stamps.items():
            raw[name].append(round(end - start, 3))
    scaled = {name: [round(s, 3) for s in t] for name, t in times[False].items()}
    print(f"passes: {len(passes)}; wall seconds per job: {dict(raw)}; untraced, scaled: {scaled}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
