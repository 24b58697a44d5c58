"""One set-up in a fresh interpreter, as a new process pays it.

    python3 bench/probe.py <workload> <seed> <workdir>

Imports trace_turan and its command line front end, generates the
workload's inputs and input files, and prints the seconds this took,
rescaled to a fixed host speed (see hostclock.py).  The clock starts before
the first import of the package, so every module it pulls in is paid for
here.  run.py starts this several times per run and reports the median as
``setup_s``.
"""

import os
import sys
import time

from hostclock import HostClock


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    bench = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench), "src"))
    with HostClock(interval=0.01, margin=0.05) as clock:
        time.sleep(clock.margin)  # references just before the set-up
        start = time.perf_counter()
        import trace_turan
        import trace_turan.cli  # noqa: F401  (the CLI jobs import it too)
        from pathlib import Path

        from workloads import WORKLOADS

        WORKLOADS[workload](trace_turan, seed, Path(workdir))
        end = time.perf_counter()
        time.sleep(clock.margin)  # and just after it
    print(clock.scaled(start, end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
