"""Seconds at a fixed host speed, for hosts whose speed drifts.

On a shared virtual machine the same code can run up to twice as slowly for
seconds at a time, and the guest sees no steal time, so CPU time drifts as
much as wall time.  ``HostClock`` measures the host's speed while the jobs
run: a SIGALRM timer interrupts the process every ``interval`` seconds and
times a fixed loop of pure Python (the reference).  A span of wall time is
then rescaled to the speed at which the reference takes ``REFERENCE_S``:

    scaled = (wall - reference time inside the span) * REFERENCE_S / mean

where ``mean`` is the mean duration of the references timed inside the span
or within ``margin`` seconds of it.  Code that gets faster gives a smaller
scaled time in proportion; the host's drift cancels.  The process keeps
its one thread, and the references cost about 1% at a 50 ms interval.
This module imports nothing the library might need, so that a set-up timed
with it still pays for every module the library pulls in.
"""

from __future__ import annotations

import signal
import time

# about the reference's duration between jobs on a 2-vCPU x86-64 virtual
# machine with CPython 3.11, so that scaled seconds read close to wall seconds
REFERENCE_S = 0.0004


def _reference() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        total += len(str(i))
    return total


class HostClock:
    """Times the reference every ``interval`` seconds while entered."""

    def __init__(self, interval: float = 0.05, margin: float = 0.25):
        self.interval = interval
        self.margin = margin
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per reference
        self._busy = False
        self._saved = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a reference is dropped
            return
        self._busy = True
        start = time.perf_counter()
        _reference()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self) -> HostClock:
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``perf_counter`` readings) at
        the reference speed.  Call after the clock has exited."""
        inside = sum(s for t, s in self.samples if start <= t < end)
        near = [s for t, s in self.samples if start - self.margin <= t < end + self.margin]
        near = near or [s for _, s in self.samples]
        mean = sum(near) / len(near)
        return (end - start - inside) * REFERENCE_S / mean
