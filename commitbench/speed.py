"""A co-measured machine-speed reference for the benchmark's timings.

Shared virtual machines switch between speeds that differ by up to
1.8x, in states that last from under a second to a few minutes.  A run
that lands in a slow state reports slow timings although the program did
not change.  The benchmark therefore times a fixed reference
kernel — pure-Python tuple, dict and set work, the same kind of work the
engine does — next to the program, all through the run, and reports each
timing scaled to the machine speed at which the kernel takes
``NOMINAL_NS``::

    reported = measured * NOMINAL_NS / (kernel time around the measurement)

The kernel time around a measurement is the mean of two medians: of the
``NEAR_PROBES`` probes taken just before it and of those taken just after
it.  Both sides count because the speed can switch while a long
measurement runs.

The kernel does not touch the program, so a change that makes the
program slower or faster moves the reported timings as it moves the
measured ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter_ns

#: Kernel time, in ns, of the speed the reported timings are scaled to
#: (about the kernel's fastest time on a quiet 2-vCPU x86_64 VM).
NOMINAL_NS = 210_000
#: A probe keeps the fastest of this many back-to-back kernel runs, so an
#: interrupt in one of them does not count as a slow machine.
KERNEL_REPEATS = 3
#: Probes on each side of a measurement that its kernel time counts.
NEAR_PROBES = 3


def kernel():
    """Fixed interpreted work: build, probe and fold a small keyed table."""
    table = {}
    for i in range(600):
        key = (i % 37, i)
        table[key] = (key, i * 7 % 11)
    members = set()
    total = 0
    for i in range(600):
        row = table.get((i % 37, i))
        if row is not None and row[1] not in members:
            members.add(row[1])
        total += len(members)
    for key, (row_key, value) in table.items():
        if key == row_key:
            total += value
    return total


def time_kernel():
    best = None
    for _ in range(KERNEL_REPEATS):
        start = perf_counter_ns()
        kernel()
        elapsed = perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


class SpeedProbe:
    """Kernel timings taken through a run, each stamped with its time."""

    def __init__(self):
        self.stamps = []
        self.kernel_ns = []

    def probe(self, count=1):
        for _ in range(count):
            start = perf_counter_ns()
            self.kernel_ns.append(time_kernel())
            self.stamps.append((start + perf_counter_ns()) // 2)

    def kernel_around(self, start, end):
        """Kernel time around the interval from *start* to *end*."""
        first = bisect_left(self.stamps, start)
        last = bisect_right(self.stamps, end)
        before = self.kernel_ns[max(0, first - NEAR_PROBES):first]
        after = self.kernel_ns[last:last + NEAR_PROBES]
        sides = [median(side) for side in (before, after) if side]
        if not sides:
            raise ValueError("no speed probe before or after the interval")
        return sum(sides) / len(sides)

    def scale(self, ns, start, end):
        """*ns* measured between *start* and *end*, scaled to ``NOMINAL_NS``."""
        return ns * NOMINAL_NS / self.kernel_around(start, end)

    def scaled(self, start, elapsed):
        """*elapsed* ns measured from *start*, scaled to ``NOMINAL_NS``."""
        return self.scale(elapsed, start, start + elapsed)
