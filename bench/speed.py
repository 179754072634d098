"""A speed probe that rescales measured time to a fixed core speed.

On a shared machine a busy neighbour can slow this process by 1.5x or more
for seconds at a time, and the slowdown comes and goes within one run.
While the probe runs, a SIGALRM handler times a fixed pure-Python kernel
every ``PERIOD`` seconds. ``normalized(a, b)`` splits [a, b] at the probes,
drops the probes' own time, and scales each stretch by
``REFERENCE_KERNEL_S`` over the kernel's time at that stretch (the median
of the three nearest probes). The result is the time [a, b] would have
taken on a core that runs the kernel in ``REFERENCE_KERNEL_S``, about its
warm time on a quiet CPU of the 2-vCPU x86-64 machine (CPython 3.11) this
benchmark was tuned on. A fixed reference rather than one taken from each
run keeps the run's own share of slow stretches out of the result. The
probe imports nothing but the standard library, so it can start before
numpy.
"""

import bisect
import os
import signal
import statistics
from time import perf_counter

PERIOD = 0.1
REFERENCE_KERNEL_S = 0.16e-3


# The kernel does in miniature what the workloads spend their time on:
# 64-bit integer mixing and list swaps (sampling), set inserts, a
# breadth-first search over adjacency lists (flows), and scattered reads
# over 2 MiB, so it slows both when a neighbour takes the core and when it
# takes the caches.
_MASK64 = (1 << 64) - 1
_BUFFER = bytearray(range(256)) * (1 << 13)
_SCATTER = [(i * 40503) % len(_BUFFER) for i in range(1000)]
_ADJ = [[(u * 7 + k) % 200 for k in range(4)] for u in range(200)]


def _kernel():
    state = 0
    items = list(range(200))
    seen = set()
    for i in range(199, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        j = (z ^ (z >> 31)) % (i + 1)
        items[i], items[j] = items[j], items[i]
        seen.add((i, items[i]))
    level = [-1] * len(_ADJ)
    level[0] = 0
    queue = [0]
    for u in queue:
        for w in _ADJ[u]:
            if level[w] < 0:
                level[w] = level[u] + 1
                queue.append(w)
    total = 0
    for j in _SCATTER:
        total += _BUFFER[j]
    return total


def pin_to_fastest_cpu(samples=40):
    """Pin this process to the allowed CPU that runs the kernel fastest now.

    A neighbour's load usually sits on one CPU of the pair, so this moves
    the run off it; the probe then corrects for what changes later.
    """
    timings = []
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        runs = []
        for _ in range(samples):
            t0 = perf_counter()
            _kernel()
            runs.append(perf_counter() - t0)
        timings.append((statistics.median(runs), cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, *_signal_args):
        # The first run brings the kernel's data back into cache after the
        # interrupted work evicted it; only the second, warm run is timed,
        # as the workloads' own data is cache-resident.
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        _kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t1)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slow_share(self):
        """Share of probes more than 20% slower than the reference."""
        return sum(1 for d in self.durations if d > 1.2 * REFERENCE_KERNEL_S) / len(
            self.durations
        )

    def _local(self, k):
        lo = max(0, k - 1)
        return statistics.median(self.durations[lo:k + 2])

    def normalized(self, a, b):
        first = bisect.bisect_right(self.starts, a)
        last = bisect.bisect_left(self.starts, b)
        edges = [a] + self.starts[first:last] + [b]
        total = 0.0
        for i in range(len(edges) - 1):
            # Stretch i > 0 starts with probe first+i-1, whose own time is
            # dropped; stretch 0 takes its speed from the probe before a.
            k = max(first + i - 1, 0)
            raw = edges[i + 1] - edges[i]
            if i > 0:
                raw -= 2 * self.durations[k]
            total += raw * REFERENCE_KERNEL_S / self._local(k)
        return total
