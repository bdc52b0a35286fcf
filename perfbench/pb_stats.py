"""Summary statistics and process accounting for the benchmark."""

from __future__ import annotations

import math
import random
import resource
import time

#: the percentiles a tail is reported at, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile must leave at least this many samples above it
TAIL_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(samples, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """The highest ladder percentile with at least ``beyond`` samples
    strictly above it, as ``(p, value)``; None when even the lowest
    rung leaves fewer than ``beyond`` samples above it."""
    xs = sorted(samples)
    best = None
    for p in ladder:
        value = percentile(xs, p)
        if sum(1 for x in xs if x > value) >= beyond:
            best = (p, value)
    return best


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest reaped child's
    maximum resident set size (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: the host speed, in calibration rounds per second, that times are
#: scaled to: a time reported as 1 s took 1 s on a host doing this many
#: rounds per second.  Runs on the 2-core container this benchmark was
#: defined on measured between about 580 and 850.
REFERENCE_ROUNDS_PER_S = 1000.0


class HostSpeed:
    """How fast the host runs plain Python right now: rounds per second
    of a fixed breadth-first search over a seeded random graph, sampled
    in short slices between the operations a run times.  The search
    uses only the standard library, so no change to ``repro`` moves
    it."""

    NODES = 4096
    #: seconds per slice, and the least seconds from one slice to the next
    SLICE = 0.1
    EVERY = 2.0

    def __init__(self) -> None:
        rng = random.Random(1)
        self.graph = [
            tuple(rng.randrange(self.NODES) for _ in range(3))
            for _ in range(self.NODES)
        ]
        self.rounds = 0
        self.seconds = 0.0
        #: CPU the slices took on the calling thread
        self.cpu_seconds = 0.0
        self.last = None

    def _round(self) -> int:
        graph = self.graph
        depth = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        return len(depth)

    def tick(self) -> None:
        """Take a slice, unless the last one ended under :attr:`EVERY`
        seconds ago."""
        start = time.perf_counter()
        if self.last is not None and start - self.last < self.EVERY:
            return
        cpu = time.thread_time()
        now = start
        while now < start + self.SLICE:
            self._round()
            self.rounds += 1
            now = time.perf_counter()
        self.seconds += now - start
        self.cpu_seconds += time.thread_time() - cpu
        self.last = now

    def rounds_per_s(self) -> float:
        """The mean over every slice taken."""
        return self.rounds / self.seconds

    def to_reference(self, seconds: float) -> float:
        """``seconds`` taken at the sampled speed, scaled to
        :data:`REFERENCE_ROUNDS_PER_S`."""
        return seconds * self.rounds_per_s() / REFERENCE_ROUNDS_PER_S
