"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

The machines this benchmark runs on are shared, and their speed for
dictionary- and object-heavy Python drifts by up to 2x over minutes while
a tight arithmetic loop barely moves.  The kernel here does the kind of
work the solver does -- longest-path relaxation over string-keyed dicts
with a deque worklist, plus a graph copy -- on a fixed graph, and shares
no code with the program, so a change to the program cannot move it.

``run.py`` divides every measured time by the run's median kernel time
over :data:`REFERENCE_MS` (and multiplies rates by it), which reports
times at the machine speed where the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

#: Kernel time, ms, on the machine the benchmark was defined on (Intel
#: Xeon, 2 vCPUs) in a quiet period; it only sets the scale.
REFERENCE_MS = 2.5


class Calibration:
    """The kernel and its samples for one process."""

    VERTICES = 300
    EDGES = 1200
    BATCHES = 4

    def __init__(self):
        rng = random.Random(2001)
        self.names = [f"task-{i:04d}" for i in range(self.VERTICES)]
        self.edges: "dict[tuple[str, str], list[int]]" = {}
        for _ in range(self.EDGES):
            a, b = sorted(rng.sample(range(self.VERTICES), 2))
            self.edges[(self.names[a], self.names[b])] = [rng.randint(1, 9)]
        self.extra = [(self.names[a], self.names[b], rng.randint(1, 9))
                      for a, b in (sorted(rng.sample(range(self.VERTICES), 2))
                                   for _ in range(self.BATCHES * 20))]
        self.samples: "list[float]" = []

    def _relax(self, edges) -> int:
        out: "dict[str, list]" = {}
        for (src, dst), entry in edges.items():
            out.setdefault(src, []).append((dst, entry[0]))
        dist = {name: 0 for name in self.names}
        queue = deque(self.names)
        queued = set(self.names)
        while queue:
            src = queue.popleft()
            queued.discard(src)
            base = dist[src]
            for dst, weight in out.get(src, ()):
                if base + weight > dist[dst]:
                    dist[dst] = base + weight
                    if dst not in queued:
                        queued.add(dst)
                        queue.append(dst)
        return max(dist.values())

    def kernel(self) -> int:
        """Copy the graph, add edges in batches, re-solve after each."""
        edges = {key: list(entry) for key, entry in self.edges.items()}
        total = 0
        for batch in range(self.BATCHES):
            for src, dst, weight in self.extra[batch * 20:(batch + 1) * 20]:
                edges[(src, dst)] = [weight]
            total += self._relax(edges)
        return total

    def sample(self) -> float:
        """Time one kernel run; returns and records milliseconds."""
        start = time.perf_counter()
        self.kernel()
        elapsed = 1e3 * (time.perf_counter() - start)
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """Median kernel time over :data:`REFERENCE_MS`."""
        return statistics.median(self.samples) / REFERENCE_MS
