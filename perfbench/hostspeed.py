"""Host speed, timed with a fixed kernel that shares no code with the program.

The reference box is a shared VM.  Its speed drifts by up to 1.7x over
minutes as the host's other tenants come and go, so raw timings of the
same code move past any useful bound.  Each run therefore times
``Kernel.run`` before its set-ups and between its cycles, and reports
every time scaled by ``(REFERENCE_S / median(kernel times)) **
ELASTICITY``: the time the run would have taken on the reference box
at the speed where the kernel takes ``REFERENCE_S``.

The kernel mixes what the workloads do: an interpreted loop over a
dict, a breadth-first search over adjacency lists, many small NumPy
calls and a NumPy sort.  Over 12 minutes on the reference box, dividing
by it cut the variation of 30-second medians of solve and sweep cycle
times from 8% to 4% (coefficient of variation).  The kernel reacts
more strongly to the host than the workloads do: regressing the log of
their times on the log of its time gave slopes of 0.75 (solve-warm),
0.92 (sweep-cold) and about 0.8 (serve-mixed), hence ``ELASTICITY``.
It holds about a megabyte, so it barely moves the worker's peak memory.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

import numpy as np

#: Median kernel time on the reference box (2 vCPU Xeon VM), seconds.
REFERENCE_S = 0.020
#: How strongly the workloads' times follow the kernel's (see above).
ELASTICITY = 0.8
NODES = 3000


class Kernel:
    """The fixed kernel and the times it took in this process."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.adjacency = [[rng.randrange(NODES) for _ in range(6)] for _ in range(NODES)]
        self.vector = np.linspace(0.0, 1.0, 500)
        self.unsorted = np.random.default_rng(1).random(100_000)
        self.samples: List[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        table, total = {}, 0
        for i in range(40_000):
            total += i * i
            table[i & 511] = total
        for source in range(4):
            seen, frontier = {source}, [source]
            while frontier:
                reached = []
                for node in frontier:
                    for neighbour in self.adjacency[node]:
                        if neighbour not in seen:
                            seen.add(neighbour)
                            reached.append(neighbour)
                frontier = reached
        for _ in range(600):
            float((self.vector * 1.5 + 2.0).sum())
        for _ in range(3):
            np.sort(self.unsorted)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def sample(self, seconds: float) -> None:
        """Run the kernel at least once and for about ``seconds``."""
        spent = self.run()
        while spent < seconds:
            spent += self.run()


def factor(samples: List[float]) -> float:
    """Multiply a time by this to bring it to the reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** ELASTICITY
