"""Host-speed probe: scales measured seconds to one reference host speed.

On a shared host, other tenants slow CPU-bound Python by 20-45% in phases
that last seconds to minutes, so raw host seconds of one run mostly tell
which phase the run landed in. Every timed interval is therefore paired
with a probe: a fixed interpreter-bound loop of standard-library work
(float arithmetic, heap and dict operations) that shares no code with the
program. A mark is taken before the first interval, again whenever
``PROBE_EVERY_S`` seconds have passed, and after the last one. A mark is
the median of repeated probes, run for ``MARK_SHARE`` of the time since
the previous mark (at least ``MIN_PROBES`` probes), so a mark next to a
5 s interval watches the host for most of a second while marks between
short intervals stay cheap. Each interval is scaled by ``PROBE_REF_S``
over the mean of the marks around it. A change to the program moves its
intervals but not the probe; a slower host moves both.
"""

from __future__ import annotations

import heapq
import math
import time

#: probe seconds that define the reference host speed (about what the
#: probe takes on a 2-vCPU x86 VM in a quiet phase)
PROBE_REF_S = 0.025
#: longest stretch of timed intervals between two marks
PROBE_EVERY_S = 0.5
#: share of the time since the previous mark that a mark spends probing
MARK_SHARE = 0.15
MIN_PROBES = 3


def probe() -> float:
    """Seconds the fixed reference loop takes on this host right now."""
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, tuple[float, int]] = {}
    x = 0.5
    for i in range(20_000):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x, i))
        table[i & 1023] = (x, i)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


# The first run in a process pays for allocations later runs reuse.
probe()


class SpeedTrack:
    """Probes taken between the intervals of one timed sequence.

    ``expected_s`` stands in for the time since the previous mark when
    the first mark is taken.
    """

    def __init__(self, expected_s: float = 0.0) -> None:
        #: (index of the next interval, median probe seconds)
        self.marks: list[tuple[int, float]] = []
        self._expected = expected_s
        self._last = -math.inf

    def mark(self, index: int) -> None:
        now = time.perf_counter()
        since = now - self._last if self.marks else self._expected
        budget = MARK_SHARE * min(since, 10 * PROBE_EVERY_S)
        probes = [probe()]
        while len(probes) < MIN_PROBES or time.perf_counter() - now < budget:
            probes.append(probe())
        probes.sort()
        self.marks.append((index, probes[len(probes) // 2]))
        self._last = time.perf_counter()

    def before(self, index: int) -> None:
        """Call before interval ``index``; probes when one is due."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.mark(index)

    def scale(self, seconds: list[float]) -> list[float]:
        """Each interval in reference-host seconds.

        Needs a mark at or before index 0 and one at ``len(seconds)``.
        """
        out = []
        for i, t in enumerate(seconds):
            prev = [p for j, p in self.marks if j <= i][-1]
            nxt = next(p for j, p in self.marks if j > i)
            out.append(t * PROBE_REF_S / ((prev + nxt) / 2))
        return out

    @property
    def median_mark(self) -> float:
        return sorted(p for _, p in self.marks)[len(self.marks) // 2]
