"""Host-speed calibration for the benchmark's end-to-end times.

On a shared 2-vCPU virtual machine the same interpreter code ran up to 1.8x
slower for tens of seconds at a time. `kernel` is a fixed piece of
pure-Python work with the profile of a normal form (list scans that
intersect small frozensets) plus a small tuple-keyed breadth-first search; it
calls nothing in the library, so no change to the library can move it. Each
time the benchmark reports is scaled by REFERENCE_S / (the kernel's median
time measured alongside it): seconds on a host where the kernel takes
REFERENCE_S.

Measured effect: over five runs on identical input the scaled median and
90th-percentile stream latency spanned 8 % and 1 % of their medians, the raw
ones 37 % and 25 %. Between two sets of runs 20 minutes apart the kernel
slowed 1.7x, the raw learn-paths-fork batch 1.4x and the raw stream 1.7x;
scaled, the batch moved by -15 % and the stream by under 2 %. The learners
track the kernel less closely than normal forms do, so `wall_s` keeps part
of the host's swing.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

# kernel time at which scaled latencies equal raw ones, about its median on
# the machine the baseline was measured on
REFERENCE_S = 0.0015


def kernel() -> float:
    """Seconds taken by one pass of the fixed calibration work."""
    start = perf_counter()
    doms = [frozenset({i % 5, (i * 3) % 5}) for i in range(40)]
    rest = list(range(40))
    while rest:
        best = None
        for i, a in enumerate(rest):
            if all(not (doms[rest[j]] & doms[a]) for j in range(i)):
                if best is None or a < rest[best]:
                    best = i
        rest.pop(best)
    names = ("n0", "n1", "n2")
    first = ("n0",) * 5
    seen = {first}
    queue = deque([first])
    while queue:
        conf = queue.popleft()
        for i in range(5):
            nxt = conf[:i] + (names[(names.index(conf[i]) + 1) % 3],) + conf[i + 1:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return perf_counter() - start
