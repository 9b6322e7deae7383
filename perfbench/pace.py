"""The machine's speed, measured between operations by a fixed reference kernel.

On a shared host the speed of one core changes by up to a factor of two
within a minute, as other tenants come and go. Those swings move every timed
operation of a run, so the raw medians of two runs of the same code can differ
by more than any useful bound. The benchmark therefore runs a small kernel
that never changes (dict inserts and lookups over a working set of a few MB,
which tracked both the planner's and the estimator's swings best of the
kernels tried) after every operation, and reports each timing in *reference
seconds*:

    reported = wall time * REF_S / (median kernel time near that operation)

The speed also wanders from one fraction of a second to the next (kernel
timings 20 ms apart correlate at 0.7, 0.6 s apart hardly at all), so only the
kernel timings within ``NEAR_S`` of an operation's midpoint count for it.

``REF_S`` is the kernel's time on the reference machine when it is quiet, so
on that machine reported and wall times agree. A change to cutplan moves the
reported times exactly as it moves the wall times; the kernel is the
benchmark's own code and no cutplan call runs inside it.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.016     # the kernel's time on a quiet 2-core Xeon VM at 2.0 GHz
NEAR_S = 1.0      # kernel timings this close to an interval set its speed

_KEYS = [(i * 2654435761) % (1 << 32) for i in range(180000)]


def kernel() -> int:
    """The reference work: count 60000 scattered keys, then look up 60000
    keys of which a third are present."""
    counts: dict[int, int] = {}
    for k in _KEYS[:60000]:
        counts[k] = counts.get(k, 0) + 1
    return sum(counts.get(k, 0) for k in _KEYS[::3])


class Pace:
    """Kernel timings taken through a run, and the speed they give."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []   # (midpoint, kernel seconds)

    def tick(self) -> None:
        # bring the keys back into cache first: otherwise the kernel's time
        # would depend on how much memory the operation before it touched
        sum(_KEYS)
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.marks.append(((t0 + t1) / 2, t1 - t0))

    def ref_s(self) -> float:
        """Median kernel time of the run."""
        return statistics.median(r for _, r in self.marks)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start`` in reference seconds, by
        the median of the kernel timings within ``NEAR_S`` of the interval's
        midpoint, or of the nearest one if none is that close."""
        mid = start + seconds / 2
        near = [r for t, r in self.marks if abs(t - mid) <= NEAR_S]
        if not near:
            near = [min(self.marks, key=lambda m: abs(m[0] - mid))[1]]
        return seconds * REF_S / statistics.median(near)
