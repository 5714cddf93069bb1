"""Host speed, measured beside the program, to steady the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed swings by
half or more in spells of seconds to minutes.  On a 2-vCPU VM, over 44
2 s windows of one process, the median time to ground a manifest case in
mode ``B`` ranged from 10.7 to 18.6 ms (interquartile spread 23% of the
median) and that of ``reference_work`` from 2.05 to 3.34 ms, while their
ratio had an interquartile spread of 6%.  So the benchmark runs
``reference_work`` between the program's calls, and reports every
end-to-end time in reference seconds: wall seconds, less those spent in
the loop, times ``REFERENCE_S`` over the loop's median time near the
interval.  A program that gets faster or slower moves these figures as
it moves wall time; a host that gets faster or slower hardly moves them.
Wall-clock figures stay in the benchmark's report line.

Training runs for seconds inside one call, so during set-up the loop
also runs between the training's objective evaluations (``every_call``).
Timings taken only at the ends of each training matched its speed worse
than none at all; timings spread through it halved the spread of eight
consecutive trainings.
"""

from __future__ import annotations

import itertools
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

# The loop's time on the host the constants were read on, in its fast
# spells: a time of x reference seconds is x wall seconds on such a host.
REFERENCE_S = 2.0e-3
# Loop timings this far before or after an interval set its speed.
NEAR_S = 1.0


def reference_work() -> int:
    """A fixed pure-Python loop: integer arithmetic and a small dict."""
    total = 0
    table = {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    return total


class Yardstick:
    """Loop timings, by start time, and the conversion they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # wall seconds spent in the loop so far

    def sample(self) -> None:
        started = perf_counter()
        reference_work()
        took = perf_counter() - started
        self.starts.append(started)
        self.took.append(took)
        self.spent += took

    @contextmanager
    def every_call(self, module, name: str, every: int):
        """Sample before every ``every``-th call of ``module.name``.

        Like the tracer, swaps the module-level name and puts it back; a
        name that is gone raises ``AttributeError``.
        """
        original = getattr(module, name)
        calls = itertools.count(1)

        def sampled(*args, **kwargs):
            if next(calls) % every == 0:
                self.sample()
            return original(*args, **kwargs)

        setattr(module, name, sampled)
        try:
            yield
        finally:
            setattr(module, name, original)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second near ``[start, end]``."""
        lo = bisect_left(self.starts, start - NEAR_S)
        hi = bisect_right(self.starts, end + NEAR_S)
        if lo == hi:
            raise RuntimeError("no loop timing near a timed interval")
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def seconds(self, start: float, end: float, in_loop: float = 0.0) -> float:
        """Reference seconds of the wall interval ``[start, end]``, of
        which ``in_loop`` seconds went to the loop."""
        return (end - start - in_loop) * self.scale(start, end)

    def summary(self) -> dict:
        return {"samples": len(self.took),
                "median_ms": statistics.median(self.took) * 1e3,
                "min_ms": min(self.took) * 1e3, "max_ms": max(self.took) * 1e3}
