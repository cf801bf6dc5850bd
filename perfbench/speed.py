"""Machine-speed calibration for the timed metrics.

The shared machine the benchmark was tuned on (2 vCPUs of an Intel Xeon)
switches between speeds every few seconds: the same 24-task plan took
150 ms in one stretch and 230 ms in the next, and the throughput of
whole 25-second runs of one seed moved by 18%.  A fixed pure-Python
loop, timed just before and just after an op, follows those switches:
the ratio of a 24-task plan's time to the loop's time stayed within 1.5%
over 90 s, and for the same relay-busy plan run three times the spread
of that ratio was a third to a tenth of the spread of its wall time.
So op times are reported at a fixed machine speed:

    op ms = wall ms * REFERENCE_MS / (loop ms around the op)

where the loop time is the median of the three timings before the op
and the three after it, taken at most INTERVAL_S apart.  REFERENCE_MS is
the loop's usual time on that machine, so the values read as
milliseconds there.  The loop uses nothing from the package, so a change
to the package moves the reported times as it moves wall time at a
fixed speed.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_MS = 3.0
# recalibrate before an op once this much time has passed since the last loop
INTERVAL_S = 0.1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _term(p: _Point, x: float) -> float:
    return p.a * math.exp(-x) + p.b * math.log1p(x)


def reference_loop() -> float:
    """Interpreter work of the same kind as the solvers: calls, attributes, libm."""
    acc = 0.0
    p = _Point(0.5, 1.5)
    for i in range(6000):
        x = (i % 97) * 0.01 + 0.1
        acc += _term(p, x) / (x + 1.0)
    return acc


def loop_ms() -> float:
    start = time.perf_counter()
    reference_loop()
    return 1e3 * (time.perf_counter() - start)


class Tracker:
    """Loop timings taken between ops, to normalise the ops between them."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._last = -math.inf

    def before_op(self) -> int:
        """Time the loop if it is due; return the index of the latest timing."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.loops.append(loop_ms())
            self._last = time.perf_counter()
        return len(self.loops) - 1

    def close(self) -> None:
        """Time the loop a few more times, so every op has timings after it."""
        self.loops.extend(loop_ms() for _ in range(3))

    def op_ms(self, wall_ms: float, before: int) -> float:
        """An op's wall time scaled to the reference machine speed."""
        around = self.loops[max(0, before - 2) : before + 4]
        return wall_ms * REFERENCE_MS / statistics.median(around)
