"""A fixed piece of work timed between operations, to scale out host speed.

The host this benchmark was built on runs the same code at 1.0 to 1.75
times its fastest time, in slow spells that last tens of seconds, and
process CPU time slows with wall time, so the spells are slower execution
on shared cores, not waiting for one. A run's timings then depend on when it
ran more than on the program. The yardstick is a fixed mix of the kinds of
work the program does (Python function calls and float arithmetic, dict
stores, small numpy calls, JSON encoding) that never touches
`lotterydesign`. Timed right before and after an operation, it says how fast
the host ran at that moment, and

    scaled seconds = measured seconds * REFERENCE_S / yardstick seconds

is the operation's time on a host that runs the yardstick in REFERENCE_S.
A change to the program moves the measured seconds and not the yardstick,
so it moves the scaled seconds by the same share.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import statistics
import time

import numpy as np

# The yardstick's time on the reference host (2-core Intel Xeon virtual
# machine, Python 3.11) when it runs at its fastest. Only the ratio matters:
# scaled times read as seconds on that host at that speed.
REFERENCE_S = 0.0045

_X = np.linspace(0.6, 3.0, 30)
_TABLEAU = np.random.default_rng(0).uniform(size=(150, 210))


def _step(i, s):
    return 0.5 * s + math.log1p(i) / (1.0 + abs(s))


def work() -> float:
    """One pass: about 5 ms at full speed, half of it on 150 x 210 arrays.

    Slow spells slow interpreted Python more than array arithmetic (about
    2.1x against 1.4x on the reference host), and the program's operations
    fall in between (1.4x to 1.6x), so the mix leans on arrays.
    """
    s = 0.0
    table = {}
    for i in range(6500):               # interpreted calls and float arithmetic
        s = _step(i, s)
        table[i & 63] = s
    for i in range(450):                # small numpy calls
        s += float(np.log1p(_X * (1.0 + i * 1e-6)).sum()) * 1e-3
    tableau = _TABLEAU.copy()           # pivot-like updates on a medium array
    for k in range(22):
        row = tableau[k] / (tableau[k, k] + 2.0)
        tableau -= np.outer(tableau[:, k], row) * 1e-3
        s += float(np.argmin(tableau[:, 0]))
    s += len(json.dumps({str(i): [i * 0.5, "label", {"k": i}] for i in range(1000)}))
    return s


class Yardstick:
    """Passes of the yardstick spread over a run, and the host speed they show.

    `catch_up` is called between operations and times one pass for every
    `every_s` that has gone by since the last pass (at most `most` at once),
    so passes keep pace with time, whatever the operations take. One 8 ms
    pass is itself jittery, so an operation is scaled by the median of the
    passes that started within `window_s` of it: the host's speed over a few
    seconds around the operation, which a slow spell of tens of seconds
    moves and a burst of a few milliseconds does not.
    """

    def __init__(self, every_s=0.2, window_s=0.3, most=4):
        self.every_s = every_s
        self.window_s = window_s
        self.most = most
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def measure_pass(self):
        # Collection is off during a pass, so its time does not grow with
        # the objects the program keeps alive.
        gc.disable()
        try:
            start = time.perf_counter()
            work()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(seconds)

    def catch_up(self):
        due = (time.perf_counter() - self.starts[-1]) / self.every_s if self.starts else 1
        for _ in range(min(self.most, int(due))):
            self.measure_pass()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured from `start` to `end`, scaled to the reference host."""
        lo = bisect.bisect_left(self.starts, start - self.window_s)
        hi = bisect.bisect_right(self.starts, end + self.window_s)
        return seconds * REFERENCE_S / statistics.median(self.seconds[lo:hi])
