"""Machine-speed calibration: divide the host's speed out of every timing.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, while the program is unchanged: medians of one run
then differ between runs by more than any regression worth catching.
The benchmark therefore times a fixed reference loop (the benchmark's
own code, mixing interpreter work and small NumPy calls in roughly the
program's proportions) interleaved with the timed operations, and
reports every time at the reference speed::

    reported = measured / factor,  factor = median(loop seconds) / NOMINAL_S

Per-insert probe latency measured raw varied 0.85-1.70 ms across one
minute while its ratio to the loop stayed within 2.31-2.72; complete
dblp joins varied 0.19-0.25 s raw and 4% after division.  A change to
the program moves the operations but not the loop, so a regression
still shows; the raw figures and the factor go to standard error.  A
change that slows the interpreter or NumPy themselves (a new Python, a
different NumPy build) slows the loop as well and is divided away.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Seconds the reference loop takes at the reference speed: its median
#: on the 2-core host the bounds were set on, in a quiet minute.  It is a
#: constant of that host.  On another machine, measure the loop's median
#: there (``machine.calib_ms`` of a traced run) and set this to it, or the
#: reported times are the measured ones times a fixed, wrong scale.
NOMINAL_S = 250e-6
#: One loop per this many seconds of timed work (about 2.5% extra).
EVERY_S = 0.01

_VALUES = np.arange(4096, dtype=np.int64)
_INDEX = (np.arange(64) * 61) % 4096


def reference_loop() -> int:
    """The fixed work whose duration measures the machine's speed."""
    counts: dict = {}
    total = 0
    for i in range(1000):
        key = (i * 7919) & 511
        counts[key] = counts.get(key, 0) + 1
        total += counts[key]
    for __ in range(40):
        total += int(np.bitwise_xor(_VALUES.take(_INDEX), 12345).sum() & 1)
    return total


class MachineSpeed:
    """Samples of the reference loop, taken between timed operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._owed = 0.0

    def sample(self, count: int = 1) -> None:
        """Time *count* loops now, with the collector off (the program's
        heap must not make the loop slower)."""
        gc.disable()
        try:
            for __ in range(count):
                begin = time.perf_counter()
                reference_loop()
                self.samples.append(time.perf_counter() - begin)
        finally:
            gc.enable()

    def after(self, seconds: float) -> None:
        """Record that *seconds* of timed work just ended."""
        self._owed += seconds
        count = int(self._owed / EVERY_S)
        if count:
            self._owed -= count * EVERY_S
            self.sample(count)

    def factor(self) -> float:
        """How much slower than the reference speed this run's machine was."""
        if not self.samples:
            self.sample(20)
        return statistics.median(self.samples) / NOMINAL_S
