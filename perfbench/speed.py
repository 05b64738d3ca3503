"""Machine-speed probe: times a fixed pure-Python loop while a workload runs.

On a shared host the CPU time a fixed Python loop takes drifts by 20-50%
within seconds to minutes (CPU time moves with wall time, so it is not time
spent off the CPU).  A raw 60 s run cannot average that out, so the
benchmark reports every time in *reference seconds*: the measured time
multiplied by ``REF_LOOP_S / t_loop``, where ``t_loop`` is the mean time of
``calibration_loop`` over the same interval, widened by ``NEAR_S`` on each
side.  A change to the program moves the measured time and not ``t_loop``;
a change in the machine's speed moves both.

The loop is the benchmark's own code, never the program's, and it does the
kinds of work the program does (dict and set updates, integer bit loops)
while creating almost no objects the garbage collector tracks, so that it
neither triggers collections of the program's heap nor pays for them.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# Seconds between probe runs while a workload runs; one run takes about 7 ms,
# so the probe costs about 5% of the window.  Set-up lasts only about 0.3 s
# and its speed swings within seconds, so the probe ticks faster there.  The
# probe's time is taken out of every measured interval.
TICK_S = 0.125
SETUP_TICK_S = 0.02

# An interval of the workload is scaled by the probe runs that started
# within this many seconds of it.  The machine's speed can change within
# seconds, and a 0.2 s instance spans only one or two ticks.  Of the widths
# tried (0.5 to 8 s, the whole pass and the whole run), 0.5 s gave the
# steadiest instance percentiles over five seeds of analyze-r2.
NEAR_S = 0.5

# A typical time of calibration_loop on the 2-core x86-64 VM (Python 3.11)
# the baseline was taken on.  It is only a unit: reported times are scaled
# by REF_LOOP_S / t_loop.
REF_LOOP_S = 0.006


def calibration_loop() -> int:
    d: dict[int, int] = {}
    s: set[int] = set()
    acc = 0
    for i in range(6000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        s.add(k * 16 + (i & 15))
        acc += len(s) & 7
    for m in range(1 << 12):
        while m:
            m &= m - 1
            acc += 1
    return acc


class SpeedProbe:
    """Runs ``calibration_loop`` every ``TICK_S`` seconds from SIGALRM.

    Python runs the handler in the main thread between bytecodes, so the
    probe interleaves with the workload's own code.  ``paused`` is the total
    time spent in the probe, which callers subtract from their intervals.
    """

    def __init__(self):
        self.stamps: list[float] = []   # perf_counter() at the start of each run
        self.samples: list[float] = []  # seconds each run took
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()
        took = time.perf_counter() - start
        self.stamps.append(start)
        self.samples.append(took)
        self.paused += took

    def sample(self) -> None:
        self._tick(None, None)

    def start(self, tick: float) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, tick, tick)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """REF_LOOP_S over the mean loop time of the runs that started within
        NEAR_S of [t0, t1]; if there is none, of the next run after it, or
        of the last run."""
        i = min(bisect.bisect_left(self.stamps, t0 - NEAR_S), len(self.stamps) - 1)
        j = max(bisect.bisect_right(self.stamps, t1 + NEAR_S), i + 1)
        return REF_LOOP_S / statistics.fmean(self.samples[i:j])
