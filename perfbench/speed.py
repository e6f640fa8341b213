"""Host-speed probe: CPU times rescaled to one reference speed.

On a shared host the CPU time of fixed work swings by half within seconds
as other guests load the machine, and a single-threaded pass of fixed work
took 3.6 s in one minute and 7.2 s in another.  A fixed unit of reference
work (Python float arithmetic of the kind rotheta's first integrals do),
run every PERIOD_S of wall time while the measured work runs, sees the
same swings.  `Probe.scale` turns a measured CPU time, minus the probe's
own, into CPU seconds at the speed at which the unit takes UNIT_S: the
measured time times UNIT_S over the unit's mean CPU time during the work.

The probe runs from SIGALRM, so in the main thread between bytecodes; while
it runs, the work in other threads waits for the interpreter lock.  It costs
about 3 % of the measured time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.05
UNIT_S = 0.001      # the unit's CPU time on the 2-vCPU Xeon host of baseline.json, idle
UNIT_STEPS = 2000
MIN_UNITS = 10      # units run after the work when it ended too soon for these


def _level(x, y):
    w = x - 2.0
    acc = 0.0
    for c in (0.013, -0.21, 0.5, 0.37, -1.1):
        acc = acc * w + c
    return acc + 0.25 * math.log(abs(w)) + y * y / (w * w)


def unit():
    """CPU seconds of this thread for one unit of reference work."""
    c0 = time.thread_time()
    acc = 0.0
    for j in range(UNIT_STEPS):
        acc += _level(1.0 + j * 1e-5, 0.5)
    spent = time.thread_time() - c0
    if not math.isfinite(acc):
        raise RuntimeError("reference work gave a non-finite sum")
    return spent


class Probe:
    """`with Probe() as probe:` runs `unit` every PERIOD_S until the block ends."""

    def __init__(self):
        self.units = []
        self.warm_up_s = 0.0
        self._old = None

    def _tick(self, _signum, _frame):
        self.units.append(unit())

    def __enter__(self):
        # a fresh interpreter runs the unit's first pass slowly, before it
        # has specialised its bytecode; that pass is not a speed sample
        self.warm_up_s = unit()
        self.units = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.units) < MIN_UNITS:
            self.units.append(unit())
        return False

    @property
    def spent(self):
        """CPU seconds the probe itself used."""
        return self.warm_up_s + sum(self.units)

    @property
    def unit_s(self):
        """Mean CPU seconds of a unit while the block ran."""
        return statistics.mean(self.units)

    def scale(self, cpu_s):
        """`cpu_s` of work measured around this block (probe included), as
        CPU seconds at the reference speed."""
        return (cpu_s - self.spent) * UNIT_S / self.unit_s
