"""The processor's speed, read around and inside operations, to scale the timings.

The CPUs of a shared host drift in speed by 10-30 % over stretches of
5-20 s, and at times by 2x (see README.md). Run-to-run medians of raw wall
times move with them, by more than a regression the benchmark is meant to
catch. So every timing is read next to a fixed reference task that never
calls lobexec, and scaled by how long that task took against its nominal
time:

    scaled = measured * NOMINAL / reference

A scaled time is the time the operation would have taken on the machine
at the speed it had when NOMINAL was fixed. Changing lobexec moves the
measured time and not the reference, so a change of the program shows in
full; a change of the machine's speed moves both and cancels. The raw
times are kept in the run record next to the scaled ones.

Two reference tasks, one for each kind of timing:

- In process (solve-small, solve-large, certify): `read_inprocess` times
  the impact cost of fixed schedules on the benchmark's own books
  (reference.py: pure Python and math, the same kind of work as
  lobexec's), three times, and keeps the fastest. A timer reads it every
  GAUGE_EVERY_S seconds, also in the middle of an operation: the speed
  switches between two levels 1.7x apart in stretches of 0.5-5 s, so a
  2-s operation needs readings inside it. Each operation's time leaves
  out the readings made inside it and is scaled by the mean of those
  readings and of the nearest one before and after it.
- A fresh interpreter (set-up time, the cli commands): `read_spawn` times
  a child that imports numpy and scipy.optimize, the libraries lobexec's
  import stands on, and exits. A reading follows each set-up probe, and
  the probes' median is scaled by the readings' median (a single reading
  jitters as much as a single probe); the cli commands are scaled like
  the in-process operations.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
from time import perf_counter

import reference as ref

# Nominal times of the two reference tasks: their medians on the
# 2-CPU x86-64 test machine (Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
# over several minutes. They are fixed; they only set the scale.
INPROCESS_NOMINAL_S = 0.65e-3
SPAWN_NOMINAL_S = 0.8
GAUGE_EVERY_S = 0.1          # in-process workloads
SPAWN_GAUGE_EVERY_S = 3.0    # cli: a reading costs about one command

SPAWN_REFERENCE = "import numpy, scipy.optimize"

_Q, _X0, _RHO = 5000.0, 1e5, 20.0
_BOOKS = [ref.RefBlock(_Q), ref.RefPower(_Q, -2.0), ref.RefPower(_Q, 0.5),
          ref.RefPower(_Q, 1.0), ref.RefSqrt(_Q, 1.0)]
_TASK = [(ref.Market(_X0, 1.0, 40, _RHO, model), book, [_X0 / 41] * 41)
         for book in _BOOKS for model in (1, 2)]


def _task() -> float:
    t0 = perf_counter()
    for market, book, trades in _TASK:
        ref.cost(market, book, trades)
    return perf_counter() - t0


def read_inprocess() -> float:
    """Seconds the in-process reference task takes now (fastest of three)."""
    return min(_task() for _ in range(3))


def read_spawn(env) -> float:
    """Seconds a fresh interpreter takes to import the reference libraries."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_REFERENCE], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Gauge:
    """Timed readings of one reference task, and the factors they give.

    A reading is kept with the time it ended; `spent` is the time taken
    by readings so far, so that a timing with readings inside it can
    leave them out.
    """

    def __init__(self, read, nominal):
        self._read, self.nominal = read, nominal
        self.readings = []   # (perf_counter at the end of the reading, seconds)
        self.spent = 0.0

    def read(self) -> None:
        t0 = perf_counter()
        value = self._read()
        t1 = perf_counter()
        self.readings.append((t1, value))
        self.spent += t1 - t0

    def since_last(self) -> float:
        return perf_counter() - self.readings[-1][0]

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL / the mean of the readings taken within [t0, t1] and of
        the nearest one before and after it."""
        times = [t for t, _ in self.readings]
        lo = max(bisect.bisect_left(times, t0) - 1, 0)
        hi = bisect.bisect_right(times, t1) + 1
        values = [v for _, v in self.readings[lo:hi]]
        return self.nominal / (sum(values) / len(values))


class Sampler:
    """Reads an in-process gauge every `every` seconds from a SIGALRM
    handler, while the block runs: between operations and inside long
    ones alike. The handler runs the reference task only; it touches no
    state of the program being measured."""

    def __init__(self, gauge: Gauge, every: float = GAUGE_EVERY_S):
        self.gauge, self.every = gauge, every
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:   # a late alarm does not nest in a reading
            self._busy = True
            try:
                self.gauge.read()
            finally:
                self._busy = False

    def __enter__(self):
        self.gauge.read()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self.gauge

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.gauge.read()
        return False
