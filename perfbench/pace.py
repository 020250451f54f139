"""CPU time at a reference core speed.

The benchmark runs on shared hosts, where the speed of the core a
process gets drifts while it runs: on a shared 2-CPU x86_64 VM the same
RECON plan on the same market takes 0.72-1.05 CPU seconds from one run
to the next, and a fixed pure-Python loop timed back to back for a
minute spreads by a quarter of its median, in CPU time as much as in
wall time.  Differences of that size would swamp the changes the
benchmark exists to show.

So every time the benchmark reports is read on a :class:`PacedClock`.
While the clock runs, a profiling timer interrupts the program every
:data:`INTERVAL_S` of CPU time and times a fixed reference kernel.  The
clock counts the thread's CPU seconds (time spent descheduled is not
charged, nor is the kernel's own time) and scales each stretch between
two readings by how much faster or slower than nominal the kernel ran
over the last :data:`WINDOW` readings.  A change to the program moves
its CPU time and not the kernel's, so it shows in full; a slower or
faster core moves both, and the scale cancels it.  One paced second is
a CPU second of a core that runs the kernel in :data:`NOMINAL_S`.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import thread_time

#: CPU seconds between two kernel readings.
INTERVAL_S = 0.02
#: Readings the current speed is the median of.
WINDOW = 15
#: CPU seconds of one kernel run at reference speed, about its median
#: on a shared 2-CPU x86_64 VM; it sets the scale of every paced time.
NOMINAL_S = 0.0004


def _kernel() -> int:
    """A fixed stretch of interpreter work that allocates nothing the
    collector tracks, so the program's heap does not change its cost."""
    x = 0
    for i in range(4000):
        x = (x * 31 + i) % 1_000_003
    return x


def _reading() -> float:
    began = thread_time()
    _kernel()
    return thread_time() - began


class PacedClock:
    """Thread CPU seconds at reference speed, for one process.

    Use it as a context manager around the timed work; ``now()`` (or
    calling the clock) reads it.  It is a
    :class:`repro.resilience.clock.Clock` for ``ReplayDriver``'s
    ``cost_clock`` and a zero-argument clock for ``OnlineSimulator``.
    Only one may run at a time, in the main thread.
    """

    def __init__(self) -> None:
        self._readings: deque = deque(maxlen=WINDOW)
        self._scale = 1.0
        self._paced = 0.0
        self._mark = 0.0
        self._samples = 0
        self._previous = None

    def __enter__(self) -> "PacedClock":
        for _ in range(WINDOW):
            self._readings.append(_reading())
        self._scale = NOMINAL_S / statistics.median(self._readings)
        self._mark = thread_time()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        # Restart system calls the timer interrupts, C-level ones too.
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        began = thread_time()
        self._paced += (began - self._mark) * self._scale
        self._readings.append(_reading())
        self._scale = NOMINAL_S / statistics.median(self._readings)
        self._mark = thread_time()
        self._samples += 1

    @property
    def speed(self) -> float:
        """How many times faster than reference the core runs now."""
        return self._scale

    def now(self) -> float:
        # A reading runs between two bytecodes of the caller; if one
        # ran while this line was evaluated, evaluate it again.
        while True:
            samples = self._samples
            value = self._paced + (thread_time() - self._mark) * self._scale
            if samples == self._samples:
                return value

    def __call__(self) -> float:
        return self.now()

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError("a CPU-time clock cannot sleep")
