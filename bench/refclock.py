"""Round time in units of a fixed reference probe, so host speed drift cancels.

On a shared host the same call runs up to half again slower for seconds at a
time, in CPU time as much as in wall time, so the cause is the hardware the
vCPU shares and not scheduling.  A fixed piece of work, the probe, slows by
nearly the same factor at the same moment.  While a round runs, ``RefClock``
interrupts it every ``PROBE_GAP_S`` with SIGALRM and runs the probe from the
signal handler, inside the program's own calls as well as between them.
Each stretch of work between two probes is divided by the mean duration of
those two probes; the sum is the round's time in probe units ("ref").  A
change to the program moves it as it moves seconds, while drift of the host
mostly does not.  Probe time is never counted as work.

The probe mixes interpreted Python (dict and integer arithmetic), numpy calls
on tiny arrays and complex arithmetic on a 256 KiB array, the kinds of work
qubuslab does.  It touches no qubuslab code and draws no random numbers, so
no change to the program changes the unit or the program's outputs.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_GAP_S = 0.05

_TINY = np.arange(16.0)
_MEDIUM = np.linspace(0.0, 1.0, 1 << 14) + 1j


def probe() -> None:
    """A fixed amount of work, about 2 ms on a 2-vCPU Xeon."""
    total, table = 0, {}
    for i in range(6000):
        total += i * i % 7
        table[i & 255] = total
    y = _TINY
    for _ in range(200):
        y = np.abs(y * 0.5 + _TINY)
        y.sum()
    np.abs(np.exp(_MEDIUM * 0.1) * _MEDIUM).sum()


class RefClock:
    """One round's work in seconds (``raw_s``) and in probe units (``ref``).

    ``start()`` probes and starts the timer, ``stop()`` stops it and probes
    once more; ``probe_s`` is the probe time so far, which callers timing
    an operation subtract.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._end = 0.0  # perf_counter when the last probe ended
        self._last = 0.0  # that probe's duration
        self._busy = False
        self._saved = None

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        self._end = time.perf_counter()
        self._last = self._end - t0
        self.probe_s += self._last
        self.probes += 1

    def _tick(self, *_signal) -> None:
        if self._busy:  # a signal that arrives during the probe is dropped
            return
        self._busy = True
        try:
            stretch = time.perf_counter() - self._end
            before = self._last
            self._probe()
            self.raw_s += stretch
            self.ref += stretch / ((before + self._last) / 2.0)
        finally:
            self._busy = False

    def start(self) -> None:
        self.raw_s = self.ref = self.probe_s = 0.0
        self.probes = 0
        self._probe()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._saved is None else self._saved)
        self._tick()
