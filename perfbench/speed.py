"""How fast this core runs while a call is timed.

On a shared machine a core's speed changes with other tenants' load, on a
scale of a fraction of a second to minutes; the same call then takes up to
1.7 times as long.  A fixed pure-Python kernel, timed every INTERVAL_S of
wall time from a SIGALRM handler while the call runs, measures that speed.
A call's time at the reference speed is its wall time, less the kernel's own
time, multiplied by the mean of KERNEL_REF_S / kernel time over the samples.
"""

from __future__ import annotations

import signal
import time

KERNEL_REF_S = 0.0004  # kernel time that defines the reference speed
INTERVAL_S = 0.02
MIN_SAMPLES = 3

_KEYS = [(i % 31, i % 7, i) for i in range(256)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def probe():
    """Time one run of the kernel: tuple hashing and dict lookups, no allocation."""
    start = time.perf_counter()
    acc = 0
    for _ in range(24):
        for k in _KEYS:
            acc += _TABLE[k] & 7
    return time.perf_counter() - start


class Speedometer:
    """Times a block and samples the core's speed while it runs.

    After the block: ``wall_s`` is its wall time, ``probe_s`` the part the
    kernel took, and ``scale`` the factor that turns the remaining time into
    seconds at the reference speed.  ``pauses`` holds the ``perf_counter``
    (start, end) of each kernel run inside the block, so that a caller can
    take them out of the spans they fell in.  A block too short for
    MIN_SAMPLES timer samples is topped up with kernel runs right after it.
    """

    def __init__(self):
        self.samples = []
        self.pauses = []
        self.wall_s = self.probe_s = self.scale = None

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        k = probe()
        self.samples.append(k)
        self.pauses.append((start, start + k))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        self.scale = sum(KERNEL_REF_S / k for k in self.samples) / len(self.samples)
        return False

    @property
    def reference_s(self):
        return (self.wall_s - self.probe_s) * self.scale
