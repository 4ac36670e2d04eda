"""The machine's speed, sampled while a job runs, to refer times to one speed.

The benchmark's host is shared: for a minute or more at a time the same code
runs up to about 1.5× slower, in steps that have nothing to do with the
program.  A fixed probe (a few milliseconds of numpy and Python work, the
kind of work the library does) measures that speed in the job's own process:
a round of probes right after set-up, and one probe every `INTERVAL_S`
seconds of wall time during the job, from a SIGALRM handler that runs in the
main thread between the job's bytecodes, so a probe never runs alongside it.

A time t measured while the probes took d_1 … d_k is reported as

    t × mean(REF_PROBE_S / d_i)

seconds at the reference speed, the speed at which one probe takes
REF_PROBE_S.  The mean of the speeds REF_PROBE_S / d_i over probes evenly
spaced in wall time is the job's mean speed, so a job that does the same work
reads the same time in a fast and in a slow phase.  The time spent inside the
probes is taken out of the job's wall and CPU time first.  The probe is the
benchmark's own fixed code, so a change to the program does not change it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# a probe takes about this long when the machine is in its fast phase
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4); it only sets the scale
REF_PROBE_S = 0.0028
INTERVAL_S = 0.2  # wall time between probes during a job
ROUND_PROBES = 80  # probes in the round right after set-up

_X = np.linspace(0.05, 6.0, 32768)


def probe() -> float:
    """One fixed unit of work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    z = np.exp(-_X * (1.0 + 0.75j)) * np.sqrt(_X)
    acc = float(np.sum(np.abs(z * np.conj(z[::-1]))))
    for i in range(8000):
        acc += math.sin(i * 0.01) * math.exp(-i * 1e-3)
    return time.perf_counter() - t0


def factor(durations) -> float:
    """Reference seconds per wall second while probes took `durations`."""
    return statistics.fmean(REF_PROBE_S / d for d in durations)


def probe_round(n: int = ROUND_PROBES) -> list[float]:
    """`n` probe times, after a few untimed ones that warm the probe's own memory."""
    for _ in range(10):
        probe()
    return [probe() for _ in range(n)]


class Sampler:
    """Runs `probe` every `interval` seconds of wall time while active.

    `spent_s` and `spent_cpu_s` are the wall and main-thread CPU time the
    probes took, to be taken out of the job's own times.  Install it from the
    main thread; signals there are handled between bytecodes, so a probe
    never interleaves with the job's Python code and changes none of its
    values.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._old = None

    def _handle(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self.durations.append(probe())
        self.spent_cpu_s += time.thread_time() - c0
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
