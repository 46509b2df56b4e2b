"""How fast the host runs this process, sampled while the benchmark runs.

Shared machines change speed by tens of percent from minute to minute
(other tenants' load on the same cores).  ``HostSpeed`` runs a fixed
reference task -- a miniature of sparksel's kind of work built from
numpy and scipy alone -- from a timer signal every ``INTERVAL`` seconds
and records how long each run of it took.  The harmonic mean of the
times sampled during an operation, relative to ``NOMINAL_S``, is the
host's slowdown during that operation: multiplying the operation's
throughput by it gives the throughput on a host where the task takes
``NOMINAL_S``.
The harmonic mean weights the samples as elapsed time weights the
benchmark's own work, and a rare stalled sample barely moves it.

The reference task does not use sparksel, so a change to the program
never changes the correction.  The signal handler runs on the main
thread between bytecodes: it samples the core the benchmark runs on and
never interrupts a numpy or scipy call.  This assumes the benchmark
keeps one thread busy; work spread over several cores would slow the
samples and overstate the correction.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.signal import butter, sosfiltfilt

INTERVAL = 0.1
NOMINAL_S = 0.002  # about the task's time on an unloaded 2.1 GHz x86 core

_VALUES = np.random.default_rng(0).standard_normal(200)
_SOS = butter(3, [0.75, 3.33], btype="bandpass", fs=25, output="sos")


def reference_task():
    """A fixed miniature of the work sparksel does, using numpy and scipy
    only: small sorts and prefix sums, counter-based streams, a
    zero-phase filter and interpreter arithmetic."""
    for _ in range(20):
        order = np.argsort(_VALUES, kind="stable")
        np.cumsum(_VALUES[order])
    for i in range(16):
        np.random.Generator(np.random.Philox(np.random.SeedSequence((1, i)))).uniform(size=10)
    for _ in range(2):
        sosfiltfilt(_SOS, _VALUES)
    s = 0
    for i in range(4000):
        s += i * i
    return s


class HostSpeed:
    """Samples of ``reference_task`` times: taken by ``sample()``, or on
    a timer while used as a context manager."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.samples = []  # reference task times
        self.stamps = []  # when each sample started
        self._previous = None

    def sample(self, *signal_args):
        """Time one run of the reference task (also the signal handler)."""
        t0 = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - t0)
        self.stamps.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self):
        return slowdown_of(self.samples)

    def slowdown_between(self, start, end):
        """Slowdown from the samples started in [start, end], or from all
        samples when none were."""
        inside = [d for t, d in zip(self.stamps, self.samples) if start <= t <= end]
        return slowdown_of(inside or self.samples)


def slowdown_of(samples):
    """Harmonic mean of reference task times over ``NOMINAL_S``; 1.0
    without samples."""
    if not samples:
        return 1.0
    return statistics.harmonic_mean(samples) / NOMINAL_S
