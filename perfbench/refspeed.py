"""The machine's speed during a run, from a fixed reference kernel.

On a shared machine the CPU speed drifts by 15-30% over tens of seconds,
and every wall time of a run moves with it. The benchmark therefore runs a
small fixed kernel of pure-Python work (Fraction arithmetic, tuple and
dict churn, nothing from temperkit) throughout each run and reports its
times also in reference seconds: wall seconds times REF_KERNEL_S over the
kernel's trimmed-mean time while they were taken. A run on a slow stretch
of the machine takes longer, and so does its kernel, and the quotient
stays put.

Single kernel times are noisy at the millisecond scale; the 10% trimmed
mean of a few hundred of them tracks the slow drift.

Set-up time is mostly imports in a fresh interpreter, which the in-process
kernel tracks poorly. It is scaled instead by a reference start-up: a
fresh interpreter that imports standard-library modules only.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# the kernel's trimmed-mean time on a 2-core Intel Xeon at 2.1 GHz with
# Python 3.11.7, so that reference seconds read close to wall seconds there
REF_KERNEL_S = 560e-6
INTERVAL_S = 0.05
MIN_PHASE_SAMPLES = 20

# the reference start-up, and its median time on the machine above
REF_STARTUP_S = 0.104
REF_STARTUP_PROGRAM = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart\n"
    "import http.client, json, logging, sqlite3, statistics, typing, unittest\n"
    "import urllib.request, xml.dom.minidom\n"
    "from fractions import Fraction\n"
    "acc = Fraction(0)\n"
    "for i in range(1, 400):\n"
    "    acc += Fraction(i, i + 7) * Fraction(3, i + 1)\n"
    "print(time.perf_counter() - t0)\n")


def kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(200):
        table[(i, i % 7)] = [i] * 3


def time_kernel() -> float:
    """One kernel time, with the collector off so that the program's heap
    does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def trimmed_mean(samples: list[float]) -> float:
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


def scale(samples: list[float]) -> float:
    """The factor from wall seconds to reference seconds."""
    return REF_KERNEL_S / trimmed_mean(samples)


class Sampler:
    """Times the kernel every INTERVAL_S of wall time while open, and files
    each time under the phase the caller last named.

    The kernel runs in a SIGALRM handler between the program's bytecodes;
    `spent` is the wall time the handler took, which the caller subtracts
    from the spans it times.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.spent = 0.0
        self.use("")

    def use(self, phase: str) -> None:
        self._current = self.samples.setdefault(phase, [])

    def scale(self, phase: str) -> float:
        """The scale of one phase; a phase too short for MIN_PHASE_SAMPLES
        kernel times takes the whole run's."""
        samples = self.samples.get(phase, [])
        if len(samples) < MIN_PHASE_SAMPLES:
            samples = [t for times in self.samples.values() for t in times]
        return scale(samples)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._current.append(time_kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
