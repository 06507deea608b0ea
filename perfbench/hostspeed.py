"""Host-speed sampling, so that times taken on a shared host stay comparable.

On a shared virtual machine the same work can take twice as long from one
minute to the next, because other tenants slow the physical core down. A
``SIGALRM`` timer therefore runs a fixed reference kernel (small NumPy calls
and a Python loop, the instruction mix of ekd) every ``PERIOD_S`` seconds in
the main thread. ``reference_seconds(t0, t1)`` converts a wall interval into
reference seconds: the interval's length times the mean of
``KERNEL_S / kernel time`` over the samples taken in it, i.e. how long the
same work would take on a host where the kernel runs in ``KERNEL_S``.

The sample is meant to measure how fast a core executes the kernel, not how
much of a core the kernel gets. While the handler runs, the main thread runs
no ekd code; but ekd's own threads or child processes, if it has any, may
compete with the kernel for the vCPUs. A sample whose wall time exceeds
``MAX_WALL_PER_CPU`` times its thread CPU time was preempted or descheduled
while it ran, so it is dropped (and counted in ``rejected``). An untimed
warm-up run precedes each timed one: after the main thread has waited (as
it would while ekd's children work), a cold first run reads up to a fifth
slower. What remains assumed is that ekd's work on the other cores does not
slow the kernel's instructions themselves, e.g. through a shared cache or
an SMT sibling.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# About the kernel's time on the host the bounds were tuned on (2-vCPU
# x86_64 VM, Python 3.11, NumPy 2.4) when other tenants leave it alone; it
# only sets the scale of reference seconds.
KERNEL_S = 2.5e-4
# Unpreempted samples stay below 1.2 on that host; a preempted one loses at
# least a scheduler slice of several milliseconds, i.e. reads well above 2.
MAX_WALL_PER_CPU = 1.5
_M = np.random.default_rng(0).normal(size=(8, 8)) / 8


def _kernel() -> None:
    x, s = _M, 0
    for i in range(100):
        x = np.tanh(x @ _M)
        for j in range(20):
            s += i * j


def kernel_sample() -> float | None:
    """Wall seconds of one kernel run after an untimed warm-up run, or None
    if it was preempted."""
    _kernel()
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    _kernel()
    wall, cpu = time.perf_counter() - wall0, time.thread_time() - cpu0
    return wall if wall <= MAX_WALL_PER_CPU * cpu else None


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (time, kernel seconds)
        self.rejected = 0

    def _sample(self, _signum, _frame) -> None:
        kernel = kernel_sample()
        if kernel is None:
            self.rejected += 1
        else:
            self.samples.append((time.perf_counter(), kernel))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _kernels(self, t0: float, t1: float) -> list[float]:
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if inside:
            return inside
        # Shorter than one period: use the last sample before it.
        before = [k for t, k in self.samples if t < t0]
        if before:
            return before[-1:]
        while (kernel := kernel_sample()) is None:
            pass
        return [kernel]

    def reference_seconds(self, t0: float, t1: float) -> float:
        kernels = self._kernels(t0, t1)
        return (t1 - t0) * sum(KERNEL_S / k for k in kernels) / len(kernels)

    def kernel_ms(self, t0: float, t1: float) -> float:
        return 1e3 * statistics.median(self._kernels(t0, t1))
