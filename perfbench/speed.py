"""CPU-speed probe: a fixed pure-Python kernel timed while a section runs.

The vCPUs of a small shared machine change speed by 20-40% within
seconds, as other tenants come and go, so raw wall times of the same
work spread more than any bound worth holding a change to.  While a
``SpeedProbe`` is open, a timer signal every ``INTERVAL_S`` runs
``KERNEL_LOOPS`` iterations of integer arithmetic and records how long
they took; the kernel also runs once just before and once just after the
section.  The section's wall time less the probe's own time, divided by
the mean kernel time and multiplied by ``REFERENCE_KERNEL_S``, is its
time at a fixed reference speed (about the typical speed of a 2-vCPU
Xeon VM, where the kernel takes about 1 ms).

The kernel allocates no container objects and touches neither numpy nor
the measured package, so a slowdown that a program change leaves in the
process (a grown heap, more garbage-collector work, retained caches)
does not slow it and is not divided out.  What is divided out is
whatever slows plain interpreter arithmetic: the host's contention and
clock frequency.

It imports only the built-in ``signal`` and ``time``, so a fresh
interpreter can import it before it times the import of the package
without loading any module that import would load.  The timer signal
needs the main thread.
"""

import signal
import time

KERNEL_LOOPS = 10_000
INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 1e-3


def kernel(loops: int = KERNEL_LOOPS) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_seconds(wall: float, inside: list, outside: list) -> float:
    """Wall time of a section at the reference speed.

    ``inside`` are the kernel times sampled during the section, whose
    sum is part of ``wall``; ``outside`` are those taken just before and
    after it.  The speed is the mean over both.
    """
    samples = inside + outside
    return (wall - sum(inside)) * REFERENCE_KERNEL_S * len(samples) / sum(samples)


class SpeedProbe:
    """Times a ``with`` block and samples the CPU's speed while it runs."""

    def __init__(self):
        self.inside = []
        self.outside = []
        self.wall = None
        self._start = None
        self._previous = None

    def _sample(self, signum, frame):
        self.inside.append(timed_kernel())

    def __enter__(self):
        self.outside.append(timed_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.outside.append(timed_kernel())
        return False

    def seconds(self) -> float:
        """The block's wall time at the reference speed."""
        return reference_seconds(self.wall, self.inside, self.outside)
