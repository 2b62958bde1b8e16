"""Host-speed calibration of the benchmark's timings.

The shared host's speed changes by 20-40% within seconds, and every kind
of work (pure Python, small numpy arrays, BLAS) slows in step.  A timing
is therefore rescaled to a reference speed.  While a block is timed, a
SIGALRM timer fires every INTERVAL_S and its handler runs a fixed
pure-Python kernel, timed in the thread's CPU time, so that waiting for
the GIL or for a CPU does not count.  The block's time, less the
handler's own wall time, times REFERENCE_KERNEL_S over the trimmed mean
of the kernel's times, is the block's time in reference seconds: the
time it would take on a host where one kernel takes REFERENCE_KERNEL_S.

Python runs the handler between bytecodes, so during one long call into
C the samples wait until it returns; a block with fewer than MIN_SAMPLES
is topped up by running the kernel right after it.

This module imports only ``signal`` and ``time``, so loading it before
the timed import of quasilattice leaves that import's work unchanged.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REFERENCE_KERNEL_S = 1e-4
MIN_SAMPLES = 5
TRIM = 0.1  # share of samples dropped at each end before averaging


def kernel() -> int:
    acc = 0
    for i in range(1200):
        acc = (acc + i * i) % 1000003
    return acc


def _timed_kernel() -> float:
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


class Sampler:
    """Samples the kernel while the ``with`` block runs.

    Afterwards ``cost_s`` is the wall time spent in the handler, which
    the caller subtracts from the block's time, and ``scale`` turns the
    remaining time into reference seconds.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self.cost_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_timed_kernel())
        return False

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(_timed_kernel())
        self.cost_s += time.perf_counter() - t0

    @property
    def kernel_s(self) -> float:
        """Trimmed mean of the kernel's times."""
        values = sorted(self.samples)
        cut = int(len(values) * TRIM)
        kept = values[cut:len(values) - cut]
        return sum(kept) / len(kept)

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S / self.kernel_s
