"""Host-speed calibration for the benchmark's timings.

On a shared host the same op's time swings by up to 1.7x for seconds or
minutes at a time, as neighbours load the machine.  A fixed kernel of the
same kind of work as rkdist (strings, tuples, frozensets, dicts, sorting,
bit masks) slows down with it, if a little less.  So the benchmark times
the kernel around each op, and every INTERVAL_S inside it from a SIGALRM
handler, and scales the op's time to the kernel's reference time:

    calibrated = (measured - time spent in the handler) * (REFERENCE_S / mean kernel time) ** EXPONENT

EXPONENT is above 1 because rkdist's ops slow down more than the kernel
when neighbours load the host.  In two series of three and four minutes,
in which the 8-second medians of three ops moved by up to 1.86x, the
quartile spread of those medians, scaled, was 0.058-0.110 with an
exponent of 1 and 0.018-0.030 with 1.3.  1.3 was chosen on the first
series and held on the second.  The kernel, REFERENCE_S and EXPONENT must never
change: every calibrated figure depends on them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

# About the kernel's median time between ops on the host the benchmark was
# tuned on (2 vCPU Xeon, Python 3.11.7), so that calibrated figures read
# close to measured ones there.
REFERENCE_S = 0.0012
EXPONENT = 1.3
INTERVAL_S = 0.1

_NAMES = [f"v{i:03d}*w{j:02d}" for i in range(40) for j in range(8)]


def kernel() -> int:
    pairs = frozenset((a, b) for a in _NAMES[:60] for b in _NAMES[:60:3])
    index = {v: i for i, v in enumerate(sorted(_NAMES))}
    masks = [0] * len(_NAMES)
    for a, b in pairs:
        masks[index[a]] |= 1 << index[b]
    text = "\n".join(f"le {a} {b}" for a, b in sorted(pairs))
    return len(text) + sum(m.bit_count() for m in masks)


def kernel_seconds() -> float:
    """One kernel run, with the garbage collector held off so that a
    collection owed to the program's own allocations is not billed to it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass(frozen=True)
class Timing:
    measured: float  # seconds, without the time spent in the kernel
    kernel: float  # mean kernel time around and inside the block
    overhead: float  # kernel time spent inside the block

    @property
    def calibrated(self) -> float:
        return scale(self.measured, self.kernel)


def scale(seconds: float, kernel: float) -> float:
    """`seconds` measured while the kernel took `kernel`, as they would read
    on a host where it takes REFERENCE_S."""
    return seconds * (REFERENCE_S / kernel) ** EXPONENT


class Calibrator:
    """Times blocks one after another; the kernel run after one block also
    serves as the run before the next."""

    def __init__(self) -> None:
        kernel()  # the first run in a process is slower
        self._last = kernel_seconds()

    def time(self, fn):
        """(Timing, fn's result) of one call of fn()."""
        inside: list[float] = []

        def tick(signum, frame):
            inside.append(kernel_seconds())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            took = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = kernel_seconds()
        overhead = sum(inside)
        mean = statistics.fmean(inside + [(self._last + after) / 2])
        self._last = after
        return Timing(took - overhead, mean, overhead), result
