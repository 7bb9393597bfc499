"""How fast the host is right now, from a fixed kernel.

The sandboxes this benchmark runs in change speed: the same serial step
was measured at 60 ms and, half an hour later on an idle machine, at
105 ms, and a pure bytecode loop slowed by the same factor.  Wall time
alone would then say more about the host's neighbours than about the
program.  So every timed window also times, between ops and outside the
timed region, a short kernel that does not touch the program under test
(a small matmul, an ``exp`` and some bytecode), and every wall-clock
metric is divided by ``median kernel time / REFERENCE_MS``: it reads as
the time on a host that runs the kernel in :data:`REFERENCE_MS`.  The
factor is kept in the result beside the metrics, so the raw wall time is
``value * host_speed``.

The kernel is single-threaded, so it follows the host's speed and stolen
CPU time, not the extra cost two contending threads pay on a busy host.
"""

from __future__ import annotations

import time

import numpy as np

import stats

#: What one kernel pass took on the 2-core host the workloads were sized
#: on, while it was quiet.  Only sets the scale of the normalised times.
REFERENCE_MS = 2.2
#: Least timed wall between two passes, so that sampling costs a few
#: percent of the window.
INTERVAL_S = 0.05

_A = np.full((64, 64), 0.5)
_V = np.linspace(0.0, 1.0, 4096)


def kernel_ms() -> float:
    """One pass of the kernel, in milliseconds."""
    start = time.perf_counter()
    x = 0
    for i in range(150):
        b = _A @ _A
        b += _A
        np.exp(_V)
        x += i * i
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Kernel passes taken while something else is being measured."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -INTERVAL_S

    def sample(self, clock_s: float | None = None) -> None:
        """Take a pass; with ``clock_s`` (the timed wall so far) only
        when :data:`INTERVAL_S` of it went by since the last one."""
        if clock_s is not None:
            if clock_s - self._last < INTERVAL_S:
                return
            self._last = clock_s
        self.samples.append(kernel_ms())

    def factor(self) -> float:
        """Above 1 on a host slower than the reference."""
        return stats.percentile(self.samples, 50) / REFERENCE_MS
