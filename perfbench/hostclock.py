"""Wall time corrected for the speed of a shared host.

The benchmark runs on virtual machines whose cores other tenants share. Their
speed drifts by a third and more, in phases of seconds to minutes, and moves
the wall time of every command together: a fixed pure-Python loop swings
between 0.12 and 0.21 s. ``HostClock`` measures that speed while it times a
block of work and reports the block's time at a fixed reference speed.

The speed comes from ``probe``, a fixed, stdlib-only millisecond of work (an
integer loop, a JSON round trip, a dict build and a sort, like the package's
own pure-Python work). It calls no beliefuse code, so no change to the
package moves it. A block is probed three times just before it starts and
three times just after it ends, and, when sampling, every ``INTERVAL_S`` of
wall time while it runs, from a SIGALRM handler that pauses the block; the
time spent in those probes is taken out of the block's wall time. The block's
corrected time is its wall time times the mean of ``REF_S / probe()`` over
all its probes. Probes spaced evenly in wall time make that mean the host's
average speed over the block, relative to the reference.

Sampling is only for blocks that run in this process alone: a probe during a
pooled command would compete with the pool's workers for the same cores and
read the benchmark's own load as a slow host. Such blocks get ten probes before
and ten after instead.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time
from dataclasses import dataclass

# A fixed scale close to probe()'s wall time on a quiet 2-vCPU Intel Xeon
# virtual machine with Python 3.11, where the fastest probes took 0.84 ms.
# Corrected seconds are seconds at the speed at which probe() takes REF_S.
REF_S = 0.001
INTERVAL_S = 0.03
BRACKET_PROBES = 3  # before and after a sampled block
UNSAMPLED_BRACKET_PROBES = 10  # before and after a block that is not sampled
_DOC = [{"id": i, "box": [i * 0.5, i * 1.5, 8.0, 9.0], "label": "det"} for i in range(30)]


def probe() -> float:
    """Wall seconds of a fixed millisecond of pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    for _ in range(5):
        json.loads(json.dumps(_DOC))
    table = {i: str(i) for i in range(2000)}
    sorted(table.values())
    return time.perf_counter() - start


@dataclass
class Timing:
    wall: float = 0.0  # wall seconds of the block, probes taken out
    seconds: float = 0.0  # the same at the reference host speed


class HostClock:
    """Times blocks of work in seconds at the reference host speed.

    Create it in the main thread: it installs a SIGALRM handler, which stays
    idle outside ``measure``.
    """

    def __init__(self):
        self._speeds: list[float] | None = None  # a list while sampling
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._speeds is None:
            return
        start = time.perf_counter()
        self._speeds.append(REF_S / probe())
        self._paused += time.perf_counter() - start

    @contextlib.contextmanager
    def measure(self, sample: bool = True):
        """Time the block; the yielded ``Timing`` is filled in when it ends."""
        timing = Timing()
        brackets = BRACKET_PROBES if sample else UNSAMPLED_BRACKET_PROBES
        speeds = [REF_S / probe() for _ in range(brackets)]
        self._paused = 0.0
        if sample:
            self._speeds = speeds
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._speeds = None  # an alarm still pending now is ignored
            wall = time.perf_counter() - start - self._paused
        speeds += [REF_S / probe() for _ in range(brackets)]
        timing.wall = wall
        timing.seconds = wall * statistics.fmean(speeds)
