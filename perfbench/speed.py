"""Host-speed calibration sampled alongside the measured work.

On a shared 2-vCPU Xeon VM the host's speed drifts by 30-50% over
seconds to minutes: a fixed pure-Python loop ranges from 12 to 18 ms with
nothing else of ours running.  A host time read raw therefore moves with the host, not with
the code.  :class:`SpeedSampler` runs a fixed snippet (heap,
slotted objects, dict stores: the kind of work the simulator does) on a
thread of the measured process every :data:`INTERVAL_S`, timed in the
thread's own CPU time so that waiting for a CPU does not count.  The
vCPUs of such a VM need not run at the same speed at the same moment, so
the sampler visits each CPU the process may run on in turn; a
single-threaded measurement pins itself to one CPU first.  The mean
snippet time inside a window, divided by :data:`REFERENCE_S`, is the
window's *slowness*; a host-time duration divided by it is the duration
at the reference speed.  The snippet holds the GIL for about 1-2 ms per
sample, so it adds about 1.5% to the measured process's host time, the
same on every commit.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedSampler", "snippet"]

#: seconds between two samples
INTERVAL_S = 0.1
#: the snippet's nominal thread CPU time: a round 1 ms, close to its
#: fastest reading on the 2-vCPU Xeon VM the bounds were set on
REFERENCE_S = 1e-3


class _Node:
    __slots__ = ("n", "acc")

    def __init__(self):
        self.n = 0
        self.acc = 0.0

    def hit(self, x: float) -> None:
        self.n += 1
        self.acc += x


_NODES = [_Node() for _ in range(64)]


def snippet(n: int = 1500) -> float:
    """Thread CPU seconds of one fixed unit of pure-Python work."""
    heap: list = []
    seen: dict = {}
    nodes = _NODES
    t0 = time.thread_time()
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007 * 1e-6 + i * 1e-6, i, nodes[i & 63]))
        if len(heap) > 64:
            t, s, node = heapq.heappop(heap)
            node.hit(t)
            seen[s & 1023] = t
    return time.thread_time() - t0


class SpeedSampler:
    """Time :func:`snippet` every :data:`INTERVAL_S` on a daemon thread,
    moving the thread to the next CPU of the process's affinity set before
    each sample.

    ``samples`` holds ``(perf_counter at start, thread CPU seconds)``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-speed",
                                        daemon=True)

    def _loop(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        i = 0
        while not self._stop.wait(INTERVAL_S):
            if len(cpus) > 1:
                # pid 0 is the calling thread on Linux
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                i += 1
            self.samples.append((time.perf_counter(), snippet()))

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self, start: float, end: float) -> float:
        """Mean snippet time over ``[start, end]`` (``perf_counter``
        readings) divided by :data:`REFERENCE_S`."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            raise ValueError(f"no speed sample in a {end - start:.3f} s window")
        return statistics.fmean(inside) / REFERENCE_S
