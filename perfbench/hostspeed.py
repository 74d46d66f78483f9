"""Host-speed reference for the end-to-end timings.

On a shared virtual machine the host's speed drifts.  On the 2-vCPU box
this benchmark was developed on it drifted by up to 1.5x over minutes,
with no trace in the guest's own accounting: CPU time tracked wall time.
Medians within a run cannot remove a drift that lasts longer than the run.

So a fixed pure-Python kernel is timed just before and after every
simulation, and the run's host times are multiplied by ``REFERENCE_S`` over
the median kernel time: they become seconds of a host that runs the kernel
in ``REFERENCE_S``.  The kernel is a small discrete-event loop -- a heap of
timed events, sixteen nodes with bounded dict caches and deques, method
dispatch and small slotted objects -- the kind of interpreter work the
simulator does.  It is part of the benchmark, not of the simulator, so no
change to the simulator moves it.

On that box, over ten minutes of ocean, mp3d and radix FLASH simulations
interleaved with candidate kernels, the spread (interquartile range over
median) of 24-second windows' median simulation time was 14-18% unscaled.
Scaled by an event loop of this shape it was 7-12%; scaled by a pointer
chase through a 200,000-object ring (memory latency), 7-16%; scaled by
both, 8-12%.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from collections import deque

#: The kernel's time on the development box (2-vCPU VM, Python 3.11).
REFERENCE_S = 0.1


class _Event:
    __slots__ = ("time", "node")

    def __init__(self, time, node):
        self.time = time
        self.node = node


class _Node:
    __slots__ = ("id", "cache", "pending", "hits")

    def __init__(self, node_id):
        self.id = node_id
        self.cache = {}
        self.pending = deque()
        self.hits = 0

    def handle(self, event, schedule):
        """A reference: a hit retires it, a miss fills the line (evicting
        the oldest past 256) and sends a message to another node."""
        line = (event.time * 7 + self.id * 13) & 1023
        if line in self.cache:
            self.hits += 1
            if self.pending:
                self.pending.popleft()
        else:
            self.cache[line] = event.time
            if len(self.cache) > 256:
                del self.cache[next(iter(self.cache))]
            self.pending.append(line)
            schedule(_Event(event.time + 5 + (line & 7),
                            (self.id + line) & 15))
        schedule(_Event(event.time + 1 + (self.hits & 3), self.id))


class HostSpeed:
    """The reference kernel and the times :meth:`measure` took."""

    EVENTS = 60_000     # events handled per measurement

    def __init__(self):
        self.samples = []

    @classmethod
    def _kernel(cls) -> None:
        nodes = [_Node(i) for i in range(16)]
        heap = []
        sequence = 0

        def schedule(event):
            nonlocal sequence
            sequence += 1
            heapq.heappush(heap, (event.time, sequence, event))

        for node in nodes:
            schedule(_Event(node.id, node.id))
        for _ in range(cls.EVENTS):
            event = heapq.heappop(heap)[2]
            nodes[event.node].handle(event, schedule)

    def measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor from this host's seconds to the reference host's: the
        reference time over the median of the kernel times so far."""
        return REFERENCE_S / statistics.median(self.samples)
