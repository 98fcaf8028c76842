"""Test oracle: the binary-heap event queue.

The plain ``heapq`` spec of the kernel's ``(time, seq)`` order that
the calendar queue in :mod:`repro.sim.kernel` is checked against
(``tests/test_oracles.py``): the simpler statement of the same
semantics.

:func:`heap_simulator` swaps it into a :class:`~repro.sim.kernel.
Simulator` at the queue seam, so the kernel's behavioural tests can
hold the oracle to the same contract as the production queue.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.sim.kernel import Event, Simulator, _release

__all__ = ["HeapQueue", "heap_simulator"]


class _HeapQueue:
    """The reference backend: a ``heapq`` binary heap of events."""

    __slots__ = ("_heap", "_live", "free")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._live = 0
        #: Shared with the owning simulator (set at construction).
        self.free: List[Event] = []

    def push(self, event: Event) -> None:
        event.queued = True
        event.owner = self
        self._live += 1
        heapq.heappush(self._heap, event)

    def note_cancel(self, event: Event) -> None:
        """Called by :meth:`Event.cancel` while the event is queued."""
        self._live -= 1

    def pop_due(self, horizon: float) -> Optional[Event]:
        """Pop the next live event with ``time <= horizon``, else None."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            if head.cancelled:
                pop(heap)
                head.queued = False
                if head.reusable:
                    _release(self.free, head)
                continue
            if head.time > horizon:
                return None
            pop(heap)
            head.queued = False
            self._live -= 1
            return head
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            if not head.cancelled:
                return head.time
            pop(heap)
            head.queued = False
            if head.reusable:
                _release(self.free, head)
        return None

    @property
    def live(self) -> int:
        return self._live


HeapQueue = _HeapQueue


def heap_simulator(start_time: float = 0.0) -> Simulator:
    """A :class:`Simulator` whose event queue is the heap oracle."""
    sim = Simulator(start_time)
    sim._queue = _HeapQueue()
    sim._free = sim._queue.free
    return sim
