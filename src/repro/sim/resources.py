"""Synchronization and queuing primitives built on the event engine.

These model the kernel-level and hardware-level contention points in the
reproduction: bounded hardware queues such as the SIPS receive queues
(:class:`FifoStore`) and multi-unit resources such as the RPC
server-process pool (:class:`Resource`; one unit makes a lock).

All primitives hand out grants in strict FIFO order, which keeps the whole
simulation deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class Resource:
    """A pool of ``capacity`` identical units (CPUs of a cell, disk arms).

    ``request()`` yields an event granting one unit; ``release()`` returns
    it.  FIFO granting.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._request_name = name + ".request"
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self) -> Event:
        ev = Event(self.sim, self._request_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1


class FifoStore:
    """A bounded FIFO queue of items with blocking get/put.

    Models hardware receive queues (SIPS request/reply queues) and kernel
    work queues (queued-RPC service queue).  ``put`` on a full store fails
    immediately with :class:`StoreFull` if ``block_on_full`` is False,
    matching hardware flow-control semantics where the sender must retry.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "store",
        block_on_full: bool = True,
    ):
        self.sim = sim
        self.name = name
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self.capacity = capacity
        self.block_on_full = block_on_full
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()
        self.total_puts = 0
        self.rejected_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (and drops nothing) when full."""
        if self.is_full:
            self.rejected_puts += 1
            return False
        self._deliver(item)
        return True

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, self._put_name)
        if self.is_full:
            if not self.block_on_full:
                self.rejected_puts += 1
                ev.fail(StoreFull(self.name))
            else:
                self._putters.append((ev, item))
        else:
            self._deliver(item)
            ev.succeed()
        return ev

    def _deliver(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters and not self.is_full:
                put_ev, item = self._putters.popleft()
                self._deliver(item)
                put_ev.succeed()
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> list:
        """Remove and return all queued items (used by reboot paths)."""
        items = list(self._items)
        self._items.clear()
        return items


class StoreFull(Exception):
    """Raised by a non-blocking :class:`FifoStore` put when at capacity."""
