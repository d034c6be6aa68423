"""Failure detection: hints, clock monitoring, and the two-strike rule.

Section 4.3: a cell is considered *potentially* failed if

* an RPC sent to it times out;
* an attempt to access its memory causes a bus error;
* "a shared memory location which it updates on every clock interrupt
  fails to increment" (clock monitoring — catches halted processors and
  deadlocked kernels);
* data read from its memory fails the careful-reference consistency
  checks (catches software faults).

A hint is only a hint: it triggers the distributed agreement round, which
either confirms the failure or votes the accuser down.  "To prevent a
corrupt cell from repeatedly broadcasting alerts and damaging system
performance over a long period, a cell that broadcasts the same alert
twice but is voted down by the distributed agreement algorithm both times
is considered corrupt by the other cells."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.hardware.errors import BusError


@dataclass
class Hint:
    reporter: int
    suspect: int
    reason: str
    time_ns: int


class FailureDetector:
    """Per-cell hint generation and clock monitoring."""

    #: heartbeat must advance at least once in this many of *our* ticks,
    #: otherwise the monitored cell is suspected.  Two ticks tolerates
    #: phase skew between the cells' clocks.
    STALL_TICKS = 2

    def __init__(self, cell):
        self.cell = cell
        self.hints: List[Hint] = []
        #: stable instrumentation hook: called with each accepted Hint
        #: before it reaches the coordinator (tracing, flight recorder).
        self.observers: List[Callable[[Hint], None]] = []
        #: cell we watch (ring: each cell monitors its successor).
        self.monitored_cell: Optional[int] = None
        self._last_heartbeat: Optional[int] = None
        self._stalled_ticks = 0
        self.clock_checks = 0

    # -- hint entry point ----------------------------------------------

    def hint(self, suspect: int, reason: str) -> None:
        """Record a hint and alert the coordinator (broadcast)."""
        if not self.cell.alive or suspect == self.cell.kernel_id:
            return
        h = Hint(reporter=self.cell.kernel_id, suspect=suspect,
                 reason=reason, time_ns=self.cell.sim.now)
        self.hints.append(h)
        self.cell.detection_metrics.counter("hints").add()
        for obs in list(self.observers):
            obs(h)
        self.cell.registry.coordinator.report_hint(h)

    # -- clock monitoring -----------------------------------------------------

    def set_monitored(self, cell_id: Optional[int]) -> None:
        self.monitored_cell = cell_id
        self._last_heartbeat = None
        self._stalled_ticks = 0

    def clock_check(self) -> None:
        """Run on every local clock tick: read the watched cell's clock.

        The read goes through the careful-reference discipline for bus
        errors; the value comparison is the heuristic check.  The average
        cost measured in the paper for this path is 1.16 us per tick.
        """
        target = self.monitored_cell
        if target is None or not self.cell.alive:
            return
        self.clock_checks += 1
        watched = self.cell.registry.cell_object(target)
        if watched is None:
            return
        try:
            # Memory traffic for the heartbeat line (ping-pongs between
            # the incrementing cell and us every tick: always a miss).
            self.cell.machine.coherence.read(
                self.cell.cpu_ids[0], watched.heartbeat_addr)
        except BusError as exc:
            self.hint(target, f"bus error reading clock word: {exc}")
            return
        value = watched.heartbeat_value
        if self._last_heartbeat is None or value > self._last_heartbeat:
            self._last_heartbeat = value
            self._stalled_ticks = 0
            return
        self._stalled_ticks += 1
        if self._stalled_ticks >= self.STALL_TICKS:
            self._stalled_ticks = 0
            self.hint(target,
                      f"clock word stalled at {value} for "
                      f"{self.STALL_TICKS} ticks")


class StrikeBook:
    """System-wide record of voted-down alerts (two-strike rule).

    Conceptually replicated at every cell (each cell observes every
    agreement outcome); kept as one shared structure for determinism.
    """

    def __init__(self, limit: int = 2):
        self.limit = limit
        self._strikes: Dict[Tuple[int, int], int] = {}

    def voted_down(self, accuser: int, suspect: int) -> bool:
        """Record a voted-down alert; True if the accuser is now corrupt."""
        key = (accuser, suspect)
        self._strikes[key] = self._strikes.get(key, 0) + 1
        return self._strikes[key] >= self.limit

    def clear_cell(self, cell_id: int) -> None:
        """Forget strikes involving a rebooted cell."""
        self._strikes = {
            k: v for k, v in self._strikes.items()
            if cell_id not in k
        }

    def count(self, accuser: int, suspect: int) -> int:
        return self._strikes.get((accuser, suspect), 0)
