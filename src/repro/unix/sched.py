"""Per-kernel CPU scheduler.

Each kernel schedules threads onto the processors of the nodes it owns.
The model is cooperative with quantum-based round-robin: a running thread
holds a specific CPU (identity matters — the firewall checks the writing
processor), charges simulated time while computing, and yields the CPU at
quantum boundaries when other threads are waiting, or whenever it blocks
on I/O or a queued RPC.

Gang scheduling / space sharing (a Wax-driven policy, Table 3.4) is
supported through CPU reservations: a set of CPUs can be granted
exclusively to one process.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.sim.engine import Event, Simulator
from repro.unix.costs import KernelCosts


class Scheduler:
    """FIFO run queue over a fixed set of CPU ids."""

    def __init__(self, sim: Simulator, cpu_ids: List[int],
                 costs: KernelCosts, name: str = "sched"):
        if not cpu_ids:
            raise ValueError("scheduler needs at least one CPU")
        self.sim = sim
        self.costs = costs
        self.name = name
        self.cpu_ids = list(cpu_ids)
        self._free: Deque[int] = deque(cpu_ids)
        self._waiters: Deque[tuple] = deque()  # (event, reserved_for_pid)
        #: pid -> CPUs reserved exclusively for it (space sharing)
        self._reservations: Dict[int, Set[int]] = {}
        self._reserved_cpus: Set[int] = set()
        self.context_switches = 0
        self.halted = False

    # -- reservations (space sharing) -----------------------------------

    def reserve_cpus(self, pid: int, cpus: Set[int]) -> None:
        """Grant ``cpus`` exclusively to process ``pid`` (Wax policy)."""
        bad = cpus - set(self.cpu_ids)
        if bad:
            raise ValueError(f"cannot reserve foreign CPUs {bad}")
        self._reservations[pid] = set(cpus)
        self._reserved_cpus |= cpus

    def release_reservation(self, pid: int) -> None:
        cpus = self._reservations.pop(pid, set())
        self._reserved_cpus -= cpus
        self._grant_waiters()

    def _cpu_usable_by(self, cpu: int, pid: Optional[int]) -> bool:
        if cpu not in self._reserved_cpus:
            return True
        if pid is None:
            return False
        return cpu in self._reservations.get(pid, set())

    # -- acquire / release -------------------------------------------------

    def try_acquire(self, pid: Optional[int] = None) -> Optional[int]:
        for _ in range(len(self._free)):
            cpu = self._free.popleft()
            if self._cpu_usable_by(cpu, pid):
                return cpu
            self._free.append(cpu)
        return None

    def acquire(self, pid: Optional[int] = None) -> Event:
        """Event that grants one CPU id."""
        ev = self.sim.event(f"{self.name}.cpu")
        cpu = self.try_acquire(pid)
        if cpu is not None:
            ev.succeed(cpu)
        else:
            self._waiters.append((ev, pid))
        return ev

    def release(self, cpu: int) -> None:
        if cpu not in self.cpu_ids:
            raise ValueError(f"cpu {cpu} does not belong to {self.name}")
        self._free.append(cpu)
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        granted = True
        while granted and self._waiters and self._free:
            granted = False
            for i in range(len(self._waiters)):
                ev, pid = self._waiters[i]
                cpu = self.try_acquire(pid)
                if cpu is not None:
                    del self._waiters[i]
                    if ev.triggered:
                        # Waiter was interrupted (killed); recycle CPU.
                        self._free.append(cpu)
                    else:
                        ev.succeed(cpu)
                    granted = True
                    break

    def remove_cpu(self, cpu: int) -> None:
        """A CPU's node failed; never hand it out again."""
        if cpu in self._free:
            self._free.remove(cpu)
        if cpu in self.cpu_ids:
            self.cpu_ids.remove(cpu)

    @property
    def has_waiters(self) -> bool:
        return bool(self._waiters)

    @property
    def free_count(self) -> int:
        return len(self._free)
