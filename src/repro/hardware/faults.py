"""Hardware fault injection (the Section 7.4 fail-stop experiments).

"We simulated fail-stop node failures by halting a processor and denying
all access to the range of memory assigned to that processor."

The injector schedules faults at an absolute simulation time or triggered
by a named *phase event* published by the workloads (e.g. "during process
creation", "during copy-on-write search" — the two targeted injection
sites of Table 7.4).  Kernel-data corruption faults live at the OS layer
(:mod:`repro.core.kfaults`) because they mutate kernel structures, not
hardware state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hardware.machine import Machine
from repro.sim.engine import Simulator


@dataclass
class InjectionRecord:
    """What was injected, where, and when."""

    kind: str
    node_id: int
    time_ns: int
    trigger: str
    lost_frames: int = 0


class FaultInjector:
    """Schedules and logs hardware fault injections."""

    NODE_FAILURE = "node_failure"
    PROCESSOR_HALT = "processor_halt"
    MEMORY_FAILURE = "memory_failure"

    def __init__(self, sim: Simulator, machine: Machine):
        self.sim = sim
        self.machine = machine
        self.records: List[InjectionRecord] = []
        self._phase_arms: Dict[str, List[tuple]] = {}
        #: callbacks fired right after any injection (the OS test harness
        #: uses this to start its containment-latency stopwatch).
        self.observers: List[Callable[[InjectionRecord], None]] = []

    # -- immediate / timed injection -------------------------------------

    def inject(self, kind: str, node_id: int, trigger: str = "manual") -> InjectionRecord:
        """Inject a fault right now."""
        if kind == self.NODE_FAILURE:
            lost = self.machine.halt_node(node_id)
        elif kind == self.PROCESSOR_HALT:
            self.machine.halt_processor_only(node_id)
            lost = set()
        elif kind == self.MEMORY_FAILURE:
            lost = self.machine.fail_memory_range(node_id)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        rec = InjectionRecord(
            kind=kind, node_id=node_id, time_ns=self.sim.now,
            trigger=trigger, lost_frames=len(lost),
        )
        self.records.append(rec)
        for obs in list(self.observers):
            obs(rec)
        return rec

    def inject_at(self, time_ns: int, kind: str, node_id: int,
                  trigger: str = "timed") -> None:
        """Inject a fault at an absolute simulation time."""
        delay = max(0, time_ns - self.sim.now)
        self.sim.schedule(delay, self._fire_if_alive, kind, node_id, trigger)

    def _fire_if_alive(self, kind: str, node_id: int, trigger: str) -> None:
        if not self.machine.nodes[node_id].halted:
            self.inject(kind, node_id, trigger)

    # -- phase-triggered injection -----------------------------------------
    #
    # Workloads and kernels publish named phases ("process_creation",
    # "cow_search").  Arming a phase makes the next occurrence inject the
    # fault, which is how the paper hit faults "during process creation"
    # and "during copy-on-write search".

    def arm_phase(self, phase: str, kind: Optional[str], node_id: int) -> None:
        """Queue an arm on ``phase``; a ``None`` kind skips one occurrence."""
        self._phase_arms.setdefault(phase, []).append((kind, node_id))

    def phase_hit(self, phase: str) -> Optional[InjectionRecord]:
        """Called by instrumented code when it enters ``phase``."""
        arms = self._phase_arms.get(phase)
        if not arms:
            return None
        kind, node_id = arms.pop(0)
        if not arms:
            del self._phase_arms[phase]
        if kind is None or self.machine.nodes[node_id].halted:
            return None
        return self.inject(kind, node_id, trigger=f"phase:{phase}")
