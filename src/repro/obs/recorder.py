"""The flight recorder: deterministic span tracing for a whole system.

The paper credits SimOS's deterministic replay with making the fault-
containment work debuggable ("makes it straightforward to analyze the
complex series of events that follow after a software fault", Section 6).
This module is the reproduction's equivalent: subsystems open *spans*
(named intervals of simulated time with attributes and parent links) and
emit point *events* into one bounded, system-wide recorder.

Determinism: span ids come from a private counter, timestamps from the
simulator clock, and nothing consults wall time or global randomness —
two runs with the same seed produce byte-identical telemetry.

Overhead discipline: an absent recorder is ``None``.  Every
instrumented hot path reads its ``obs`` handle and tests ``is not None``
before building a span, so an unobserved run costs one attribute load
and one branch per site and makes no call into this module.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

#: span/event categories (also the Chrome-trace thread names)
OBS_RPC = "rpc"
OBS_RECOVERY = "recover"
OBS_AGREEMENT = "agree"
OBS_CAREFUL = "careful"
OBS_FIREWALL = "firewall"
OBS_DETECT = "detect"
OBS_FAULT = "fault"
OBS_PROC = "proc"


class Span:
    """One named interval of simulated time."""

    __slots__ = ("span_id", "parent_id", "name", "category", "cell",
                 "start_ns", "end_ns", "attrs")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 category: str, cell: Optional[int], start_ns: int,
                 attrs: Dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.cell = cell
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "cell": self.cell,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
        }


class TelemetryEvent:
    """One point-in-time occurrence (fault injected, hint raised, ...)."""

    __slots__ = ("time_ns", "name", "category", "cell", "attrs")

    def __init__(self, time_ns: int, name: str, category: str,
                 cell: Optional[int], attrs: Dict[str, Any]):
        self.time_ns = time_ns
        self.name = name
        self.category = category
        self.cell = cell
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "time_ns": self.time_ns,
            "name": self.name,
            "category": self.category,
            "cell": self.cell,
            "attrs": self.attrs,
        }


class FlightRecorder:
    """Bounded, deterministic store of spans and events for one system."""

    def __init__(self, sim, span_capacity: int = 200_000,
                 event_capacity: int = 200_000):
        self.sim = sim
        self.span_capacity = span_capacity
        self.event_capacity = event_capacity
        self.spans: Deque[Span] = deque(maxlen=span_capacity)
        self.events: Deque[TelemetryEvent] = deque(maxlen=event_capacity)
        self.spans_dropped = 0
        self.events_dropped = 0
        self._next_span = 1

    # -- recording ------------------------------------------------------

    def begin(self, name: str, category: str, cell: Optional[int] = None,
              parent: int = 0, **attrs) -> Span:
        """Open a span; ``parent`` is a span id (or a Span, or 0)."""
        parent_id = parent.span_id if isinstance(parent, Span) else \
            int(parent or 0)
        span = Span(self._next_span, parent_id, name, category, cell,
                    self.sim.now, attrs)
        self._next_span += 1
        if len(self.spans) >= self.span_capacity:
            self.spans_dropped += 1  # deque evicts the oldest span
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        if span.end_ns is None:
            span.end_ns = self.sim.now
        if attrs:
            span.attrs.update(attrs)

    def event(self, name: str, category: str, cell: Optional[int] = None,
              **attrs) -> None:
        if len(self.events) >= self.event_capacity:
            self.events_dropped += 1
        self.events.append(
            TelemetryEvent(self.sim.now, name, category, cell, attrs))

    # -- querying -------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def events_named(self, name: str) -> List[TelemetryEvent]:
        return [e for e in self.events if e.name == name]

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]


def attach_flight_recorder(system, recorder: Optional[FlightRecorder] = None,
                           ) -> FlightRecorder:
    """Wire a recorder into a booted :class:`~repro.core.hive.HiveSystem`.

    Uses only stable observer interfaces: ``cell.obs`` handles (read by
    the RPC, recovery, careful-reference, and firewall instrumentation),
    ``detector.observers``, ``panic_hooks``, ``injector.observers``,
    ``coordinator.observers``, and ``registry.register_observers`` so
    cells rebooted during reintegration are instrumented too.
    """
    rec = recorder if recorder is not None else FlightRecorder(system.sim)
    system.recorder = rec
    registry = system.registry
    coordinator = registry.coordinator
    if coordinator is not None:
        coordinator.obs = rec
        coordinator.agreement.obs = rec

    def on_injection(record) -> None:
        try:
            cell = registry.cell_of_node(record.node_id)
        except KeyError:
            cell = None
        rec.event("fault.inject", OBS_FAULT, cell=cell,
                  kind=record.kind, node=record.node_id,
                  trigger=record.trigger)

    system.injector.observers.append(on_injection)

    def on_recovery(record) -> None:
        rec.event("recovery.done", OBS_RECOVERY,
                  round=record.round_id,
                  dead=sorted(record.dead_cells),
                  discarded_pages=record.discarded_pages,
                  files_lost=record.files_lost,
                  killed_processes=record.killed_processes,
                  surviving_processes=record.surviving_processes)

    if coordinator is not None:
        coordinator.observers.append(on_recovery)

    def wire_cell(cell) -> None:
        if cell.obs is rec:
            return  # already instrumented (idempotent re-attach)
        cell.obs = rec

        def on_hint(hint) -> None:
            rec.event("detect.hint", OBS_DETECT, cell=hint.reporter,
                      suspect=hint.suspect, reason=hint.reason)

        cell.detector.observers.append(on_hint)

        def on_panic(reason: str, _cell_id: int = cell.kernel_id) -> None:
            rec.event("panic", OBS_PROC, cell=_cell_id, reason=reason)

        cell.panic_hooks.append(on_panic)

    for cell in system.cells:
        wire_cell(cell)
    registry.register_observers.append(wire_cell)
    return rec
