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

import marshal
from array import array
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

#: span/event categories (also the Chrome-trace thread names)
OBS_RPC = "rpc"
OBS_RECOVERY = "recover"
OBS_AGREEMENT = "agree"
OBS_CAREFUL = "careful"
OBS_FIREWALL = "firewall"
OBS_DETECT = "detect"
OBS_FAULT = "fault"
OBS_PROC = "proc"


#: the ``end_ns`` column value of a span still open
_OPEN = -1
#: how many rows the span columns grow by at a time
_CHUNK_ROWS = 4096
#: the marshal format of interning keys: it writes each value's exact
#: builtin type, so ``True``, ``1`` and ``1.0`` differ, and keeps no
#: back-references, so equal values give equal bytes
_KEY_FORMAT = 2


class Span:
    """One named interval of simulated time, as a reader sees it.

    The recorder keeps spans as columns; a ``Span`` is built only when a
    reader iterates :attr:`FlightRecorder.spans` or selects spans by
    name or parent, so changing one changes nothing recorded.
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "cell",
                 "start_ns", "end_ns", "attrs")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 category: str, cell: Optional[int], start_ns: int,
                 attrs: Dict[str, Any], end_ns: Optional[int] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.cell = cell
        self.start_ns = start_ns
        self.end_ns = end_ns
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


def _own_copy(attrs: Dict[str, Any],
              ) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """A table's copy of ``attrs`` and its interning key, or the
    caller's dict and None when marshal cannot write one of the values
    (it is then not filed: its span keeps a code of its own)."""
    try:
        key = marshal.dumps(attrs, _KEY_FORMAT)
    except ValueError:
        return attrs, None
    return marshal.loads(key), key


class _SpanView:
    """``recorder.spans``: the live spans, oldest first, each built as
    the iteration reaches it."""

    __slots__ = ("_rec",)

    def __init__(self, rec: "FlightRecorder"):
        self._rec = rec

    def __len__(self) -> int:
        return len(self._rec._live_ids())

    def __iter__(self) -> Iterator[Span]:
        return map(self._rec._build, self._rec._live_ids())


class FlightRecorder:
    """Bounded, deterministic store of spans and events for one system.

    Spans are columns, one row per span: start time, end time (-1 while
    open), parent id, and two interned codes.  The *head* code stands
    for what ``begin`` knew (name, category, cell and its attrs), the
    *tail* code for the attrs ``end`` added (0: none).  Attrs are
    interned by their marshal bytes, and the table keeps its own copy;
    a value marshal cannot write (an instance of a class that is not a
    builtin) gets a code of its own.  Ids are consecutive, so span
    ``i`` lives in row ``(i - 1) % span_capacity``: the columns grow a
    chunk of rows at a time up to ``span_capacity``, and from then on
    each ``begin`` overwrites the oldest span.
    """

    def __init__(self, sim, span_capacity: int = 200_000,
                 event_capacity: int = 200_000):
        if span_capacity < 1:
            raise ValueError("span_capacity must be at least 1")
        self.sim = sim
        self.span_capacity = span_capacity
        self.event_capacity = event_capacity
        self.events: Deque[TelemetryEvent] = deque(maxlen=event_capacity)
        self.spans_dropped = 0
        self.events_dropped = 0
        self._next_span = 1
        self._rows = 0
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._head = array("i")
        self._tail = array("i")
        #: head code -> (name, category, cell, attrs); tail code -> attrs
        self._heads: List[tuple] = []
        self._head_codes: Dict[tuple, int] = {}
        self._tails: List[Dict[str, Any]] = [{}]
        self._tail_codes: Dict[bytes, int] = {}

    # -- recording ------------------------------------------------------

    def begin(self, name: str, category: str, cell: Optional[int] = None,
              parent: int = 0, start_ns: Optional[int] = None,
              **attrs) -> int:
        """Open a span and return its id.  ``parent`` is a span id (0:
        none); ``start_ns`` defaults to now."""
        try:
            head = self._head_codes[name, category, cell,
                                    marshal.dumps(attrs, _KEY_FORMAT)]
        except (KeyError, ValueError):
            head = self._new_head(name, category, cell, attrs)
        span_id = self._next_span
        self._next_span = span_id + 1
        row = span_id - 1
        if row >= self._rows:
            row = self._make_room(row)
        self._start[row] = self.sim.now if start_ns is None else start_ns
        self._parent[row] = parent
        self._head[row] = head
        return span_id

    def end(self, span_id: int, **attrs) -> None:
        """Close a span: the first call sets its end time, and every
        call's attrs join the span's.  An evicted span is left alone."""
        if span_id <= self.spans_dropped:
            return
        row = (span_id - 1) % self.span_capacity
        if self._end[row] == _OPEN:
            self._end[row] = self.sim.now
        elif attrs and self._tail[row]:
            attrs = {**self._tails[self._tail[row]], **attrs}
        if attrs:
            try:
                self._tail[row] = self._tail_codes[
                    marshal.dumps(attrs, _KEY_FORMAT)]
            except (KeyError, ValueError):
                self._tail[row] = self._new_tail(attrs)

    def _new_head(self, name: str, category: str, cell: Optional[int],
                  attrs: Dict[str, Any]) -> int:
        code = len(self._heads)
        attrs, key = _own_copy(attrs)
        self._heads.append((name, category, cell, attrs))
        if key is not None:
            self._head_codes[name, category, cell, key] = code
        return code

    def _new_tail(self, attrs: Dict[str, Any]) -> int:
        code = len(self._tails)
        attrs, key = _own_copy(attrs)
        self._tails.append(attrs)
        if key is not None:
            self._tail_codes[key] = code
        return code

    def _make_room(self, row: int) -> int:
        """The row for a span past the columns' end: grow them by a
        chunk, or once they hold ``span_capacity`` rows, evict the
        oldest span."""
        cap = self.span_capacity
        if row < cap:
            grow = min(_CHUNK_ROWS, cap - self._rows)
            for column, fill in ((self._start, 0), (self._end, _OPEN),
                                 (self._parent, 0), (self._head, 0),
                                 (self._tail, 0)):
                column.extend(array(column.typecode, [fill]) * grow)
            self._rows += grow
            return row
        self.spans_dropped += 1
        row %= cap
        self._end[row] = _OPEN
        self._tail[row] = 0
        return row

    def event(self, name: str, category: str, cell: Optional[int] = None,
              **attrs) -> None:
        if len(self.events) >= self.event_capacity:
            self.events_dropped += 1
        self.events.append(
            TelemetryEvent(self.sim.now, name, category, cell, attrs))

    # -- querying -------------------------------------------------------

    @property
    def spans(self) -> _SpanView:
        """The live spans, oldest first (``len()`` and iteration)."""
        return _SpanView(self)

    def spans_named(self, *names: str) -> List[Span]:
        """Live spans with any of ``names``, oldest first; no other span
        is built."""
        heads = {code for code, head in enumerate(self._heads)
                 if head[0] in names}
        return self._where(self._head, heads)

    def events_named(self, name: str) -> List[TelemetryEvent]:
        return [e for e in self.events if e.name == name]

    def children_of(self, span_id: int) -> List[Span]:
        return self._where(self._parent, {span_id})

    def _live_ids(self) -> range:
        return range(max(1, self._next_span - self.span_capacity),
                     self._next_span)

    def _where(self, column: array, values: set) -> List[Span]:
        cap = self.span_capacity
        return [self._build(span_id) for span_id in self._live_ids()
                if column[(span_id - 1) % cap] in values]

    def _build(self, span_id: int) -> Span:
        row = (span_id - 1) % self.span_capacity
        name, category, cell, attrs = self._heads[self._head[row]]
        attrs = dict(attrs)
        tail = self._tail[row]
        if tail:
            attrs.update(self._tails[tail])
        end_ns = self._end[row]
        return Span(span_id, self._parent[row], name, category, cell,
                    self._start[row], attrs,
                    None if end_ns == _OPEN else end_ns)


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
