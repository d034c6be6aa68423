"""Tests for the event timeline.

``sim/trace.py``'s ``TraceLog`` went in PR 21; what it asserted holds of
the flight recorder that superseded it, so the same cases run against
``FlightRecorder`` / ``attach_flight_recorder`` and
``render_fault_timeline``; an absent recorder is ``None``.
"""

import json
from types import SimpleNamespace

from repro.cli import main
from repro.core.hive import boot_hive
from repro.core.kfaults import CORRUPT_OFF_BY_ONE_WORD, KernelFaultInjector
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.obs import (
    FlightRecorder,
    attach_flight_recorder,
    render_fault_timeline,
    to_jsonl,
)
from repro.sim.engine import Simulator


def _recorder(**capacity):
    """A recorder on a bare clock the test sets by hand."""
    clock = SimpleNamespace(now=0)
    return clock, FlightRecorder(clock, **capacity)


def _emit(clock, rec, time_ns, name, category, cell=None, **attrs):
    clock.now = time_ns
    rec.event(name, category, cell=cell, **attrs)


class TestTraceLog:
    def test_emit_and_select(self):
        clock, rec = _recorder()
        _emit(clock, rec, 100, "first", "a", cell=0)
        _emit(clock, rec, 200, "second", "b", cell=1)
        assert len(rec.events) == 2
        (first,) = rec.events_named("first")
        assert (first.time_ns, first.category, first.cell) == (100, "a", 0)
        assert [e.name for e in rec.events if e.cell == 1] == ["second"]
        assert [e.name for e in rec.events if e.time_ns >= 150] == ["second"]
        # Spans select by name and by parent.
        clock.now = 300
        outer = rec.begin("outer", "a")
        inner = rec.begin("inner", "a", parent=outer)
        assert [s.span_id for s in rec.spans_named("inner")] == [inner]
        assert [s.span_id for s in rec.children_of(outer)] == [inner]

    def test_category_filter(self):
        # The recorder keeps every category; a reader filters the export.
        clock, rec = _recorder()
        _emit(clock, rec, 0, "kept", "a")
        _emit(clock, rec, 0, "dropped", "b")
        records = [json.loads(line) for line in to_jsonl(rec).splitlines()]
        assert [r["name"] for r in records if r["category"] == "a"] == ["kept"]

    def test_capacity_bound_keeps_newest(self):
        clock, rec = _recorder(event_capacity=2)
        for i in range(5):
            _emit(clock, rec, i, str(i), "a")
        assert len(rec.events) == 2
        assert rec.events_dropped == 3
        # Ring buffer: the *end* of the timeline survives, not the start.
        assert [e.name for e in rec.events] == ["3", "4"]

    def test_render_format(self):
        clock, rec = _recorder()
        _emit(clock, rec, 1_500_000, "fault.inject", "fault", cell=3,
              kind="boom")
        text = render_fault_timeline(rec)
        assert "1.500 ms" in text
        assert "cell 3" in text and "boom" in text

    def test_null_trace_is_inert(self, monkeypatch):
        # No recorder attached: every handle is None, and a kernel
        # corruption that panics its cell traces nothing.
        calls = []
        for name in ("begin", "end", "event"):
            monkeypatch.setattr(FlightRecorder, name,
                                lambda *a, _n=name, **k: calls.append(_n))
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9))
        assert hive.recorder is None
        assert all(cell.obs is None for cell in hive.cells)

        def prog(ctx):
            region = yield from ctx.map_anon(32)
            for i in range(32):
                yield from ctx.touch(region, i, write=True)
                yield from ctx.compute(10_000_000)

        cell = hive.cell(2)
        cell.start_thread(cell.create_process("victim"), prog)
        sim.run(until=sim.now + 20_000_000)
        KernelFaultInjector(hive).corrupt_address_map(
            2, CORRUPT_OFF_BY_ONE_WORD, wild_writes=0)
        sim.run(until=sim.now + 2_000_000_000)
        assert not cell.alive
        assert calls == []

    def test_counts_by_category(self, tmp_path, capsys):
        # Counting by category is the reader's: `repro trace --from-spans`.
        clock, rec = _recorder()
        _emit(clock, rec, 0, "e1", "a")
        rec.end(rec.begin("s1", "a"))
        _emit(clock, rec, 0, "e2", "b")
        path = tmp_path / "spans.jsonl"
        path.write_text(to_jsonl(rec))
        assert main(["trace", "--from-spans", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 spans, 2 events" in out
        assert f"  {'a':>10}: 2\n  {'b':>10}: 1\n" in out


class TestSystemTracing:
    def test_fault_timeline_recorded(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9))
        rec = attach_flight_recorder(hive)
        hive.injector.inject_at(50_000_000, FaultInjector.NODE_FAILURE, 3)
        sim.run(until=sim.now + 2_000_000_000)
        assert rec.events_named("fault.inject")
        assert rec.events_named("detect.hint")
        (done,) = rec.events_named("recovery.done")
        assert done.attrs["dead"] == [3]
        assert "dead=[3]" in render_fault_timeline(rec)
        # The timeline is ordered.
        times = [e.time_ns for e in rec.events]
        assert times == sorted(times)

    def test_panic_traced(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9))
        rec = attach_flight_recorder(hive)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(32)
            for i in range(32):
                yield from ctx.touch(region, i, write=True)
                yield from ctx.compute(10_000_000)
            out["late"] = True

        cell = hive.cell(2)
        proc = cell.create_process("victim")
        cell.start_thread(proc, prog)
        sim.run(until=sim.now + 20_000_000)
        KernelFaultInjector(hive).corrupt_address_map(
            2, CORRUPT_OFF_BY_ONE_WORD, wild_writes=0)
        sim.run(until=sim.now + 2_000_000_000)
        panics = rec.events_named("panic")
        assert panics and panics[0].cell == 2

    def test_cell_registered_after_attach_is_traced(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9),
                         reintegrate=True)
        rec = attach_flight_recorder(hive)
        hive.injector.inject_at(50_000_000, FaultInjector.NODE_FAILURE, 3)
        sim.run(until=sim.now + 60_000_000_000)
        cell3 = hive.registry.cell_object(3)
        assert cell3.alive and cell3.incarnation == 1
        # The reintegrated cell was registered *after* the attach; the
        # registry observer must have wired its hint path.
        assert cell3.obs is rec and cell3.detector.observers
        before = len(rec.events_named("detect.hint"))
        cell3.failure_hint(0, "synthetic hint from reintegrated cell")
        after = rec.events_named("detect.hint")
        assert len(after) == before + 1
        assert after[-1].cell == 3
