"""Tests for the flight recorder: spans, wiring, exporters, determinism."""

import json

import pytest

from repro.bench.faultexp import HW_RANDOM_TIME, FaultExperimentRunner
from repro.core.hive import boot_hive
from repro.core.rpc import RpcRemoteError
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import (
    FlightRecorder,
    attach_flight_recorder,
    render_fault_timeline,
    snapshot_system,
    to_chrome_trace,
    to_jsonl,
)
from repro.unix.cow import COW_NODE_TAG
from repro.unix.errors import CarefulReferenceFault


def boot_small(seed=3, num_cells=2):
    sim = __import__("repro.sim.engine", fromlist=["Simulator"]).Simulator()
    params = HardwareParams(num_nodes=max(num_cells, 2))
    return boot_hive(sim, num_cells=num_cells,
                     machine_config=MachineConfig(params=params, seed=seed))


class TestRecorderCore:
    def test_null_recorder_is_inert(self, monkeypatch):
        # An absent recorder is None on every handle, and an unobserved
        # run (RPCs, a node failure, agreement and a recovery round)
        # opens no span and emits no event.
        calls = []
        for name in ("begin", "end", "event"):
            monkeypatch.setattr(FlightRecorder, name,
                                lambda *a, _n=name, **k: calls.append(_n))
        sim = __import__("repro.sim.engine",
                         fromlist=["Simulator"]).Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9))
        assert hive.recorder is None and hive.provenance is None
        assert hive.watchdog is None
        assert all(c.obs is None and c.prov is None for c in hive.cells)
        assert hive.coordinator.obs is None
        assert hive.coordinator.agreement.obs is None
        cell = hive.cell(0)

        def bench():
            yield from cell.rpc.call(1, "ping", {})
            yield from cell.rpc.call(1, "ping_queued", {})

        sim.process(bench(), name="rpcbench")
        hive.injector.inject_at(50_000_000, FaultInjector.NODE_FAILURE, 3)
        sim.run(until=sim.now + 2_000_000_000)
        assert hive.coordinator.records
        assert cell.rpc.metrics.snapshot()["latency_ns.n"] == 2
        assert calls == []

    def test_span_ring_keeps_newest(self):
        hive = boot_small()
        rec = FlightRecorder(hive.sim, span_capacity=2, event_capacity=2)
        for i in range(5):
            rec.end(rec.begin(f"s{i}", "rpc"))
            rec.event(f"e{i}", "rpc")
        assert [s.name for s in rec.spans] == ["s3", "s4"]
        assert rec.spans_dropped == 3
        assert [e.name for e in rec.events] == ["e3", "e4"]
        assert rec.events_dropped == 3

    def test_end_is_idempotent(self):
        hive = boot_small()
        rec = FlightRecorder(hive.sim)
        span = rec.begin("s", "rpc")
        rec.end(span, outcome="ok")
        first_end = span.end_ns
        rec.end(span, extra=1)
        assert span.end_ns == first_end
        assert span.attrs == {"outcome": "ok", "extra": 1}


class TestRpcSpans:
    def test_call_and_server_spans_linked_across_cells(self):
        hive = boot_small(seed=3)
        rec = attach_flight_recorder(hive)
        cell = hive.cell(0)
        sim = hive.sim

        def bench():
            yield from cell.rpc.call(1, "ping", {})
            yield from cell.rpc.call(1, "ping_queued", {})

        proc = sim.process(bench(), name="rpcbench")
        sim.run_until_event(proc, deadline=sim.now + 5_000_000_000)

        calls = rec.spans_named("rpc.call")
        assert len(calls) == 2
        assert all(s.attrs["outcome"] == "ok" for s in calls)
        assert all(s.cell == 0 and s.end_ns is not None for s in calls)
        # The server-side span carries the client span as parent — the
        # cross-cell link rides in the RPC payload.
        int_serves = [s for s in rec.spans_named("rpc.serve_int")
                      if s.parent_id == calls[0].span_id]
        assert len(int_serves) == 1
        serve = int_serves[0]
        assert serve.cell == 1
        assert calls[0].start_ns <= serve.start_ns <= calls[0].end_ns
        # The queued call produces a queued server span under the same id.
        queued = [s for s in rec.spans_named("rpc.serve_queued")
                  if s.parent_id == calls[1].span_id]
        assert len(queued) == 1
        assert queued[0].attrs["outcome"] == "ok"

    def test_latency_histogram_populated(self):
        hive = boot_small(seed=3)
        attach_flight_recorder(hive)
        cell = hive.cell(0)
        sim = hive.sim

        def bench():
            for _ in range(8):
                yield from cell.rpc.call(1, "ping", {})

        proc = sim.process(bench(), name="rpcbench")
        sim.run_until_event(proc, deadline=sim.now + 5_000_000_000)
        snap = cell.rpc.metrics.snapshot()
        assert snap["latency_ns.n"] == 8
        assert snap["latency_ns.p50"] > 0

    def test_failed_call_closes_both_spans(self):
        # The error branches end their spans too: a call to an op the
        # server has no handler for ends remote_error on the client and
        # no_handler on the server.
        hive = boot_small(seed=3)
        rec = attach_flight_recorder(hive)
        cell = hive.cell(0)
        sim = hive.sim

        def bench():
            try:
                yield from cell.rpc.call(1, "no_such_op", {})
            except RpcRemoteError as exc:
                return exc.errno

        proc = sim.process(bench(), name="rpcbench")
        sim.run_until_event(proc, deadline=sim.now + 5_000_000_000)
        assert proc.value == "EOPNOTSUPP"
        (call,) = rec.spans_named("rpc.call")
        assert call.attrs["outcome"] == "remote_error"
        assert call.attrs["errno"] == "EOPNOTSUPP"
        (serve,) = rec.spans_named("rpc.serve_int")
        assert serve.parent_id == call.span_id
        assert serve.attrs["outcome"] == "no_handler"
        assert serve.end_ns is not None


class TestCarefulSpans:
    def test_failed_check_closes_its_span(self):
        hive = boot_small(seed=3)
        rec = attach_flight_recorder(hive)
        reader = hive.cell(0)
        node = hive.cell(1).cow.new_root()

        def prog():
            yield from reader.careful.read_object(1, node.kaddr,
                                                  COW_NODE_TAG)
            try:
                yield from reader.careful.read_object(1, node.kaddr + 1,
                                                      COW_NODE_TAG)
            except CarefulReferenceFault as exc:
                return exc.check

        proc = hive.sim.process(prog(), name="careful")
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**9)
        assert proc.value == "alignment"
        ok, fault = rec.spans_named("careful.read_object")
        assert ok.attrs["outcome"] == "ok" and ok.end_ns is not None
        assert fault.attrs["outcome"] == "fault"
        assert fault.attrs["check"] == "alignment"
        assert fault.end_ns is not None


class TestRecoverySpans:
    def _run_failure(self, seed=9, reintegrate=False):
        sim = __import__("repro.sim.engine",
                         fromlist=["Simulator"]).Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=seed),
                         reintegrate=reintegrate)
        rec = attach_flight_recorder(hive)
        hive.injector.inject_at(50_000_000, FaultInjector.NODE_FAILURE, 3)
        sim.run(until=sim.now + 2_000_000_000)
        return hive, rec

    def test_round_and_phase_spans(self):
        hive, rec = self._run_failure()
        rounds = [s for s in rec.spans_named("recovery.round")
                  if s.attrs.get("outcome") == "recovered"]
        assert rounds
        rspan = rounds[0]
        assert rspan.attrs["dead"] == [3]
        children = rec.children_of(rspan.span_id)
        names = {s.name for s in children}
        assert "recovery.agreement" in names
        assert "recovery.cell" in names
        # One recovery.cell span per survivor; each has the four phases.
        cell_spans = [s for s in children if s.name == "recovery.cell"]
        assert len(cell_spans) == 3
        for cs in cell_spans:
            phases = {p.name for p in rec.children_of(cs.span_id)}
            assert phases == {"recovery.flush", "recovery.barrier1",
                              "recovery.cleanup", "recovery.barrier2"}
        assert rec.events_named("recovery.done")
        assert rec.events_named("fault.inject")
        assert rec.events_named("detect.hint")

    def test_timeline_reports_phases(self):
        _hive, rec = self._run_failure()
        text = render_fault_timeline(rec)
        assert "recovery round" in text
        assert "inject" in text
        assert "first hint" in text
        assert "detection latency" in text
        assert "recovery done" in text

    def test_reintegrated_cell_is_wired(self):
        hive, rec = self._run_failure(reintegrate=True)
        # Let the master phase finish diagnostics + reboot.
        hive.sim.run(until=hive.sim.now + 60_000_000_000)
        # The master phase rebooted cell 3 — a brand-new Cell object
        # registered after attach; the registry observer must wire it.
        cell3 = hive.registry.cell_object(3)
        assert cell3 is not None and cell3.alive
        assert cell3.incarnation == 1
        assert cell3.obs is rec
        assert cell3.detector.observers
        assert cell3.panic_hooks


class TestFaultExperimentTelemetry:
    def test_timeline_matches_trial_latency(self):
        holder = {}

        def on_boot(system):
            holder["rec"] = attach_flight_recorder(system)

        runner = FaultExperimentRunner(on_boot=on_boot)
        trial = runner.run_trial(HW_RANDOM_TIME, seed=5)
        rec = holder["rec"]
        assert trial.detected
        inject = rec.events_named("fault.inject")[0]
        assert inject.time_ns == trial.injected_at_ns
        rounds = [s for s in rec.spans_named("recovery.round")
                  if 3 in s.attrs.get("dead", [])]
        assert rounds
        cell_entries = [s.start_ns
                        for s in rec.spans_named("recovery.cell")
                        if s.attrs.get("round") == rounds[0].attrs["round"]]
        measured = max(cell_entries) - inject.time_ns
        assert measured == trial.last_entry_latency_ns


class TestExportDeterminism:
    def _telemetry(self, seed):
        hive = boot_small(seed=seed)
        rec = attach_flight_recorder(hive)
        cell = hive.cell(0)
        sim = hive.sim

        def bench():
            for _ in range(16):
                yield from cell.rpc.call(1, "ping", {})

        proc = sim.process(bench(), name="rpcbench")
        sim.run_until_event(proc, deadline=sim.now + 5_000_000_000)
        return hive, rec

    def test_jsonl_byte_identical_across_same_seed_runs(self):
        hive1, rec1 = self._telemetry(seed=7)
        hive2, rec2 = self._telemetry(seed=7)
        j1, j2 = to_jsonl(rec1), to_jsonl(rec2)
        assert j1 == j2
        assert j1  # non-empty
        snap1 = json.dumps(snapshot_system(hive1), sort_keys=True)
        snap2 = json.dumps(snapshot_system(hive2), sort_keys=True)
        assert snap1 == snap2

    def test_jsonl_lines_parse_and_are_ordered(self):
        _hive, rec = self._telemetry(seed=7)
        times = []
        for line in to_jsonl(rec).splitlines():
            obj = json.loads(line)
            assert obj["type"] in ("span", "event")
            times.append(obj.get("start_ns", obj.get("time_ns")))
        assert times == sorted(times)

    def test_chrome_trace_shape(self):
        hive, rec = self._telemetry(seed=7)
        trace = to_chrome_trace(rec, hive)
        assert trace["displayTimeUnit"] == "ms"
        phs = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phs and "M" in phs
        for ev in trace["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
