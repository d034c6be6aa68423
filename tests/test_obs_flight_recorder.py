"""Tests for the flight recorder: spans, wiring, exporters, determinism."""

import enum
import gc
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.bench.faultexp import (
    HW_RANDOM_TIME,
    FaultExperimentRunner,
    boot_faultexp_system,
)
from repro.core.hive import boot_hive
from repro.core.rpc import RpcRemoteError
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import (
    FlightRecorder,
    Span,
    attach_flight_recorder,
    attach_provenance,
    availability_report,
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

    def test_ring_matches_the_deque_recorder(self):
        # The records below are what the deque-of-objects recorder this
        # one replaced exported for the same calls: span 1 is evicted
        # (its late end() touches nothing, not even span 6 in its row),
        # an unhashable attr round-trips, and 1, 1.0 and True stay apart.
        clock = SimpleNamespace(now=10)
        rec = FlightRecorder(clock, span_capacity=5)
        a = rec.begin("rpc.call", "rpc", cell=0, op="ping", dst=1)
        clock.now = 20
        b = rec.begin("recovery.round", "recover", parent=a, dead=[3])
        clock.now = 30
        rec.end(a, outcome="ok")
        c = rec.begin("careful.read_object", "careful", cell=1, parent=b,
                      start_ns=45, target=2)
        clock.now = 50
        d = rec.begin("rpc.call", "rpc", cell=0, op="ping", dst=1)
        clock.now = 60
        rec.end(b, outcome="recovered")
        rec.end(b, killed=[4])
        e = rec.begin("x", "rpc", n=1)
        clock.now = 70
        f = rec.begin("x", "rpc", n=True)
        rec.end(a, outcome="late")
        rec.end(e, n=1.0)
        rec.end(c)
        assert [a, b, c, d, e, f] == [1, 2, 3, 4, 5, 6]
        assert rec.spans_dropped == 1 and len(rec.spans) == 5
        assert [s.to_dict() for s in rec.spans] == [
            {"type": "span", "span_id": 2, "parent_id": 1,
             "name": "recovery.round", "category": "recover", "cell": None,
             "start_ns": 20, "end_ns": 60,
             "attrs": {"dead": [3], "outcome": "recovered", "killed": [4]}},
            {"type": "span", "span_id": 3, "parent_id": 2,
             "name": "careful.read_object", "category": "careful",
             "cell": 1, "start_ns": 45, "end_ns": 70,
             "attrs": {"target": 2}},
            {"type": "span", "span_id": 4, "parent_id": 0,
             "name": "rpc.call", "category": "rpc", "cell": 0,
             "start_ns": 50, "end_ns": None,
             "attrs": {"op": "ping", "dst": 1}},
            {"type": "span", "span_id": 5, "parent_id": 0, "name": "x",
             "category": "rpc", "cell": None, "start_ns": 60, "end_ns": 70,
             "attrs": {"n": 1.0}},
            {"type": "span", "span_id": 6, "parent_id": 0, "name": "x",
             "category": "rpc", "cell": None, "start_ns": 70,
             "end_ns": None, "attrs": {"n": True}},
        ]
        assert type(list(rec.spans)[-1].attrs["n"]) is bool
        assert [s.span_id for s in rec.spans_named("x", "rpc.call")] == \
            [4, 5, 6]
        assert [s.span_id for s in rec.children_of(b)] == [3]

    def test_attrs_keep_their_value_and_exact_type(self):
        # Interned attrs are the recorder's own copy, so a caller that
        # mutates a list afterwards changes no record; an instance of a
        # builtin's subclass, which marshal cannot write, keeps its own
        # code and its type.
        class Level(enum.IntEnum):
            ONE = 1

        rec = FlightRecorder(SimpleNamespace(now=0))
        dead = [3]
        for value in (1, Level.ONE, True, dead, 1, Level.ONE):
            rec.end(rec.begin("x", "rpc", v=value), v=value)
        dead.append(4)
        got = [s.attrs["v"] for s in rec.spans]
        assert got == [1, Level.ONE, True, [3], 1, Level.ONE]
        assert [type(v) for v in got] == [int, Level, bool, list, int, Level]

    def test_end_is_idempotent(self):
        hive = boot_small()
        rec = FlightRecorder(hive.sim)
        span = rec.begin("s", "rpc")
        rec.end(span, outcome="ok")
        (first,) = rec.spans
        hive.sim.run(until=hive.sim.now + 1_000)
        rec.end(span, extra=1)
        (again,) = rec.spans
        assert again.end_ns == first.end_ns < hive.sim.now
        assert again.attrs == {"outcome": "ok", "extra": 1}


@pytest.fixture(scope="module")
def traced_trial():
    """A finished ``hw_random`` trial at seed 1995, observed the way a
    campaign observes it and followed by its availability ledger, run
    under tracemalloc with every ``Span`` construction counted.

    Returns the ``Span`` objects built, the spans the ledger reads, and
    the bytes the recorder's spans held: what re-initialising it in
    place frees once its events are cleared."""
    built = []
    real_init = Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[2])
        real_init(self, *args, **kwargs)

    system = boot_faultexp_system(seed=1995)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Span, "__init__", counting_init)
        gc.collect()
        tracemalloc.start()
        try:
            recorder = attach_flight_recorder(system)
            attach_provenance(system)
            trial = FaultExperimentRunner().run_trial_on(
                system, "hw_random", 1995)
            report = availability_report(recorder, system)
            n_built = len(built)
            ledger_spans = sum(
                s.name in ("recovery.round", "recovery.master")
                for s in recorder.spans)
            n_spans = len(recorder.spans)
            recorder.events.clear()
            gc.collect()
            before, _peak = tracemalloc.get_traced_memory()
            recorder.__init__(recorder.sim)
            gc.collect()
            held = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert trial.contained and report["rounds_recovered"] == 1
    return {"built": n_built, "ledger_spans": ledger_spans,
            "spans": n_spans, "held": held}


class TestHostMemory:
    def test_trial_recorder_holds_little(self, traced_trial):
        """The recorder of a finished trial holds its 37,209 spans in
        under 2 MiB (13.7 MiB while each span was an object with an attrs
        dict)."""
        assert traced_trial["spans"] == 37_209
        assert traced_trial["held"] < 2 * 2 ** 20

    def test_ledger_builds_only_its_own_spans(self, traced_trial):
        """Recording builds no ``Span``; the ledger builds only the
        recovery spans it reads."""
        assert 0 < traced_trial["built"] <= traced_trial["ledger_spans"]


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
