"""Fault-provenance tracer and containment-audit golden tests.

Three contracts: (1) the audit is deterministic — a same-seed trial
produces a byte-identical ``sort_keys`` JSON report; (2) the campaign
merge is lossless — the per-trial report inside a merged campaign
payload equals the report a direct single-process run produces; (3) on
the Table 7.4 fault classes every tainted interaction ends blocked or
discarded — zero absorbed — and attaching the tracer never perturbs
the simulation.
"""

import json

from repro.bench.faultexp import (
    HW_DURING_PROCESS_CREATION,
    SW_ADDRESS_MAP,
    SW_COW_TREE,
    FaultExperimentRunner,
)
from repro.obs import (
    attach_flight_recorder,
    attach_provenance,
    audit_to_chrome_trace,
    merge_audits,
    render_audit_markdown,
)

#: (scenario, seed) -> (trial_dict, audit_report, events_processed);
#: trials are seconds-long, so each is simulated once per test session.
_CACHE = {}


def _run_observed(scenario, seed, recorder, tracer):
    """(trial_dict, events_processed, system) of one trial with the
    named observers attached at boot."""
    captured = {}

    def on_boot(system):
        if recorder:
            attach_flight_recorder(system)
        if tracer:
            attach_provenance(system)
        captured["system"] = system

    trial = FaultExperimentRunner(on_boot=on_boot).run_trial(scenario, seed)
    system = captured["system"]
    return trial.to_dict(), system.sim.events_processed, system


def _run_audited(scenario, seed, with_recorder=False):
    trial, events, system = _run_observed(scenario, seed, with_recorder,
                                          True)
    return trial, system.provenance.audit_report(), events


def _audited(scenario, seed):
    key = (scenario, seed)
    if key not in _CACHE:
        _CACHE[key] = _run_audited(scenario, seed)
    return _CACHE[key]


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


class TestAuditDeterminism:
    def test_same_seed_byte_identical(self):
        _trial, first, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        _trial2, second, _events2 = _run_audited(
            HW_DURING_PROCESS_CREATION, 5)
        assert first["faults"], "no fault recorded"
        assert _dumps(first) == _dumps(second)

    def test_campaign_merge_equals_serial(self):
        from repro.bench.parallel import run_inject_campaign

        payload = run_inject_campaign([HW_DURING_PROCESS_CREATION],
                                      trials=1, seed_base=5, workers=1)
        merged = payload["audit"]
        label = f"{HW_DURING_PROCESS_CREATION}-5"
        assert sorted(merged["trials"]) == [label]
        # The campaign worker also attaches a flight recorder; recorder
        # presence must not leak into the audit payload.
        _trial, direct, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        assert _dumps(merged["trials"][label]) == _dumps(direct)
        assert _dumps(merged) == _dumps(merge_audits([direct], [label]))

    def test_recorder_does_not_perturb_audit(self):
        _trial, bare, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        _trial2, recorded, _ev = _run_audited(
            HW_DURING_PROCESS_CREATION, 5, with_recorder=True)
        assert _dumps(bare) == _dumps(recorded)


class TestContainmentVerdicts:
    def test_hw_fault_contained_zero_absorbed(self):
        trial, audit, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        assert trial["contained"]
        assert audit["verdict"] == "contained"
        verdicts = audit["summary"]["by_verdict"]
        assert verdicts.get("absorbed", 0) == 0
        assert len(audit["faults"]) == 1
        assert audit["faults"][0]["cell"] == 3

    def test_sw_fault_contained_with_near_misses(self):
        trial, audit, _events = _audited(SW_COW_TREE, 1)
        assert trial["contained"]
        assert audit["verdict"] == "contained"
        verdicts = audit["summary"]["by_verdict"]
        assert verdicts.get("absorbed", 0) == 0
        # The corrupted pointer trips careful-reference checks before
        # recovery fires: near misses with a named defense.
        assert audit["summary"]["near_misses"] >= 1
        assert audit["summary"]["by_defense"]
        # Recovery discards show up as discarded taint, and the DAG
        # roots every flow at the fault node.
        edges = audit["dag"]["edges"]
        assert any(e["channel"] == "inject" and e["src"] == "fault:t0"
                   for e in edges)
        assert all(e["verdict"] != "absorbed" for e in edges)

    def test_tracer_attach_is_invisible(self):
        # Three cases: recorder, tracer, recorder + tracer.  None of them
        # changes the trial or its event count, on a hardware fault and
        # on a kernel corruption (core/kfaults.py's hooks).  One test
        # loops over the cases so its id stays the same.
        cases = (("recorder", True, False), ("tracer", False, True),
                 ("recorder+tracer", True, True))
        for scenario, seed in ((HW_DURING_PROCESS_CREATION, 5),
                               (SW_ADDRESS_MAP, 3)):
            plain = _run_observed(scenario, seed, False, False)
            for label, recorder, tracer in cases:
                case = f"{scenario}-{seed} {label}"
                trial, events, system = _run_observed(scenario, seed,
                                                      recorder, tracer)
                assert trial == plain[0], case
                assert events == plain[1], case
                if recorder and scenario == SW_ADDRESS_MAP:
                    corrupt = system.recorder.events_named("fault.corrupt")
                    assert len(corrupt) == 1, case


class TestAuditRendering:
    def test_markdown_render(self):
        _trial, report, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        label = f"{HW_DURING_PROCESS_CREATION}-5"
        text = render_audit_markdown(merge_audits([report], [label]))
        assert "# Containment audit" in text
        assert "**contained**" in text
        assert label in text
        assert "fault:t0" in text

    def test_chrome_trace_shapes(self):
        _trial, report, _events = _audited(HW_DURING_PROCESS_CREATION, 5)
        label = f"{HW_DURING_PROCESS_CREATION}-5"
        merged = merge_audits([report], [label])
        trace = audit_to_chrome_trace(merged)
        events = trace["traceEvents"]
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert names == [f"{label} [contained]"]
        assert any(e["ph"] == "i" and e["cat"] == "taint"
                   for e in events)
        assert any(e["ph"] == "X" for e in events)
        # Single-report payloads work too (one implicit trial row).
        single = audit_to_chrome_trace(report)
        assert any(e["ph"] == "X" for e in single["traceEvents"])
        # Byte-stable for golden files.
        assert _dumps(trace) == _dumps(audit_to_chrome_trace(merged))


def _traced_hive():
    from repro.core.hive import boot_hive
    from repro.hardware.machine import MachineConfig
    from repro.sim.engine import Simulator

    hive = boot_hive(Simulator(), num_cells=4,
                     machine_config=MachineConfig(seed=1))
    return hive, attach_provenance(hive)


def _interactions(tracer, channel):
    return [(it["kind"], it["src"], it["dst"], it["frame"], it["op"],
             it["verdict"], it["defense"], it["hard"])
            for it in tracer.audit_report()["interactions"]
            if it["channel"] == channel]


class TestTracerHooks:
    """The hooks no Table 7.4 trial reaches, each driven through the
    code path that calls it."""

    def test_wild_write_burst(self):
        from repro.core.kfaults import KernelFaultInjector, KernelFaultRecord

        hive, tracer = _traced_hive()
        params, registry = hive.params, hive.registry
        # Seed 109's burst writes frames in cells 0, 1 and 2, in order.
        own, granted, guarded = 5881, 12669, 18648
        assert [registry.cell_of_node(params.node_of_frame(f))
                for f in (own, granted, guarded)] == [0, 1, 2]
        node = params.node_of_frame(granted)
        hive.machine.memory.firewalls[node].grant_node(granted, node, 0)
        tracer.fault_injected(0, kind="corrupt")
        record = KernelFaultRecord(site="test", mode="test", cell_id=0,
                                   time_ns=0, original_value=0,
                                   corrupt_value=109)
        KernelFaultInjector(hive)._wild_write_burst(hive.cell(0), 109, 3,
                                                    record)
        assert (record.wild_writes_landed, record.wild_writes_blocked) \
            == (2, 1)
        assert not hive.cell(0).alive  # the firewall bus error panics it
        assert tracer._tainted_frames == {own: "t0", granted: "t0"}
        assert _interactions(tracer, "wildwrite") == [
            ("write", 0, 1, granted, None, "absorbed", None, True),
            ("write", 0, 2, guarded, None, "blocked", "firewall", False)]

    def test_recovery_kill(self):
        """A child spawned on cell 1 whose anonymous memory's COW
        ancestry is on cell 0 dies with cell 0."""
        from repro.hardware.faults import FaultInjector

        hive, tracer = _traced_hive()
        out = {}

        def child(ctx):
            yield from ctx.touch(ctx.process.aspace.regions[0], 0)
            yield from ctx.compute(10_000_000_000)

        def parent(ctx):
            region = yield from ctx.map_anon(2)
            yield from ctx.touch(region, 0, write=True)
            out["pid"] = yield from ctx.spawn(child, "kid", target_cell=1)
            yield from ctx.compute(10_000_000_000)

        hive.spawn_init(0, parent)
        hive.sim.run(until=hive.sim.now + 100_000_000)
        hive.injector.inject(FaultInjector.NODE_FAILURE, 0)
        hive.sim.run(until=hive.sim.now + 400_000_000)
        assert hive.coordinator.records[-1].killed_processes == 1
        (kill,) = tracer.audit_report()["process_kills"]
        assert (kill["cell"], kill["pid"], kill["reason"], kill["taint"]) \
            == (1, out["pid"], "anonymous memory lost with failed cell",
                "t0")

    def test_reply_from_tainted_cell(self):
        hive, tracer = _traced_hive()
        tracer.fault_injected(1, kind="corrupt")

        def call():
            return (yield from hive.cell(0).rpc.call(1, "ping", {}))

        proc = hive.sim.process(call())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        assert proc.value == "alive"
        assert _interactions(tracer, "rpc") == [
            ("reply", 1, 0, None, "ping", "absorbed", None, False)]
