"""Golden determinism test for the hot-path optimization work.

The indexed firewall/coherence structures and the engine fast path must
be *invisible* to the simulation: the same seed has to produce the same
recovery timeline, the same discard counts, and a byte-identical span
export.  This test runs the paper's ``sw_cow_tree`` scenario (the most
recovery-heavy of Table 7.4: kernel data corruption, wild writes,
preemptive discard) twice and compares everything observable.
"""

from repro.bench.faultexp import SW_COW_TREE, FaultExperimentRunner
from repro.obs import attach_flight_recorder, to_jsonl

SEED = 5


def _record_key(rec):
    """Every RecoveryRecord field, in a comparable form."""
    return (
        rec.round_id,
        tuple(sorted(rec.dead_cells)),
        rec.hint_time_ns,
        rec.detection_reason,
        tuple(sorted(rec.entry_times.items())),
        rec.agreement_ns,
        rec.recovery_done_ns,
        rec.discarded_pages,
        rec.files_lost,
        rec.killed_processes,
        rec.rebooted,
    )


def _run_once(batch=None):
    captured = {}

    def on_boot(system):
        captured["recorder"] = attach_flight_recorder(system)
        captured["system"] = system
        if batch is not None:
            system.machine.coherence.batch_enabled = batch

    runner = FaultExperimentRunner(on_boot=on_boot)
    trial = runner.run_trial(SW_COW_TREE, seed=SEED)
    system = captured["system"]
    records = tuple(_record_key(r) for r in system.coordinator.records)
    discarded = sum(r.discarded_pages for r in system.coordinator.records)
    spans_jsonl = to_jsonl(captured["recorder"])
    trial_key = (
        trial.scenario, trial.seed, trial.injected_at_ns, trial.detected,
        trial.last_entry_latency_ns, trial.contained,
        trial.survivors_alive, trial.outputs_ok, trial.check_ok,
        trial.recovery_duration_ns,
    )
    return trial_key, records, discarded, spans_jsonl


class TestSwCowTreeGolden:
    def test_identical_runs(self):
        first = _run_once()
        second = _run_once()
        trial_key, records, discarded, spans = first

        # The scenario actually exercised the paths under test.
        assert trial_key[3], "fault was never detected"
        assert records, "no recovery round recorded"
        assert spans.count("\n") > 10, "span export suspiciously small"

        assert trial_key == second[0]
        assert records == second[1]
        assert discarded == second[2]
        # Byte-identical JSONL span export (modulo nothing).
        assert spans == second[3]


#: run_throughput keys that are simulated (seed-deterministic) rather
#: than wall-clock measurements.
DETERMINISTIC_ROW_KEYS = (
    "config", "nodes", "cells", "cpus_per_node", "seed", "sim_ms",
    "events", "accesses", "driver_accesses", "writable_page_samples",
    "samples", "recovery_detected", "discarded_pages",
)


class TestBatchVsScalarGolden:
    """The batched access path must be invisible to the simulation.

    Runs the recovery-heaviest Table 7.4 scenario and the throughput
    scenario with batching forced on and off, and diffs event counts,
    recovery records, discard counts, and span exports byte-for-byte.
    """

    def test_sw_cow_tree_batch_toggle(self):
        batched = _run_once(batch=True)
        scalar = _run_once(batch=False)
        assert batched[0][3], "fault was never detected"
        assert batched[0] == scalar[0]  # trial result fields
        assert batched[1] == scalar[1]  # recovery records
        assert batched[2] == scalar[2]  # discarded pages
        assert batched[3] == scalar[3]  # span export, byte-for-byte

    def test_throughput_small_batch_toggle(self):
        from repro.bench.throughput import run_throughput

        batched = run_throughput("small", seed=11, batch=True)
        scalar = run_throughput("small", seed=11, batch=False)
        assert batched["recovery_detected"]
        for key in DETERMINISTIC_ROW_KEYS:
            assert batched[key] == scalar[key], key


class TestWheelVsHeapGolden:
    """The engine timer wheel must be invisible to the simulation: the
    wheel and classic-heap dispatch loops process the same events in the
    same order, so *every* deterministic row key — including the engine
    event count itself — must match."""

    def test_throughput_small_wheel_toggle(self):
        from repro.bench.throughput import run_throughput

        wheel = run_throughput("small", seed=11, wheel=True)
        heap = run_throughput("small", seed=11, wheel=False)
        assert wheel["recovery_detected"]
        for key in DETERMINISTIC_ROW_KEYS:
            assert wheel[key] == heap[key], key

    def test_throughput_small_profile_toggle(self, monkeypatch):
        """HIVE_PROFILE=1 swaps in the profiled dispatch loops; the
        simulation (and every deterministic tier counter) must be
        unchanged, and the engine section must appear."""
        from repro.bench.throughput import run_throughput

        monkeypatch.delenv("HIVE_PROFILE", raising=False)
        plain = run_throughput("small", seed=11)
        monkeypatch.setenv("HIVE_PROFILE", "1")
        profiled = run_throughput("small", seed=11)
        for key in DETERMINISTIC_ROW_KEYS:
            assert plain[key] == profiled[key], key
        assert plain["tiers"]["engine"] is None
        engine = profiled["tiers"]["engine"]
        assert engine["dispatches_total"] == profiled["events"]
        assert engine["subsystem_wall_s"]
        assert plain["tiers"]["coherence"] == profiled["tiers"]["coherence"]
        assert plain["tiers"]["rpc"] == profiled["tiers"]["rpc"]

    def test_rpc_bench_small_profile_toggle(self, monkeypatch):
        """Pooled interrupt-service tasks sleep like processes do; the
        profiled loops must attribute their wakeups (to ``rpc``) and
        still account for every event."""
        from repro.bench.rpcbench import (
            RPC_DETERMINISTIC_KEYS,
            boot_rpc_system,
            run_rpc_bench,
        )
        from repro.obs.profile import engine_tiers

        plain = run_rpc_bench("small", seed=11)
        monkeypatch.setenv("HIVE_PROFILE", "1")
        system = boot_rpc_system("small", 11, None)
        profiled = run_rpc_bench("small", seed=11, system=system)
        for key in RPC_DETERMINISTIC_KEYS:
            assert plain[key] == profiled[key], key
        engine = engine_tiers(system.sim)
        assert engine["dispatches_total"] == system.sim.events_processed
        assert engine["subsystem_wall_s"]["rpc"] > 0

    def test_rpc_bench_small_wheel_toggle(self):
        from repro.bench.rpcbench import (
            RPC_DETERMINISTIC_KEYS,
            run_rpc_bench,
        )

        wheel = run_rpc_bench("small", seed=11, wheel=True)
        heap = run_rpc_bench("small", seed=11, wheel=False)
        assert wheel["round_trips"] > 0
        for key in RPC_DETERMINISTIC_KEYS:
            assert wheel[key] == heap[key], key


class TestRpcFastVsSlowGolden:
    """The HIVE_RPC_FAST path must leave every *simulated* RPC outcome
    unchanged: counts, latencies, sends, retries, and the finish time.
    (``events_processed`` legitimately differs — the fast path exists to
    dispatch fewer engine events per round trip.)"""

    def test_rpc_bench_small_fast_toggle(self):
        from repro.bench.rpcbench import (
            RPC_DETERMINISTIC_KEYS,
            run_rpc_bench,
        )

        fast = run_rpc_bench("small", seed=11, fast=True)
        slow = run_rpc_bench("small", seed=11, fast=False)
        assert fast["round_trips"] > 0
        assert fast["served_queued"] > 0  # mix exercises the queued path
        for key in RPC_DETERMINISTIC_KEYS:
            assert fast[key] == slow[key], key

    def test_sw_cow_tree_fast_toggle(self):
        """The recovery-heaviest Table 7.4 scenario (agreement rounds,
        probe RPCs, timeouts against dead cells) byte-for-byte."""

        def toggle(fast):
            def on_boot(system):
                for cell in system.cells:
                    cell.rpc.fast_enabled = fast

            from repro.bench.faultexp import FaultExperimentRunner
            captured = {}

            def boot_hook(system):
                on_boot(system)
                captured["system"] = system

            runner = FaultExperimentRunner(on_boot=boot_hook)
            trial = runner.run_trial(SW_COW_TREE, seed=SEED)
            system = captured["system"]
            records = tuple(_record_key(r)
                            for r in system.coordinator.records)
            return (
                (trial.scenario, trial.seed, trial.injected_at_ns,
                 trial.detected, trial.last_entry_latency_ns,
                 trial.contained, trial.survivors_alive,
                 trial.outputs_ok, trial.check_ok,
                 trial.recovery_duration_ns),
                records,
            )

        fast = toggle(True)
        slow = toggle(False)
        assert fast[0][3], "fault was never detected"
        assert fast == slow
