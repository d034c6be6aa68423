"""Golden determinism test for the hot-path optimization work.

The indexed firewall/coherence structures and the engine fast path must
be *invisible* to the simulation: the same seed has to produce the same
recovery timeline, the same discard counts, and a byte-identical span
export.  This test runs the paper's ``sw_cow_tree`` scenario (the most
recovery-heavy of Table 7.4: kernel data corruption, wild writes,
preemptive discard) twice and compares everything observable.

The scalar coherence loop (``HIVE_BATCH=0``), the binary-heap event
queue (``HIVE_WHEEL=0``) and the step-by-step RPC dispatch
(``HIVE_RPC_FAST=0``) were the independent twins these goldens diffed
the default path against until PR 18 deleted them.  Their last outputs,
taken at c371ead over a wider grid than these tests ran (EXPERIMENTS.md,
"Last run of the twins"), are pinned below as literals: the one path
must keep printing what each twin printed.
"""

import hashlib

import pytest

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


def _run_once():
    captured = {}

    def on_boot(system):
        captured["recorder"] = attach_flight_recorder(system)
        captured["system"] = system

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


#: what ``sw_cow_tree`` seed 5 gave under each of HIVE_BATCH=0,
#: HIVE_WHEEL=0 and HIVE_RPC_FAST=0 at c371ead (all three agreed)
TWIN_TRIAL_KEY = ("sw_cow_tree", 5, 2_088_225_995, True, 204_432_533,
                  True, True, True, True, 42_378_600)
TWIN_RECORDS = (
    (4, (3,), 2_282_558_528,
     "careful reference alignment check: addr=0x41eb0e2",
     ((0, 2_292_658_528), (1, 2_292_658_528), (2, 2_292_658_528)),
     100_000, 2_335_037_128, 0, 0, 0, False),
    (3, (3,), 2_282_557_408, "voted down twice accusing 0",
     ((0, 2_292_558_408), (1, 2_292_558_408), (2, 2_292_558_408)),
     1_000, 2_335_628_208, 0, 0, 0, False),
)
TWIN_DISCARDED = 0
TWIN_SPANS_LINES = 14_566
TWIN_SPANS_SHA256 = (
    "de826b05eaf258e9bb4deb219e8f46a1977b94cd0be47aee3e8ee72d983bcd0f")

#: run_throughput keys that are simulated (seed-deterministic) rather
#: than wall-clock measurements.
DETERMINISTIC_ROW_KEYS = (
    "config", "nodes", "cells", "cpus_per_node", "seed", "sim_ms",
    "events", "accesses", "driver_accesses", "writable_page_samples",
    "samples", "recovery_detected", "discarded_pages",
)

#: ``run_throughput("small", seed=11)`` as ``batch=False`` and
#: ``wheel=False`` each gave it at c371ead
TWIN_THROUGHPUT_ROW = {
    "config": "small", "nodes": 4, "cells": 4, "cpus_per_node": 1,
    "seed": 11, "sim_ms": 400.0, "events": 42_993, "accesses": 337_838,
    "driver_accesses": 337_584, "writable_page_samples": 960,
    "samples": 67, "recovery_detected": True, "discarded_pages": 32,
}

#: ``run_rpc_bench("small", seed=11)`` as ``fast=False`` and
#: ``wheel=False`` each gave it at c371ead
TWIN_RPC_ROW = {
    "round_trips": 1_200, "sim_now_ns": 4_111_400, "calls": 1_200,
    "send_retries": 0, "timeouts": 0, "spin_timeouts": 0, "queued": 240,
    "queued_fallback": 0, "served_interrupt": 960, "served_queued": 240,
    "latency_n": 1_200, "latency_total_ns": 16_445_600,
    "sips_sends": 2_400, "flow_control_rejections": 0,
}


def _assert_throughput_row_matches_twin():
    from repro.bench.throughput import run_throughput

    row = run_throughput("small", seed=11)
    assert set(TWIN_THROUGHPUT_ROW) == set(DETERMINISTIC_ROW_KEYS)
    for key in DETERMINISTIC_ROW_KEYS:
        assert row[key] == TWIN_THROUGHPUT_ROW[key], key


def _assert_rpc_row_matches_twin():
    from repro.bench.rpcbench import RPC_DETERMINISTIC_KEYS, run_rpc_bench

    row = run_rpc_bench("small", seed=11)
    assert set(TWIN_RPC_ROW) == set(RPC_DETERMINISTIC_KEYS)
    for key in RPC_DETERMINISTIC_KEYS:
        assert row[key] == TWIN_RPC_ROW[key], key


class TestBatchVsScalarGolden:
    """The batched access path must be invisible to the simulation:
    the recovery-heaviest Table 7.4 scenario and the throughput scenario
    give the event counts, recovery records, discard counts and span
    export the scalar loop gave, byte for byte."""

    def test_sw_cow_tree_batch_toggle(self):
        trial_key, records, discarded, spans = _run_once()
        assert trial_key == TWIN_TRIAL_KEY
        assert records == TWIN_RECORDS
        assert discarded == TWIN_DISCARDED
        assert spans.count("\n") == TWIN_SPANS_LINES
        assert (hashlib.sha256(spans.encode()).hexdigest()
                == TWIN_SPANS_SHA256)

    def test_throughput_small_batch_toggle(self):
        _assert_throughput_row_matches_twin()


class TestWheelVsHeapGolden:
    """The engine timer wheel must be invisible to the simulation: it
    dispatches the events the classic binary heap dispatched in the same
    order, so *every* deterministic row key — including the engine event
    count itself — is what the heap gave."""

    def test_throughput_small_wheel_toggle(self):
        _assert_throughput_row_matches_twin()

    def test_throughput_small_profile_toggle(self, monkeypatch):
        """``HIVE_PROFILE`` selected a profiled twin of the run loops
        until PR 21; set, it changes no ``EQUIV_KEYS`` row now, no row
        has an engine section and ``Simulator`` takes no ``profile``."""
        from repro.bench.throughput import run_throughput
        from repro.sim.engine import Simulator
        from tests.helpers import LAST_REPLAY_RUN, equiv_row

        monkeypatch.setenv("HIVE_PROFILE", "1")
        row = run_throughput("small", channels=True)
        assert equiv_row(row) == LAST_REPLAY_RUN["small", None]
        assert sorted(row["tiers"]) == ["coherence", "rpc"]
        with pytest.raises(TypeError):
            Simulator(profile=True)

    def test_rpc_bench_small_profile_toggle(self, monkeypatch):
        """The RPC scenario draws no random number, so the default seed
        (what ``repro bench --rpc`` and CI run) prints the seed-11 row;
        ``HIVE_PROFILE`` in the environment changes nothing of it."""
        from repro.bench.rpcbench import RPC_DETERMINISTIC_KEYS, run_rpc_bench

        monkeypatch.setenv("HIVE_PROFILE", "1")
        row = run_rpc_bench("small")
        assert row["seed"] == 1995
        assert {key: row[key] for key in RPC_DETERMINISTIC_KEYS} == TWIN_RPC_ROW

    def test_rpc_bench_small_wheel_toggle(self):
        _assert_rpc_row_matches_twin()


class TestRpcFastVsSlowGolden:
    """The coalesced RPC dispatch must leave every *simulated* RPC
    outcome where the step-by-step dispatch had it: counts, latencies,
    sends, retries, and the finish time.  (``events_processed`` was
    never part of this: coalescing exists to dispatch fewer engine
    events per round trip.)"""

    def test_rpc_bench_small_fast_toggle(self):
        assert TWIN_RPC_ROW["served_queued"] > 0  # mix has queued calls
        _assert_rpc_row_matches_twin()

    def test_sw_cow_tree_fast_toggle(self):
        """The recovery-heaviest Table 7.4 scenario (agreement rounds,
        probe RPCs, timeouts against dead cells), without a recorder
        attached this time."""
        captured = {}
        runner = FaultExperimentRunner(
            on_boot=lambda system: captured.update(system=system))
        trial = runner.run_trial(SW_COW_TREE, seed=SEED)
        records = tuple(_record_key(r)
                        for r in captured["system"].coordinator.records)
        assert (trial.scenario, trial.seed, trial.injected_at_ns,
                trial.detected, trial.last_entry_latency_ns,
                trial.contained, trial.survivors_alive, trial.outputs_ok,
                trial.check_ok, trial.recovery_duration_ns) == TWIN_TRIAL_KEY
        assert records == TWIN_RECORDS
