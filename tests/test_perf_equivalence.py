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
"Last run of the twins"), are entries of the same-simulation table
(``tests/test_same_simulation.py``): the one path must keep printing
what each twin printed.
"""

import pytest

from repro.bench.faultexp import SW_COW_TREE, FaultExperimentRunner
from tests.test_same_simulation import (DIGESTS, RUNS, deterministic,
                                        output, record_key)

#: the trial, the recovery records, the discards and the span export
COW = "sw_cow_tree seed 5"


class TestSwCowTreeGolden:
    def test_identical_runs(self):
        first = output(COW)
        second = deterministic(RUNS[COW]())

        # The scenario actually exercised the paths under test.
        assert first["trial"]["detected"], "fault was never detected"
        assert first["records"], "no recovery round recorded"
        assert first["spans"]["lines"] > 10, \
            "span export suspiciously small"

        # Byte-identical JSONL span export (modulo nothing).
        assert first == second


class TestBatchVsScalarGolden:
    """The batched access path must be invisible to the simulation:
    the recovery-heaviest Table 7.4 scenario and the throughput scenario
    give the event counts, recovery records, discard counts and span
    export the scalar loop gave, byte for byte."""

    def test_sw_cow_tree_batch_toggle(self):
        assert output(COW) == DIGESTS[COW]

    def test_throughput_small_batch_toggle(self):
        assert output("throughput small") == DIGESTS["throughput small"]


class TestWheelVsHeapGolden:
    """The engine's one heap (the timer wheel in front of it is gone)
    dispatches the events the classic binary heap dispatched, in the
    same order, so *every* deterministic row key — including the engine
    event count itself — is what the heap gave."""

    def test_throughput_small_wheel_toggle(self):
        assert output("throughput small") == DIGESTS["throughput small"]

    def test_throughput_small_profile_toggle(self, monkeypatch):
        """``HIVE_PROFILE`` once selected a profiled twin of the run
        loops; set, it changes nothing of the row, no row has an engine
        section and ``Simulator`` takes no ``profile``."""
        from repro.bench.throughput import run_throughput
        from repro.sim.engine import Simulator

        monkeypatch.setenv("HIVE_PROFILE", "1")
        row = run_throughput("small", channels=True)
        assert deterministic(row) == DIGESTS["throughput small"]
        assert sorted(row["tiers"]) == ["coherence", "rpc"]
        with pytest.raises(TypeError):
            Simulator(profile=True)

    def test_rpc_bench_small_profile_toggle(self, monkeypatch):
        """The RPC scenario draws no random number, so the default seed
        (what ``repro bench --rpc`` and CI run) prints the seed-11 row;
        ``HIVE_PROFILE`` in the environment changes nothing of it."""
        from repro.bench.rpcbench import run_rpc_bench

        monkeypatch.setenv("HIVE_PROFILE", "1")
        row = run_rpc_bench("small")
        assert row["seed"] == 1995
        assert deterministic(row) == DIGESTS["rpc_bench small"]

    def test_rpc_bench_small_wheel_toggle(self):
        assert output("rpc_bench small") == DIGESTS["rpc_bench small"]


class TestRpcFastVsSlowGolden:
    """The coalesced RPC dispatch must leave every *simulated* RPC
    outcome where the step-by-step dispatch had it: counts, latencies,
    sends, retries, and the finish time.  (``events_processed`` was
    never part of this: coalescing exists to dispatch fewer engine
    events per round trip.)"""

    def test_rpc_bench_small_fast_toggle(self):
        # the mix has queued calls
        assert DIGESTS["rpc_bench small"]["served_queued"] > 0
        assert output("rpc_bench small") == DIGESTS["rpc_bench small"]

    def test_sw_cow_tree_fast_toggle(self):
        """The recovery-heaviest Table 7.4 scenario (agreement rounds,
        probe RPCs, timeouts against dead cells), without a recorder
        attached this time."""
        captured = {}
        runner = FaultExperimentRunner(
            on_boot=lambda system: captured.update(system=system))
        trial = runner.run_trial(SW_COW_TREE, seed=5)
        records = [record_key(r)
                   for r in captured["system"].coordinator.records]
        assert deterministic(trial.to_dict()) == DIGESTS[COW]["trial"]
        assert records == DIGESTS[COW]["records"]
