"""Campaign sharding/merging for the process-parallel runners.

The mergers are pure functions over shard payloads, so the edge cases
(overlapping cells, crashed workers, empty sweeps, determinism drift)
are tested with synthetic shards; one small real campaign exercises the
actual pool end to end.
"""

import pytest

from repro.bench.faultexp import FaultTrialResult
from repro.bench.parallel import (
    DETERMINISTIC_KEYS,
    CampaignError,
    merge_bench_shards,
    merge_inject_shards,
    run_suite,
)


def _row(wall_s=1.0, **overrides):
    row = {"config": "small", "nodes": 4, "cells": 4, "cpus_per_node": 4,
           "seed": 1995, "sim_ms": 150, "events": 100, "accesses": 5000,
           "driver_accesses": 4800, "writable_page_samples": 10,
           "samples": 3, "recovery_detected": True, "discarded_pages": 2,
           "wall_s": wall_s, "boot_wall_s": 0.1,
           "events_per_sec": 100 / wall_s,
           "accesses_per_sec": 5000 / wall_s}
    row.update(overrides)
    return row


def _bench_shard(repeat=0, config="small", status="ok", **row_overrides):
    shard = {"status": status, "config": config, "seed": 1995,
             "repeat": repeat}
    if status == "ok":
        shard["row"] = _row(config=config, **row_overrides)
    else:
        shard["error"] = "Traceback: boom"
    return shard


class TestMergeBenchShards:
    def test_empty_campaign_raises(self):
        with pytest.raises(CampaignError, match="empty campaign"):
            merge_bench_shards([], seed=1995)

    def test_overlapping_cells_raise(self):
        shards = [_bench_shard(repeat=0), _bench_shard(repeat=0)]
        with pytest.raises(CampaignError, match="overlapping shards"):
            merge_bench_shards(shards, seed=1995)

    def test_failed_shard_reported_not_raised(self):
        shards = [_bench_shard(repeat=0),
                  _bench_shard(repeat=1, status="error")]
        payload = merge_bench_shards(shards, seed=1995)
        assert "small" in payload["results"]
        assert payload["failures"] == [
            {"config": "small", "seed": 1995, "repeat": 1,
             "error": "Traceback: boom"}]

    def test_determinism_drift_raises(self):
        shards = [_bench_shard(repeat=0),
                  _bench_shard(repeat=1, accesses=5001)]
        with pytest.raises(CampaignError, match="non-deterministic"):
            merge_bench_shards(shards, seed=1995)

    def test_best_of_and_wall_spread(self):
        shards = [_bench_shard(repeat=0, wall_s=2.0),
                  _bench_shard(repeat=1, wall_s=1.0),
                  _bench_shard(repeat=2, wall_s=3.0)]
        payload = merge_bench_shards(shards, seed=1995)
        row = payload["results"]["small"]
        assert row["wall_s"] == 1.0          # best-of
        assert row["wall_s_min"] == 1.0
        assert row["wall_s_max"] == 3.0
        assert row["wall_s_mean"] == 2.0
        assert row["repeats"] == 3
        assert "failures" not in payload


def _trial_dict(scenario="hw_random", seed=1995, contained=True):
    return FaultTrialResult(
        scenario=scenario, seed=seed, injected_at_ns=50_000_000,
        detected=True, last_entry_latency_ns=2_000_000,
        contained=contained, survivors_alive=True, outputs_ok=True,
        check_ok=True, recovery_duration_ns=9_000_000).to_dict()


def _inject_shard(scenario="hw_random", seed=1995, status="ok"):
    shard = {"status": status, "scenario": scenario, "seed": seed}
    if status == "ok":
        shard["trial"] = _trial_dict(scenario=scenario, seed=seed)
    else:
        shard["error"] = "Traceback: boom"
    return shard


class TestMergeInjectShards:
    def test_empty_campaign_raises(self):
        with pytest.raises(CampaignError, match="empty campaign"):
            merge_inject_shards([])

    def test_overlapping_trials_raise(self):
        shards = [_inject_shard(seed=1995), _inject_shard(seed=1995)]
        with pytest.raises(CampaignError, match="overlapping shards"):
            merge_inject_shards(shards)

    def test_failed_shard_reported_not_raised(self):
        shards = [_inject_shard(seed=1995),
                  _inject_shard(seed=1996, status="error")]
        payload = merge_inject_shards(shards)
        stats = payload["scenarios"]["hw_random"]
        assert stats["trials"] == 1
        assert stats["contained"] == 1
        assert payload["failures"] == [
            {"scenario": "hw_random", "seed": 1996,
             "error": "Traceback: boom"}]

    def test_scenario_stats_aggregate_across_seeds(self):
        shards = [_inject_shard(seed=1995),
                  _inject_shard(seed=1996),
                  _inject_shard(scenario="hw_cow_search", seed=1995)]
        payload = merge_inject_shards(shards)
        assert payload["scenarios"]["hw_random"]["trials"] == 2
        assert payload["scenarios"]["hw_random"]["contained"] == 2
        assert payload["scenarios"]["hw_cow_search"]["trials"] == 1
        # Detection latencies present and compared against the paper.
        stats = payload["scenarios"]["hw_random"]
        assert stats["detection_avg_ms"] == pytest.approx(2.0)
        assert stats["paper_avg_ms"] is not None
        # Trials come back sorted by seed regardless of shard order.
        summary = payload["summaries"]["hw_random"]
        assert [t.seed for t in summary.trials] == [1995, 1996]


class TestTrialRoundTrip:
    def test_to_from_dict(self):
        trial = FaultTrialResult.from_dict(_trial_dict())
        assert trial == FaultTrialResult.from_dict(trial.to_dict())
        assert trial.scenario == "hw_random"
        assert trial.contained


class TestRealCampaign:
    """End-to-end pool run on the smallest config (seconds, not minutes)."""

    def test_bench_campaign_pool_matches_serial(self):
        # One suite, one key list: the in-process and the pooled run
        # differ in wall-clock fields only.
        wall = ("wall_s", "wall_s_min", "wall_s_max", "wall_s_mean",
                "boot_wall_s", "recovery_wall_ms", "events_per_sec",
                "accesses_per_sec")
        parallel = run_suite(["small"], seed=7, repeats=2, workers=2)
        serial = run_suite(["small"], seed=7, repeats=2, workers=1)
        assert "failures" not in parallel and "failures" not in serial
        assert parallel["parallel"]["workers"] == 2
        assert parallel["parallel"]["shards"] == 2
        prow, srow = ({k: v for k, v in payload["results"]["small"].items()
                       if k not in wall} for payload in (parallel, serial))
        assert prow == srow
        assert prow["repeats"] == 2
        assert all(key in prow for key in DETERMINISTIC_KEYS)

    def test_rpc_suite_is_best_of_its_repeats(self):
        from repro.bench.rpcbench import RPC_DETERMINISTIC_KEYS, run_rpc_suite

        (row,) = run_rpc_suite(["small"], repeats=2).values()
        assert row["repeats"] == 2
        assert row["wall_s_min"] == row["wall_s"] <= row["wall_s_max"]
        assert all(key in row for key in RPC_DETERMINISTIC_KEYS)
