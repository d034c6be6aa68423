"""Campaign sharding/merging for the process-parallel fault campaign.

The merger is a pure function over shard payloads, so the edge cases
(overlapping trials, crashed workers, empty sweeps) are tested with
synthetic shards; the CLI tests run the actual pool end to end.
"""

import pytest

from repro.bench.faultexp import FaultTrialResult
from repro.bench.parallel import CampaignError, merge_inject_shards


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

