"""Trace-capture/replay tier tests.

Covers the columnar op log's persistence round-trips, the replay-vs-live
byte-identical golden contract (all bench configs, moved faults, live
fallback on the shared coordinator), the ``HIVE_REPLAY`` escape, the gzip telemetry artifacts,
and the inject campaign's fault-seed sweep with divergence diffing.
"""

import json
import random

import numpy as np
import pytest

from repro.bench.parallel import _warn_cpu_cap, run_inject_campaign
from repro.bench.throughput import (
    CONFIGS,
    compare_replay,
    equiv_mismatches,
    record_traces,
    run_replay_sweep,
    run_throughput,
)
from repro.obs.export import load_json, load_jsonl, open_artifact
from repro.obs.profile import merge_tier_snapshots
from repro.sim.oplog import (
    COLUMNS,
    OP_MEMO,
    OpLog,
    divergence_point,
    load_oplogs,
    save_oplogs,
)
from repro.sim.replay import replay_from_env


def _random_log(rng: random.Random, rows: int) -> OpLog:
    log = OpLog(meta={"config": "rand", "seed": rng.randint(0, 99)})
    t = 0
    for _ in range(rows):
        t += rng.randint(1, 10_000)
        log.append(t, rng.randrange(4), rng.randrange(8),
                   rng.randrange(3), rng.getrandbits(40),
                   rng.choice((8, 64, 4096)),
                   latency_ns=rng.randrange(20_000),
                   slot=rng.randrange(8))
    return log.finalize()


class TestOpLogPersistence:
    def test_save_load_round_trip_random_streams(self, tmp_path):
        # Property-style: any recorded stream must survive the .npz
        # round trip column-for-column.
        for trial in range(8):
            rng = random.Random(1995 + trial)
            log = _random_log(rng, rng.randint(0, 200))
            path = str(tmp_path / f"log{trial}.npz")
            log.save(path)
            loaded = OpLog.load(path)
            assert loaded.meta == log.meta
            assert loaded.kind_names == log.kind_names
            for col in COLUMNS:
                assert np.array_equal(loaded.columns[col],
                                      log.columns[col])
                assert loaded.columns[col].dtype == log.columns[col].dtype

    def test_multi_log_archive_round_trip(self, tmp_path):
        rng = random.Random(7)
        logs = {"small": _random_log(rng, 50),
                "large": _random_log(rng, 120)}
        path = str(tmp_path / "suite.npz")
        save_oplogs(path, logs)
        loaded = load_oplogs(path)
        assert sorted(loaded) == ["large", "small"]
        for name, log in logs.items():
            assert loaded[name].meta == log.meta
            for col in COLUMNS:
                assert np.array_equal(loaded[name].columns[col],
                                      log.columns[col])

    def test_jsonable_round_trip(self):
        log = _random_log(random.Random(3), 40)
        clone = OpLog.from_jsonable(
            json.loads(json.dumps(log.to_jsonable())))
        for col in COLUMNS:
            assert np.array_equal(clone.columns[col], log.columns[col])

    def test_stream_partitions_by_cell(self):
        log = _random_log(random.Random(11), 100)
        total = sum(len(log.stream(c)["time_ns"]) for c in log.cells())
        assert total == len(log)
        for c in log.cells():
            assert (log.stream(c)["cell"] == c).all()

    def test_divergence_point_identical_logs(self):
        log = _random_log(random.Random(5), 30)
        diff = divergence_point(log, log)
        assert diff["divergence_ns"] is None
        assert diff["identical_prefix"] == len(log)
        assert diff["identical_fraction"] == 1.0


class TestReplayVsLiveGolden:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_counters_byte_identical(self, config):
        result = compare_replay(config)
        assert result["match"], result["mismatches"]
        assert result["replayed_from_trace"] > 0

    def test_moved_fault_replays_around_divergence(self):
        # The sweep moves the injection time away from the recorded
        # schedule: the prefix replays, the disturbed window falls back
        # to live execution, and the counters must still match.
        sweep = run_replay_sweep("small", trials=2)
        assert sweep["counters_match"]
        for row in sweep["rows"]:
            assert row["counters_match"], row["mismatches"]
            assert row["replayed_from_trace"] > 0
            # A moved fault must actually exercise the fallback path.
            assert row["fallback_wakeups"] > 0 or row["desyncs"] > 0

    def test_composes_with_shard_lanes(self):
        # The lanes are gone; what composes now is trace-guided and
        # live crediting on the one coordinator.  With the fault moved
        # off the recorded schedule both run in the same replay: every
        # chain is registered there, and the fallback wakeups are
        # credited by the live parked-chain path.
        log = record_traces(["small"])["small"]
        live = run_throughput("small", channels=True, inject_ms=37)
        rep = run_throughput("small", channels=True, inject_ms=37,
                             replay=log)
        assert not equiv_mismatches(live, rep)
        assert rep["parking"]["chains"] == CONFIGS["small"].num_cells
        assert rep["replay"]["chains"] == CONFIGS["small"].num_cells
        assert rep["replay"]["replayed_from_trace"] > 0
        assert rep["replay"]["fallback_wakeups"] > 0

    def test_record_then_replay_row(self):
        logs = record_traces(["small"])
        live = run_throughput("small")
        rep = run_throughput("small", replay=logs["small"])
        for key in ("events", "accesses", "driver_accesses",
                    "discarded_pages"):
            assert rep[key] == live[key]
        assert rep["replay"]["replayed_from_trace"] > 0


class TestReplayEnvEscape:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("HIVE_REPLAY", raising=False)
        assert replay_from_env() is True

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("HIVE_REPLAY", "0")
        assert replay_from_env() is False

    def test_disabled_replay_runs_live(self, monkeypatch):
        logs = record_traces(["small"])
        monkeypatch.setenv("HIVE_REPLAY", "0")
        row = run_throughput("small", replay=logs["small"])
        assert "replay" not in row


class TestReplayObservability:
    def test_merge_tier_snapshots_folds_replay(self):
        snap = {
            "coherence": {"memo_hits": 10, "inline_batches": 2,
                          "vector_batches": 1, "scalar_batches": 0},
            "rpc": {"fast_path": 5, "calls_total": 5},
            "engine": None,
            "replay": {"enabled": True, "trace_rows": 100, "chains": 4,
                       "replayed_from_trace": 80, "fallback_wakeups": 20,
                       "desyncs": 1, "resyncs": 1,
                       "trace_hit_rate": 0.8},
        }
        merged = merge_tier_snapshots([snap, snap])
        rep = merged["replay"]
        assert rep["replayed_from_trace"] == 160
        assert rep["fallback_wakeups"] == 40
        assert rep["trace_hit_rate"] == 0.8


class TestGzipArtifacts:
    def test_jsonl_round_trip_compressed_and_plain(self, tmp_path):
        rows = [{"type": "event", "time_ns": i, "category": "rpc"}
                for i in range(5)]
        for name in ("spans.jsonl", "spans.jsonl.gz"):
            path = str(tmp_path / name)
            with open_artifact(path, "w") as fh:
                for row in rows:
                    fh.write(json.dumps(row) + "\n")
            assert load_jsonl(path) == rows
        # The .gz variant must really be gzip-compressed on disk.
        raw = (tmp_path / "spans.jsonl.gz").read_bytes()
        assert raw[:2] == b"\x1f\x8b"

    def test_json_round_trip_compressed(self, tmp_path):
        payload = {"traceEvents": [{"ph": "X", "ts": 1.0}]}
        path = str(tmp_path / "trace.json.gz")
        with open_artifact(path, "w") as fh:
            json.dump(payload, fh)
        assert load_json(path) == payload


class TestInjectReplayCampaign:
    def test_cpu_cap_warning(self, capsys):
        assert _warn_cpu_cap(10_000, 1) is True
        assert "capped" in capsys.readouterr().err
        assert _warn_cpu_cap(1, 1) is False

    def test_fault_seed_sweep_diffs_against_base(self):
        payload = run_inject_campaign(
            ["hw_random"], trials=2, seed_base=7, workers=1, replay=True)
        assert payload["parallel"]["cpu_capped"] in (False, True)
        stream = payload["replay"]["hw_random"]
        assert stream["base_fault_seed"] == 7
        assert stream["trace_rows"] > 0
        (trial,) = stream["trials"]
        assert trial["fault_seed"] == 8
        # A moved fault schedule must eventually diverge the op stream.
        assert trial["divergence_ns"] is not None
        assert 0 < trial["identical_prefix"] < stream["trace_rows"]
        # Both trials ran the same workload seed and stayed contained.
        row = payload["scenarios"]["hw_random"]
        assert row["contained"] == row["trials"] == 2
