"""Trace-capture tests, and what trace replay proved before it went.

Covers the columnar op log's persistence round-trips, the live default
against the rows the replay side printed on its last run (all bench
configs, moved faults), the closed ``HIVE_REPLAY`` hatch, the gzip
telemetry artifacts, and the inject campaign's fault-seed sweep with
divergence diffing.
"""

import json
import random

import numpy as np
import pytest

from repro.bench.parallel import _warn_cpu_cap, run_inject_campaign
from repro.bench.throughput import (
    CONFIGS,
    equiv_mismatches,
    run_throughput,
)
from repro.obs.export import load_json, load_jsonl, open_artifact
from repro.obs.profile import merge_tier_snapshots
from repro.sim.oplog import (
    COLUMNS,
    OpLog,
    divergence_point,
    load_oplogs,
    save_oplogs,
)
from tests.helpers import LAST_REPLAY_RUN, equiv_row


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
    """Trace replay is gone; what it proved is kept.  Each test holds
    the live default to the row the replay side printed on its last
    run (``LAST_REPLAY_RUN``), channel digest and tiers included."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_counters_byte_identical(self, config):
        row = run_throughput(config, channels=True)
        assert equiv_row(row) == LAST_REPLAY_RUN[config, None]

    def test_moved_fault_replays_around_divergence(self):
        # The sweep moved the injection time off the recorded schedule
        # (these are its two instants for ``small``).  What replays
        # around the moved fault now is the parked default's memoized
        # wakeups, and the counters must still match.
        for inject_ms in (106, 153):
            row = run_throughput("small", channels=True,
                                 inject_ms=inject_ms)
            assert equiv_row(row) == LAST_REPLAY_RUN["small", inject_ms]
            assert row["parking"]["replayed_wakeups"] > 0

    def test_composes_with_shard_lanes(self):
        # The lanes are gone, and so are trace-guided chains; what is
        # left to compose is crediting on the one coordinator with a
        # fault far off the default schedule.
        row = run_throughput("small", channels=True, inject_ms=37)
        assert equiv_row(row) == LAST_REPLAY_RUN["small", 37]
        assert row["parking"]["chains"] == CONFIGS["small"].num_cells

    def test_record_then_replay_row(self):
        # The recording run is the per-wakeup form of the scenario: one
        # log row per wakeup (the 21,100 the replay read back) and the
        # same row as the parked default, which replays memos instead.
        log = OpLog()
        recorded = run_throughput("small", channels=True, record=log)
        assert len(log.finalize()) == 21_100
        assert not equiv_mismatches(recorded,
                                    run_throughput("small", channels=True))
        assert equiv_row(recorded) == LAST_REPLAY_RUN["small", None]
        assert "replay" not in recorded


class TestReplayEnvEscape:
    """The hatch is closed: ``HIVE_REPLAY`` selects nothing."""

    def test_default_on(self, monkeypatch):
        # the value that "on by default" stood for
        monkeypatch.setenv("HIVE_REPLAY", "1")
        row = run_throughput("small", channels=True)
        assert equiv_row(row) == LAST_REPLAY_RUN["small", None]

    def test_zero_disables(self, monkeypatch):
        # ... nothing: there is no replay to disable
        monkeypatch.setenv("HIVE_REPLAY", "0")
        row = run_throughput("small", channels=True)
        assert equiv_row(row) == LAST_REPLAY_RUN["small", None]

    def test_disabled_replay_runs_live(self):
        with pytest.raises(TypeError, match="replay"):
            run_throughput("small", replay=OpLog())
        assert "replay" not in run_throughput("small")


class TestReplayObservability:
    def test_merge_tier_snapshots_folds_replay(self):
        # Shard snapshots saved before PR 20 still carry a ``replay``
        # section, before PR 21 an ``engine`` one; they fold away: no
        # error, no key.
        snap = {
            "coherence": {"memo_hits": 10, "inline_batches": 2,
                          "vector_batches": 1, "scalar_batches": 0},
            "rpc": {"fast_path": 5, "calls_total": 5},
            "engine": {"nowq_dispatches": 7, "heap_dispatches": 3,
                       "wheel_routed": 1, "inline_dispatches": 0,
                       "subsystem_wall_s": {"rpc": 0.01}},
            "replay": {"enabled": True, "trace_rows": 100, "chains": 4,
                       "replayed_from_trace": 80, "fallback_wakeups": 20,
                       "desyncs": 1, "resyncs": 1,
                       "trace_hit_rate": 0.8},
        }
        merged = merge_tier_snapshots([snap, snap])
        assert sorted(merged) == ["coherence", "rpc"]
        assert merged["coherence"]["memo_hits"] == 20
        assert merged["rpc"]["calls_total"] == 10


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
