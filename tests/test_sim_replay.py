"""Trace-capture tests, and what trace replay proved before it went.

Covers the event-row diff behind ``repro inject --replay``, the live
default against the rows the replay side printed on its last run (all
bench configs, moved faults), the closed ``HIVE_REPLAY`` hatch, the gzip
telemetry artifacts, and the inject campaign's fault-seed sweep with
divergence diffing.
"""

import json
import random

import pytest

from repro.bench.parallel import _warn_cpu_cap, run_inject_campaign
from repro.bench.throughput import (
    CONFIGS,
    equiv_mismatches,
    run_throughput,
)
from repro.obs.export import load_json, load_jsonl, open_artifact
from repro.obs.profile import merge_tier_snapshots
from repro.obs.recorder import TelemetryEvent
from repro.sim.oplog import divergence_point, event_rows
from tests.helpers import LAST_REPLAY_RUN, equiv_row


def _random_rows(rng: random.Random, rows: int) -> list:
    events, t = [], 0
    for _ in range(rows):
        t += rng.randint(1, 10_000)
        events.append(TelemetryEvent(
            t, rng.choice(("fault.inject", "detect.hint", "panic")),
            "x", rng.choice((None, 0, 1, 2, 3)), {}))
    return event_rows(events)


class TestOpLogPersistence:
    """A trial's event log is its recorder's ``[time_ns, name, cell]``
    rows: plain lists, diffed row by row."""

    def test_jsonable_round_trip(self):
        # The rows cross the campaign's process boundary as they are.
        rows = _random_rows(random.Random(3), 40)
        assert all(isinstance(r, list) and len(r) == 3 for r in rows)
        clone = json.loads(json.dumps(rows))
        assert clone == rows
        assert divergence_point(rows, clone)["identical_prefix"] == 40

    def test_divergence_point_identical_logs(self):
        rows = _random_rows(random.Random(5), 30)
        diff = divergence_point(rows, rows)
        assert diff["divergence_ns"] is None
        assert diff["identical_prefix"] == len(rows)
        assert diff["identical_fraction"] == 1.0
        assert divergence_point([], [])["identical_fraction"] == 1.0

    def test_divergence_point_locates_first_difference(self):
        base = _random_rows(random.Random(7), 20)
        moved = [list(r) for r in base]
        moved[12][2] = "elsewhere"
        diff = divergence_point(base, moved)
        assert diff["identical_prefix"] == 12
        assert diff["divergence_ns"] == base[12][0]
        assert diff["rows"] == {"base": 20, "other": 20}
        # A strict prefix diverges where the longer log goes on.
        diff = divergence_point(base[:15], base)
        assert diff["identical_prefix"] == 15
        assert diff["divergence_ns"] == base[15][0]
        assert diff["identical_fraction"] == 0.75


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
        # The per-wakeup form of the scenario parks once per wakeup
        # (21,099, plus the one retiring wakeup of the 21,100 rows the
        # replay read back) and yields the same row as the parked
        # default, which replays memos instead.
        recorded = run_throughput("small", channels=True, per_wakeup=True)
        assert recorded["parking"]["parks"] == 21_099
        assert recorded["parking"]["replayed_wakeups"] == 0
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
            run_throughput("small", replay=True)
        assert "replay" not in run_throughput("small")


class TestReplayObservability:
    def test_merge_tier_snapshots_folds_replay(self):
        # The merge reads the coherence and rpc sections only: a section
        # or count no shard writes any more (``replay``, ``engine``,
        # ``vector_batches``) is no error and no key.
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
        assert merged["coherence"]["inline_batches"] == 4
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
