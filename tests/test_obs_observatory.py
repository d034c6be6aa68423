"""Tests for the campaign observatory: mergeable stats, availability
accounting, hot-path tier profiling, and the campaign report."""

import json

import pytest

from repro.bench.report import (
    campaign_report_json,
    check_campaign_report,
    render_campaign_report,
)
from repro.obs import (
    availability_from_dicts,
    availability_report,
    merge_availability,
    merge_tier_snapshots,
    render_fault_timeline,
)
from repro.obs.recorder import Span, TelemetryEvent
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram, MetricSet

MS = 1_000_000


# ---------------------------------------------------------------------------
# synthetic telemetry builders
# ---------------------------------------------------------------------------

def span(name, start_ns, end_ns, cell=None, attrs=None, span_id=1):
    return {"type": "span", "span_id": span_id, "parent_id": 0,
            "name": name, "category": "recovery", "cell": cell,
            "start_ns": start_ns, "end_ns": end_ns, "attrs": attrs or {}}


def event(name, time_ns, cell=None, attrs=None):
    return {"type": "event", "time_ns": time_ns, "name": name,
            "category": "fault", "cell": cell, "attrs": attrs or {}}


def recovered_run(horizon=1000 * MS):
    """One hardware fault on cell 1, recovered, cell rebooted at 400 ms."""
    return [
        event("fault.inject", 1 * MS, cell=1, attrs={"kind": "hw"}),
        span("recovery.round", 2 * MS, 400 * MS,
             attrs={"round": 1, "outcome": "recovered", "dead": [1]}),
        span("recovery.master", 52 * MS, 400 * MS,
             attrs={"round": 1, "rebooted": True}),
        event("recovery.done", 52 * MS,
              attrs={"round": 1, "discarded_pages": 4, "files_lost": 2,
                     "killed_processes": 1, "surviving_processes": 7}),
    ]


class TestHistogramMerge:
    def test_merged_shards_equal_single_process(self):
        # The golden-merge bar: histograms filled shard-by-shard and
        # merged must be indistinguishable from one histogram that saw
        # every sample — snapshot (percentiles included) and all.
        bounds = [10, 100, 1000, 10000]
        shard_a = Histogram("lat", bounds)
        shard_b = Histogram("lat", bounds)
        single = Histogram("lat", bounds)
        samples_a = [5, 42, 42, 900, 25000]
        samples_b = [1, 7, 180, 950, 3000, 99999]
        for v in samples_a:
            shard_a.record(v)
            single.record(v)
        for v in samples_b:
            shard_b.record(v)
            single.record(v)
        shard_a.merge(shard_b)
        assert shard_a.snapshot() == single.snapshot()

    def test_merge_rejects_bounds_mismatch(self):
        a = Histogram("x", [1, 2])
        b = Histogram("x", [1, 3])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_dict_roundtrip(self):
        h = Histogram("x", [10, 100])
        for v in (3, 30, 300):
            h.record(v)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.snapshot() == h.snapshot()
        assert clone.name == h.name

    def test_metricset_merge(self):
        a, b = MetricSet(), MetricSet()
        a.counter("calls").value = 3
        b.counter("calls").value = 4
        b.counter("only_b").value = 1
        a.histogram("lat", [10, 100]).record(5)
        b.histogram("lat", [10, 100]).record(50)
        b.histogram("only_b_h", [1]).record(1)
        a.merge(b)
        assert a.counter("calls").value == 7
        assert a.counter("only_b").value == 1
        assert a.histogram("lat", [10, 100]).total == 2
        assert a.histogram("only_b_h", [1]).total == 1
        # b is untouched
        assert b.counter("calls").value == 4


class TestAvailability:
    def test_single_recovered_fault(self):
        rep = availability_from_dicts(recovered_run(), cell_ids=[0, 1],
                                      horizon_ns=1000 * MS)
        dead = rep["cells"]["1"]
        ok = rep["cells"]["0"]
        # cell 1: down from its inject (1 ms) to reboot (400 ms)
        assert dead["dead_ns"] == 399 * MS
        assert dead["faults"] == 1
        # cell 0: suspended round start (2 ms) -> recovery.done (52 ms)
        assert ok["suspended_ns"] == 50 * MS
        assert ok["up_ns"] == 950 * MS
        assert ok["availability"] == pytest.approx(0.95)
        assert rep["recovery_latency_ns"]["n"] == 1
        assert rep["recovery_latency_ns"]["max"] == 50 * MS
        assert rep["detection_latency_ns"]["max"] == 1 * MS
        assert rep["work_lost"]["discarded_pages"] == 4
        assert rep["work_lost"]["surviving_processes"] == 7
        assert rep["rounds_recovered"] == 1

    def test_correlated_multi_cell_faults_share_one_round(self):
        # Two cells die inside one recovery window; each must be
        # accounted dead from its *own* inject, survivors suspended once.
        records = [
            event("fault.inject", 1 * MS, cell=1, attrs={"kind": "hw"}),
            event("fault.inject", 3 * MS, cell=2, attrs={"kind": "hw"}),
            span("recovery.round", 5 * MS, 300 * MS,
                 attrs={"round": 1, "outcome": "recovered",
                        "dead": [1, 2]}),
            span("recovery.master", 60 * MS, 300 * MS,
                 attrs={"round": 1, "rebooted": True}),
            event("recovery.done", 60 * MS,
                  attrs={"round": 1, "discarded_pages": 10,
                         "files_lost": 0, "killed_processes": 2,
                         "surviving_processes": 4}),
        ]
        rep = availability_from_dicts(records, cell_ids=[0, 1, 2, 3],
                                      horizon_ns=1000 * MS)
        assert rep["cells"]["1"]["dead_ns"] == 299 * MS
        assert rep["cells"]["2"]["dead_ns"] == 297 * MS
        for survivor in ("0", "3"):
            assert rep["cells"][survivor]["suspended_ns"] == 55 * MS
            assert rep["cells"][survivor]["dead_ns"] == 0
        assert rep["faults_injected"] == 2
        # both inject->round-start latencies recorded
        assert rep["detection_latency_ns"]["n"] == 2
        assert rep["detection_latency_ns"]["max"] == 4 * MS
        assert rep["recovery_latency_ns"]["n"] == 1

    def test_unrecovered_panic_dead_to_horizon(self):
        records = [event("panic", 10 * MS, cell=2, attrs={})]
        rep = availability_from_dicts(records, cell_ids=[0, 2],
                                      horizon_ns=100 * MS)
        assert rep["cells"]["2"]["dead_ns"] == 90 * MS
        assert rep["cells"]["0"]["dead_ns"] == 0
        assert rep["rounds_recovered"] == 0

    def test_voted_down_round_suspends_everyone(self):
        records = [
            span("recovery.round", 10 * MS, 30 * MS,
                 attrs={"round": 1, "outcome": "voted_down", "dead": []}),
        ]
        rep = availability_from_dicts(records, cell_ids=[0, 1],
                                      horizon_ns=100 * MS)
        for cid in ("0", "1"):
            assert rep["cells"][cid]["suspended_ns"] == 20 * MS
            assert rep["cells"][cid]["dead_ns"] == 0

    def test_merge_matches_single_and_is_associative(self):
        rep_a = availability_from_dicts(recovered_run(), cell_ids=[0, 1],
                                        horizon_ns=1000 * MS)
        rep_b = availability_from_dicts(recovered_run(), cell_ids=[0, 1],
                                        horizon_ns=1000 * MS)
        merged = merge_availability([rep_a, rep_b], labels=["t0", "t1"])
        assert merged["horizon_ns"] == 2000 * MS
        assert merged["cells"]["1"]["dead_ns"] == 2 * 399 * MS
        assert merged["recovery_latency_ns"]["n"] == 2
        # identical shards keep identical percentiles
        assert (merged["recovery_latency_ns"]["p99"]
                == rep_a["recovery_latency_ns"]["p99"])
        assert merged["work_lost"]["discarded_pages"] == 8
        assert merged["work_lost"]["per_fault_discarded_pages"] == 4.0
        assert [r["trial"] for r in merged["rounds"]] == ["t0", "t1"]
        # associativity: merging a merged ledger is the same as merging
        # all shards flat
        nested = merge_availability([merge_availability([rep_a]), rep_b])
        flat = merge_availability([rep_a, rep_b])
        assert json.dumps(nested, sort_keys=True) == \
            json.dumps(flat, sort_keys=True)

    def test_report_is_json_safe_and_deterministic(self):
        rep1 = availability_from_dicts(recovered_run(), cell_ids=[0, 1])
        rep2 = availability_from_dicts(recovered_run(), cell_ids=[0, 1])
        assert json.dumps(rep1, sort_keys=True) == \
            json.dumps(rep2, sort_keys=True)


class _FakeRecorder:
    """Just enough of FlightRecorder for the timeline exporter."""

    def __init__(self, spans, events):
        self.spans = spans
        self.events = events

    def spans_named(self, *names):
        return [s for s in self.spans if s.name in names]

    def events_named(self, name):
        return [e for e in self.events if e.name == name]


class TestFaultTimelineExporter:
    def _round_span(self, start, end, attrs):
        s = Span(1, 0, "recovery.round", "recovery", None, start, attrs)
        s.end_ns = end
        return s

    def test_correlated_faults_all_listed_in_one_round(self):
        events = [
            TelemetryEvent(1 * MS, "fault.inject", "fault", 1,
                           {"kind": "hw_node", "trigger": "t1"}),
            TelemetryEvent(3 * MS, "fault.inject", "fault", 2,
                           {"kind": "hw_node", "trigger": "t2"}),
        ]
        rec = _FakeRecorder(
            [self._round_span(5 * MS, 300 * MS,
                              {"round": 1, "outcome": "recovered",
                               "dead": [1, 2], "reason": "hints"})],
            events)
        text = render_fault_timeline(rec)
        assert "dead=[1, 2]" in text
        assert "on cell 1" in text
        assert "on cell 2" in text

    def test_sequential_faults_attributed_to_own_rounds(self):
        # Two independent faults, two rounds: the second round must not
        # re-list the first (already consumed) injection.
        events = [
            TelemetryEvent(1 * MS, "fault.inject", "fault", 1,
                           {"kind": "hw", "trigger": "a"}),
            TelemetryEvent(500 * MS, "fault.inject", "fault", 2,
                           {"kind": "hw", "trigger": "b"}),
        ]
        r1 = self._round_span(5 * MS, 100 * MS,
                              {"round": 1, "outcome": "recovered",
                               "dead": [1], "reason": "hints"})
        r2 = self._round_span(505 * MS, 600 * MS,
                              {"round": 2, "outcome": "recovered",
                               "dead": [2], "reason": "hints"})
        text = render_fault_timeline(_FakeRecorder([r1, r2], events))
        blocks = text.split("round 2:")
        assert len(blocks) == 2
        assert "on cell 1" not in blocks[1]
        assert "on cell 2" in blocks[1]
        assert "on cell 1" in blocks[0]


class TestEngineProfile:
    """The engine's own dispatch profile (``HIVE_PROFILE``, a second
    copy of the run loops) went in PR 21; cProfile on the one loop is
    the source perfbench reads, and these hold the same three facts."""

    def _workload(self, sim):
        fired = []

        def cb(tag):
            fired.append(tag)
            if len(fired) < 40:
                sim.schedule((len(fired) % 7) * 1000, cb,
                             f"t{len(fired)}")
                sim.schedule(0, cb, f"n{len(fired)}")

        sim.schedule(10, cb, "seed")
        sim.run(until=10_000_000)
        return fired

    def test_profile_counts_match_events_processed(self):
        import cProfile
        import pstats

        sim = Simulator()
        profiler = cProfile.Profile()
        profiler.enable()
        fired = self._workload(sim)
        profiler.disable()
        calls = {fn[2]: stat[0]
                 for fn, stat in pstats.Stats(profiler).stats.items()}
        assert calls["cb"] == len(fired) == sim.events_processed

    def test_profiled_run_is_equivalent(self, monkeypatch):
        plain = Simulator()
        fired_plain = self._workload(plain)
        monkeypatch.setenv("HIVE_PROFILE", "1")
        prof = Simulator()
        fired_prof = self._workload(prof)
        assert fired_prof == fired_plain
        assert prof.events_processed == plain.events_processed
        assert prof.now == plain.now

    def test_profile_off_by_default(self, monkeypatch):
        # ... and with the variable set: there is nothing to turn on.
        for value in (None, "1"):
            if value:
                monkeypatch.setenv("HIVE_PROFILE", value)
            assert not hasattr(Simulator(), "profile")
        with pytest.raises(TypeError):
            Simulator(profile=True)


class TestTierSnapshots:
    def _snap(self, memo=2, fast=10, calls=15):
        return {
            "coherence": {"memo_hits": memo, "inline_batches": 2,
                          "batches_total": memo + 2,
                          "memo_hit_rate": memo / (memo + 2),
                          "inline_rate": 2 / (memo + 2)},
            "rpc": {"fast_path": fast, "calls_total": calls,
                    "fast_rate": fast / calls},
        }

    def test_merge_recomputes_rates_from_counts(self):
        merged = merge_tier_snapshots([self._snap(memo=2),
                                       self._snap(memo=6)])
        coh = merged["coherence"]
        assert coh["memo_hits"] == 8
        assert coh["batches_total"] == 12
        assert coh["memo_hit_rate"] == pytest.approx(8 / 12)
        assert coh["inline_batches"] == 4
        assert coh["inline_rate"] == pytest.approx(4 / 12)
        rpc = merged["rpc"]
        assert rpc["calls_total"] == 30
        assert rpc["fast_rate"] == pytest.approx(20 / 30)
        assert sorted(merged) == ["coherence", "rpc"]


class TestCampaignReport:
    def _payload(self):
        avail = availability_from_dicts(recovered_run(), cell_ids=[0, 1],
                                        horizon_ns=1000 * MS)
        return {
            "scenarios": {
                "hw_random": {"workload": "pmake", "trials": 2,
                              "contained": 2, "detection_avg_ms": 17.8,
                              "detection_max_ms": 18.8,
                              "paper_avg_ms": 21, "paper_max_ms": 45,
                              "latencies_ms": [17.8, 18.8]},
            },
            "availability": avail,
            "tiers": {"coherence": None, "rpc": None, "engine": None},
        }

    def test_markdown_is_deterministic_and_has_percentiles(self):
        payload = self._payload()
        text1 = render_campaign_report(payload)
        text2 = render_campaign_report(self._payload())
        assert text1 == text2
        assert "| recovery round | 1 |" in text1
        assert "p99" in text1
        assert "| 1 | 601.000 |" in text1  # cell 1 up_ns in ms

    def test_report_ignores_bench_files_in_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        """``repro report`` renders the campaign alone: run from a
        directory full of ``BENCH_pr*.json`` files it prints the same
        bytes, markdown and JSON, as from an empty one."""
        from repro.cli import main

        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps(self._payload()))

        def reports():
            out = []
            for fmt in ("markdown", "json"):
                assert main(["report", "--from-json", str(campaign),
                             "--format", fmt, "--check"]) == 0
                out.append(capsys.readouterr().out)
            return out

        bare = tmp_path / "bare"
        bare.mkdir()
        monkeypatch.chdir(bare)
        without = reports()
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        for pr, eps in ((3, 100_000), (4, 10_000)):
            (ledger / f"BENCH_pr{pr}.json").write_text(json.dumps(
                {"results": {"large": {"events_per_sec": eps}},
                 "calibration": {"score": 100.0},
                 "parked_compare": {"counters_match": False}}))
        monkeypatch.chdir(ledger)
        assert reports() == without
        text, report = without
        assert text == render_campaign_report(self._payload())
        assert json.loads(report) == campaign_report_json(
            json.loads(campaign.read_text()))
        assert "BENCH_pr" not in text

    def test_check_passes_on_healthy_campaign(self):
        assert check_campaign_report(self._payload()) == []

    def test_check_flags_parked_counter_mismatch(self, monkeypatch,
                                                 capsys):
        """A parked-chain counter mismatch fails ``repro bench
        --compare-parked`` itself (exit 1), the gate CI relies on."""
        import repro.bench.throughput as throughput
        from repro.cli import main

        def mismatched(config, seed=1995, inject_ms=None):
            return {"config": config, "inject_ms": inject_ms,
                    "match": False,
                    "mismatches": {"events": {"per_wakeup": 1,
                                              "parked": 2}},
                    "per_wakeup_events_per_sec": 1.0,
                    "parked_events_per_sec": 1.0,
                    "parks": 0, "replayed_wakeups": 0}

        monkeypatch.setattr(throughput, "compare_parked", mismatched)
        rc = main(["bench", "--config", "small", "--compare-parked"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "COUNTER MISMATCH" in captured.err
        assert "parked vs per-wakeup: MISMATCH" in captured.out

    def test_check_takes_rpc_tiers_without_a_slow_path_key(self):
        """The ``tiers.rpc.slow_path > 0`` rule went with the slow
        twin: a row that cannot be produced needs no gate.  Campaigns
        saved while the twin existed have the key, later ones do not;
        ``--check`` and the renderer take both."""
        new_rpc = {"fast_path": 9, "calls_total": 9, "fast_rate": 1.0}
        old_rpc = dict(new_rpc, slow_path=0)
        for rpc in (new_rpc, old_rpc):
            payload = self._payload()
            # a payload saved with the engine section PR 21 dropped
            payload["tiers"] = {"coherence": None, "rpc": rpc,
                                "engine": {"dispatches_total": 5}}
            assert check_campaign_report(payload) == []
            text = render_campaign_report(payload)
            assert "- RPC dispatches: 9 (fast path 100.00%)" in text
            assert "engine dispatches" not in text

    def test_rpc_bench_rows_carry_their_dispatch_tiers(self):
        from repro.bench.rpcbench import run_rpc_bench

        row = run_rpc_bench("small", seed=11)
        rpc = row["tiers"]["rpc"]
        assert rpc["fast_path"] == rpc["calls_total"] == row["calls"] > 0
        assert rpc["fast_rate"] == 1.0

    def test_check_flags_rounds_at_once_and_a_cell_confirmed_twice(self):
        """One round at a time: a round that starts before the last one
        is done, or confirms a cell that a round confirmed and did not
        reboot, fails ``--check``.  A second failure after a reboot is
        a second round, not a problem."""
        at_once = [
            event("fault.inject", 1 * MS, cell=1, attrs={"kind": "hw"}),
            span("recovery.round", 2 * MS, 100 * MS, attrs={
                "round": 1, "outcome": "recovered", "dead": [1]}),
            span("recovery.round", 3 * MS, 100 * MS, span_id=2, attrs={
                "round": 2, "outcome": "recovered", "dead": [1]}),
        ]
        payload = self._payload()
        payload["availability"] = merge_availability(
            [availability_from_dicts(at_once, cell_ids=[0, 1],
                                     horizon_ns=1000 * MS)],
            labels=["t0"])
        assert check_campaign_report(payload) == [
            "trial t0: round 2 overlaps an earlier round",
            "trial t0: round 2 confirms cell 1 dead again"]
        after_reboot = recovered_run() + [
            event("fault.inject", 500 * MS, cell=1, attrs={"kind": "hw"}),
            span("recovery.round", 501 * MS, 600 * MS, span_id=2, attrs={
                "round": 2, "outcome": "recovered", "dead": [1]}),
        ]
        payload["availability"] = availability_from_dicts(
            after_reboot, cell_ids=[0, 1], horizon_ns=1000 * MS)
        assert payload["availability"]["rounds"][0]["reboot_ns"] == 400 * MS
        assert check_campaign_report(payload) == []

    def test_check_flags_missing_availability_and_failures(self):
        problems = check_campaign_report(
            {"failures": [{"scenario": "hw_random", "seed": 7}]})
        assert any("availability" in p for p in problems)
        assert any("seed 7" in p for p in problems)


def _reference_availability_report(recorder, system=None, horizon_ns=None):
    """The ledger as it was built before it read only its own records:
    every span and event turned into a dict, all of them handed to the
    derivation.  Kept as the reference the live path must match."""
    records = [s.to_dict() for s in recorder.spans]
    records += [e.to_dict() for e in recorder.events]
    cell_ids = None
    if system is not None:
        cell_ids = [cell.kernel_id for cell in system.cells]
        if horizon_ns is None:
            horizon_ns = system.sim.now
    return availability_from_dicts(records, cell_ids=cell_ids,
                                   horizon_ns=horizon_ns)


def _dump(report):
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def hw_random_trial():
    """A finished ``hw_random`` trial at seed 1995, observed the way a
    campaign observes it: (system, recorder)."""
    from repro.bench.faultexp import FaultExperimentRunner, \
        boot_faultexp_system
    from repro.obs import attach_flight_recorder, attach_provenance

    system = boot_faultexp_system(seed=1995)
    recorder = attach_flight_recorder(system)
    attach_provenance(system)
    trial = FaultExperimentRunner().run_trial_on(system, "hw_random", 1995)
    assert trial.contained
    return system, recorder


class TestLedgerFromRecorder:
    """``availability_report`` converts only the records the derivation
    reads, yet reports exactly what the all-records ledger reported."""

    def test_trial_with_system_matches_reference(self, hw_random_trial):
        system, recorder = hw_random_trial
        got = availability_report(recorder, system)
        assert got["rounds_recovered"] == 1
        assert _dump(got) == _dump(
            _reference_availability_report(recorder, system))

    def test_trial_without_system_matches_reference(self, hw_random_trial):
        _system, recorder = hw_random_trial
        got = availability_report(recorder)
        assert _dump(got) == _dump(_reference_availability_report(recorder))
        assert _dump(availability_report(recorder, horizon_ns=5 * MS)) == \
            _dump(_reference_availability_report(recorder,
                                                 horizon_ns=5 * MS))

    def test_population_and_horizon_from_every_record(self):
        # Without a system, a cell seen only in a record the derivation
        # does not read, and a horizon set only by such a record, still
        # count; so does a dead cell named only by its round (6).
        hint = TelemetryEvent(2 * MS, "detect.hint", "detect", 3, {})
        rpc = Span(7, 0, "rpc.call", "rpc", 0, 1 * MS, {})
        rpc.end_ns = 900 * MS
        rnd = Span(8, 0, "recovery.round", "recovery", None, 5 * MS,
                   {"round": 1, "outcome": "recovered", "dead": [5, 6]})
        rnd.end_ns = 50 * MS
        master = Span(9, 8, "recovery.master", "recovery", 0, 20 * MS,
                      {"round": 1, "rebooted": True})
        master.end_ns = 50 * MS
        panic = TelemetryEvent(4 * MS, "panic", "proc", 5, {})
        rec = _FakeRecorder([rpc, rnd, master], [hint, panic])

        got = availability_report(rec)
        assert sorted(got["cells"]) == ["0", "3", "5", "6"]
        assert got["horizon_ns"] == 900 * MS
        assert got["cells"]["5"]["dead_ns"] == 46 * MS
        assert _dump(got) == _dump(_reference_availability_report(rec))

    def test_session_report_matches_reference(self):
        from repro.obs import attach_flight_recorder
        from repro.workloads.sessions import (SessionTrafficConfig,
                                              boot_session_system,
                                              run_session_traffic)

        system = boot_session_system()
        recorder = attach_flight_recorder(system)
        report = run_session_traffic(
            system, SessionTrafficConfig(sessions=40_000, inject_ms=50),
            recorder=recorder)
        assert report.faults == 1
        assert _dump(report.availability) == _dump(
            _reference_availability_report(recorder, system))

    def test_trial_ledger_allocates_little(self, hw_random_trial):
        """Under 1 MiB of traced allocations for one trial's ledger
        (13.4 MiB while every span and event became a dict)."""
        import gc
        import tracemalloc

        system, recorder = hw_random_trial
        gc.collect()
        tracemalloc.start()
        try:
            availability_report(recorder, system)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
