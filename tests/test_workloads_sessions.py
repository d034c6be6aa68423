"""Open-loop session traffic: substream and queueing properties.

The substream property the million-session generator rests on: every
draw of session ``sid`` is a pure function of ``(seed, sid, draw)``,
sessions own disjoint counter blocks (non-overlapping substreams), and
chunk boundaries never change what any session draws.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.sim.stats import Histogram
from repro.workloads.sessions import (DRAWS_PER_SESSION,
                                      SESSION_TYPES,
                                      SessionTrafficConfig,
                                      boot_session_system,
                                      generate_chunk,
                                      run_session_traffic,
                                      run_sessions,
                                      session_uniforms)


class TestSubstreams:
    @given(seed=st.integers(0, 2**32 - 1),
           sid=st.integers(0, 2**40),
           draw=st.integers(0, DRAWS_PER_SESSION - 1))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_in_range(self, seed, sid, draw):
        sids = np.asarray([sid], dtype=np.uint64)
        a = session_uniforms(seed, sids, draw)[0]
        b = session_uniforms(seed, sids, draw)[0]
        assert a == b
        assert 0.0 < a <= 1.0

    @given(seed=st.integers(0, 2**32 - 1),
           sid=st.integers(0, 2**40 - 2))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_sessions_do_not_share_draws(self, seed, sid):
        # Disjoint counter blocks: session sid's draws never coincide
        # with session sid+1's (across every draw index).
        sids = np.asarray([sid, sid + 1], dtype=np.uint64)
        mine = {float(session_uniforms(seed, sids[:1], d)[0])
                for d in range(DRAWS_PER_SESSION)}
        theirs = {float(session_uniforms(seed, sids[1:], d)[0])
                  for d in range(DRAWS_PER_SESSION)}
        assert not mine & theirs

    @given(sid=st.integers(0, 2**40),
           seed_a=st.integers(0, 2**31),
           seed_b=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_seeds_give_distinct_streams(self, sid, seed_a, seed_b):
        if seed_a == seed_b:
            return
        sids = np.asarray([sid], dtype=np.uint64)
        a = session_uniforms(seed_a, sids, 0)[0]
        b = session_uniforms(seed_b, sids, 0)[0]
        assert a != b

    def test_vectorized_matches_scalar(self):
        sids = np.arange(0, 257, dtype=np.uint64)
        bulk = session_uniforms(42, sids, 2)
        singles = np.asarray([
            session_uniforms(42, sids[i:i + 1], 2)[0]
            for i in range(len(sids))])
        assert np.array_equal(bulk, singles)


class TestGeneration:
    def test_chunk_boundaries_do_not_change_sessions(self):
        # One 512-session chunk == two 256-session chunks, per session.
        cfg = SessionTrafficConfig(sessions=512, seed=9)
        whole = generate_chunk(cfg, 0, 512, 0.0)
        first = generate_chunk(cfg, 0, 256, 0.0)
        second = generate_chunk(cfg, 256, 256, float(
            first["arrivals"][-1]))
        assert np.array_equal(whole["service"][:256], first["service"])
        assert np.array_equal(whole["service"][256:], second["service"])
        assert np.array_equal(whole["types"][:256], first["types"])
        assert np.allclose(whole["arrivals"][:256], first["arrivals"])
        assert np.allclose(whole["arrivals"][256:], second["arrivals"])

    def test_distributions_are_positive_and_heavy_tailed(self):
        cfg = SessionTrafficConfig(sessions=20_000, seed=3)
        chunk = generate_chunk(cfg, 0, 20_000, 0.0)
        service = chunk["service"]
        assert (service > 0).all()
        # Pareto(1.9): the tail is real — max far above the mean.
        assert service.max() > 10 * service.mean()
        inter = np.diff(chunk["arrivals"])
        assert (inter > 0).all()

    def test_mix_respects_weights(self):
        cfg = SessionTrafficConfig(sessions=50_000, seed=4,
                                   mix=(0.8, 0.1, 0.1))
        chunk = generate_chunk(cfg, 0, 50_000, 0.0)
        counts = np.bincount(chunk["types"],
                             minlength=len(SESSION_TYPES))
        assert counts[0] > 0.75 * 50_000
        assert counts.sum() == 50_000

    def test_pareto_needs_finite_mean(self):
        cfg = SessionTrafficConfig(sessions=16, service="pareto",
                                   service_shape=0.9)
        with pytest.raises(ValueError, match="finite mean"):
            generate_chunk(cfg, 0, 16, 0.0)


class TestTrafficRuns:
    def test_fault_free_run_completes_everything(self):
        cfg = SessionTrafficConfig(sessions=30_000, chunk_sessions=8192,
                                   probe_every=10_000)
        row = run_sessions(cfg)
        assert row["sessions"] == 30_000
        assert row["completed"] == 30_000
        assert row["lost"] == 0 and row["faults"] == 0
        assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0
        assert row["probes_launched"] == row["probes_completed"] > 0
        assert row["coupling_accesses"] > 0
        assert sum(row["by_type"].values()) == 30_000
        json.dumps(row)  # report must be JSON-safe

    def test_same_seed_is_deterministic(self):
        cfg = SessionTrafficConfig(sessions=20_000, inject_ms=50)
        a = run_sessions(cfg)
        b = run_sessions(cfg)
        skip = ("wall_s", "sessions_per_sec", "boot_wall_s")
        for key in a:
            if key in skip:
                continue
            assert a[key] == b[key], key

    def test_fault_loses_sessions(self):
        cfg = SessionTrafficConfig(sessions=30_000, inject_ms=60)
        row = run_sessions(cfg)
        assert row["faults"] == 1
        assert row["lost"] > 0
        assert row["sessions_lost_per_fault"] == row["lost"]
        assert row["completed"] + row["lost"] == 30_000
        assert row["availability"]["faults_injected"] == 1

    def test_no_failover_loses_dead_cell_arrivals(self):
        dead = run_sessions(SessionTrafficConfig(
            sessions=30_000, inject_ms=60, failover=False))
        assert dead["lost_arrivals"] > 0
        # A dead-cell arrival is a lost arrival only, never also lost
        # in flight: every session is counted once, and each completed
        # one has its latency recorded.
        assert dead["completed"] == sum(dead["latency_hist"]["counts"])
        assert (dead["completed"] + dead["lost"] + dead["lost_arrivals"]
                == 30_000)
        assert dead["lost"] < dead["lost_arrivals"]
        routed = run_sessions(SessionTrafficConfig(
            sessions=30_000, inject_ms=60, failover=True))
        assert routed["lost_arrivals"] == 0
        assert routed["completed"] > dead["completed"]

    @pytest.mark.parametrize("field", ["sessions", "probe_every"])
    def test_config_rejects_a_negative_count(self, field):
        with pytest.raises(ValueError, match=f"^{field} must not be "
                                             f"negative: -1$"):
            SessionTrafficConfig(**{field: -1})

    @pytest.mark.parametrize("victim", [4, 9, -1])
    def test_unknown_victim_cell_is_rejected_before_the_run(self, victim):
        system = boot_session_system()
        now, events = system.sim.now, system.sim.events_processed
        observers = list(system.injector.observers)
        with pytest.raises(ValueError, match=f"victim_cell {victim} is "
                                             f"not a cell of this system"):
            run_session_traffic(system, SessionTrafficConfig(
                sessions=1000, inject_ms=10, victim_cell=victim))
        assert (system.sim.now, system.sim.events_processed) == (now,
                                                                 events)
        assert system.injector.observers == observers


def _report_sha256(row: dict) -> str:
    """sha256 of a session report without its wall-clock fields and the
    three counts that split lost arrivals from in-flight losses."""
    skip = ("wall_s", "sessions_per_sec", "boot_wall_s", "completed",
            "lost", "sessions_lost_per_fault")
    kept = {key: value for key, value in row.items() if key not in skip}
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()).hexdigest()


def _panicked_cell_report() -> dict:
    """Cell 2 panics from a scheduled callback: no injector record, so
    only the chunk-boundary liveness sweep puts it in the ledger."""
    system = boot_session_system()
    system.sim.schedule(150_000_000, system.registry.cell_object(2).panic,
                        "scheduled panic")
    return run_session_traffic(system, SessionTrafficConfig(
        sessions=40_000, chunk_sessions=4096)).to_dict()


class TestPinnedReports:
    """Report bytes pinned from the frontend that kept every session's
    finish time and cell to the end; settling sessions as the clock
    passes them must not move them."""

    # Four servers per cell at 300 us mean service overload the pools,
    # so sessions stay open across many 4096-session chunks.
    OVERLOADED = dict(chunk_sessions=4096, servers_per_cell=4,
                      mean_service_ns=300_000.0)

    def test_failover_with_sessions_open_across_chunks(self):
        # The node fails about 0.5 ms after the fourth chunk boundary:
        # sessions finishing just after a boundary must wait for the
        # next one before they count as completed.
        row = run_sessions(SessionTrafficConfig(
            sessions=40_000, inject_ms=167, **self.OVERLOADED))
        assert row["faults"] == 1 and row["lost"] == 1942
        assert _report_sha256(row) == (
            "76cffd3c8d3d36be2d1dbd165c09c832"
            "03568074d392d6c405e8fa2e23786915")

    def test_fault_during_the_drain(self):
        # Arrivals end near 206 ms; the node fails while the backlog
        # drains, so only the final settlement can lose sessions.
        row = run_sessions(SessionTrafficConfig(
            sessions=20_000, inject_ms=250, **self.OVERLOADED))
        assert row["faults"] == 1 and row["lost"] == 1800
        assert _report_sha256(row) == (
            "ab46f1da40baad5d79fe3179552e188f"
            "4148d7c2558bade261c7a0c66d78de55")

    def test_no_failover(self):
        row = run_sessions(SessionTrafficConfig(
            sessions=30_000, inject_ms=60, failover=False))
        assert row["lost_arrivals"] > 0
        assert _report_sha256(row) == (
            "f1b657cef71e946bc286d3b9f4398dd4"
            "24254a01154424492e3fc45b85c165fe")

    def test_death_found_only_by_the_liveness_sweep(self):
        row = _panicked_cell_report()
        assert row["faults"] == 1 and row["lost"] > 0
        assert _report_sha256(row) == (
            "495892e119179092cc8f38f9d09c7748"
            "33043cd4d096489d070c511f371177dc")


class TestHostMemory:
    def test_million_sessions_allocate_little(self):
        """1M sessions with a fault peak under 24 MiB of traced
        allocations: one latency and one lost bit per session, plus the
        chunk and the still-open sessions (41.8 MiB while every
        session's finish time and cell were kept to the end)."""
        import gc
        import tracemalloc

        cfg = SessionTrafficConfig(sessions=1_000_000, inject_ms=200)
        system = boot_session_system()
        gc.collect()
        tracemalloc.start()
        try:
            report = run_session_traffic(system, cfg)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.faults == 1 and report.lost > 0
        assert peak < 24 * 2 ** 20


class TestHistogramRecordMany:
    def test_matches_scalar_record(self):
        bounds = [10, 100, 1000]
        scalar = Histogram("h", bounds)
        bulk = Histogram("h", bounds)
        values = [1, 10, 11, 99, 100, 5000, 3, 1000]
        for v in values:
            scalar.record(v)
        bulk.record_many(np.asarray(values, dtype=np.int64))
        assert bulk.to_dict() == scalar.to_dict()

    def test_empty_is_noop(self):
        hist = Histogram("h", [10])
        hist.record_many(np.asarray([], dtype=np.int64))
        assert hist.total == 0
