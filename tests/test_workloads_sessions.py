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
from repro.workloads.sessions import (DRAW_ARRIVAL, DRAW_ARRIVAL2,
                                      DRAW_SERVICE, DRAW_SERVICE2,
                                      DRAW_TYPE, DRAWS_PER_SESSION,
                                      SESSION_TYPES,
                                      SessionTrafficConfig,
                                      _fcfs_chunk, _placement,
                                      _probe_rows,
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
        # Rejected when the config is built, before any run boots.
        with pytest.raises(ValueError, match="finite mean"):
            SessionTrafficConfig(sessions=16, service="pareto",
                                 service_shape=0.9)
        with pytest.raises(ValueError, match="finite mean"):
            SessionTrafficConfig(interarrival="pareto",
                                 interarrival_shape=1.0)
        # A lognormal's shape is its sigma: no such bound.
        SessionTrafficConfig(service="lognormal", service_shape=0.9)


def _reference_chunk(cfg: SessionTrafficConfig, start: int, count: int,
                     t0: float) -> dict:
    """``generate_chunk`` as plain array expressions over
    ``session_uniforms``, one new array per step, the type from a left
    ``searchsorted``."""
    sids = np.arange(start, start + count, dtype=np.uint64)

    def draw(d):
        return session_uniforms(cfg.seed, sids, d)

    def heavy(kind, mean, shape, u1, u2):
        if kind == "lognormal":
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            mu = np.log(mean) - 0.5 * shape * shape
            return np.exp(mu + shape * z)
        xm = mean * (shape - 1.0) / shape
        return xm * np.power(u1, -1.0 / shape)

    inter = heavy(cfg.interarrival, cfg.mean_interarrival_ns,
                  cfg.interarrival_shape, draw(DRAW_ARRIVAL),
                  draw(DRAW_ARRIVAL2))
    service = heavy(cfg.service, cfg.mean_service_ns, cfg.service_shape,
                    draw(DRAW_SERVICE), draw(DRAW_SERVICE2))
    weights = np.asarray(cfg.mix, dtype=np.float64)
    cum = np.cumsum(weights / weights.sum())
    types = np.searchsorted(cum, draw(DRAW_TYPE), side="left")
    types = np.minimum(types, len(SESSION_TYPES) - 1).astype(np.int8)
    scale = np.asarray([1.25, 1.0, 0.75])  # compile, compute, fs
    return {"sids": sids, "arrivals": t0 + np.cumsum(inter),
            "service": service * scale[types], "types": types}


def _assert_same_chunk(got: dict, want: dict) -> None:
    for key in ("sids", "arrivals", "service", "types"):
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


_SEEDS = st.one_of(st.sampled_from([0, 1995, 2**63, 2**64 - 1]),
                   st.integers(2**63, 2**64 - 1))
_MIXES = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                          (0.5, 0.3, 0.2), (1.0, 1.0, 1.0)])


class TestGenerationAgainstReference:
    """The fused in-place draws, the type count and the modulo-free
    placement and probe selection give the reference's values, bit for
    bit, wherever a chunk starts."""

    @given(seed=_SEEDS, mix=_MIXES,
           kinds=st.sampled_from([("lognormal", "pareto"),
                                  ("pareto", "lognormal")]),
           start=st.integers(0, 2**40), count=st.integers(1, 300),
           t0=st.floats(0.0, 1e12))
    @settings(max_examples=80, deadline=None)
    def test_generate_chunk(self, seed, mix, kinds, start, count, t0):
        cfg = SessionTrafficConfig(seed=seed, mix=mix,
                                   interarrival=kinds[0],
                                   interarrival_shape=1.5,
                                   service=kinds[1])
        _assert_same_chunk(generate_chunk(cfg, start, count, t0),
                           _reference_chunk(cfg, start, count, t0))

    @pytest.mark.parametrize("seed", [0, 1995, 2**63 + 1])
    @pytest.mark.parametrize("edge", [0, 1])
    def test_type_draw_exactly_on_a_mix_edge(self, seed, edge):
        # Build the mix from one session's own type draw, so that draw
        # lies exactly on mix edge ``edge``: a left searchsorted puts it
        # in type ``edge`` (the edge is not strictly below it).
        start, count = 1234, 64
        sids = np.arange(start, start + count, dtype=np.uint64)
        u = session_uniforms(seed, sids, DRAW_TYPE)
        row = int(np.flatnonzero(u >= 0.5)[0])
        on = float(u[row])
        mix = (on, 1.0 - on, 0.0) if edge == 0 else (0.0, on, 1.0 - on)
        weights = np.asarray(mix)
        assert np.cumsum(weights / weights.sum())[edge] == on
        cfg = SessionTrafficConfig(seed=seed, mix=mix)
        got = generate_chunk(cfg, start, count, 0.0)
        _assert_same_chunk(got, _reference_chunk(cfg, start, count, 0.0))
        assert got["types"][row] == edge

    @given(ncells=st.integers(1, 16), start=st.integers(0, 2**40),
           count=st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_placement_is_sid_modulo_cells(self, ncells, start, count):
        cell_arr = np.arange(ncells, dtype=np.int64) * 3 + 1
        sids = np.arange(start, start + count, dtype=np.uint64)
        want = cell_arr[(sids % np.uint64(ncells)).astype(np.int64)]
        got = _placement(cell_arr, start, count)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(every=st.integers(1, 5000), start=st.integers(0, 2**40),
           count=st.integers(1, 3000))
    @settings(max_examples=80, deadline=None)
    def test_probe_rows_are_multiples_of_probe_every(self, every, start,
                                                     count):
        sids = np.arange(start, start + count, dtype=np.uint64)
        want = np.flatnonzero(sids % np.uint64(every) == 0)
        assert list(_probe_rows(start, count, every)) == want.tolist()


def _reference_fcfs(chunks, ncells, nservers, first, carried):
    """Per (cell, server), in plain Python: the finish of each session
    of ``chunks`` (lists of (cell index, arrival, service)), by the
    running sum ``cs`` of the server's services in the chunk and the
    running max of ``arrival - (cs - service)`` from the server's
    carried finish, ``finish = cs + max``; and by the textbook
    ``finish = max(arrival, previous finish) + service``."""
    nxt = list(first)
    last = [list(row) for row in carried]
    textbook = [list(row) for row in carried]
    out, plain = [], []
    for chunk in chunks:
        state = {}
        for k, arrival, service in chunk:
            s = nxt[k]
            nxt[k] = (s + 1) % nservers
            cs, run = state.get((k, s), (0.0, last[k][s]))
            cs = cs + service
            run = max(run, arrival - (cs - service))
            state[(k, s)] = (cs, run)
            out.append(cs + run)
            textbook[k][s] = max(arrival, textbook[k][s]) + service
            plain.append(textbook[k][s])
        for (k, s), (cs, run) in state.items():
            last[k][s] = cs + run
    return out, plain, nxt, last


def _check_fcfs(chunks, ncells, nservers, first, carried):
    """Run ``chunks`` through ``_fcfs_chunk`` and compare with
    :func:`_reference_fcfs`."""
    cell_ids = list(range(10, 10 + ncells))
    last_finish = np.asarray(carried, dtype=np.float64)
    server_rr = list(first)
    got = []
    for rows in chunks:
        cells_arr = np.asarray([cell_ids[k] for k, _, _ in rows],
                               dtype=np.int64)
        arrivals = np.asarray([a for _, a, _ in rows])
        service = np.asarray([s for _, _, s in rows])
        got.extend(_fcfs_chunk(cell_ids, cells_arr, arrivals, service,
                               last_finish, server_rr).tolist())

    want, plain, nxt, last = _reference_fcfs(chunks, ncells, nservers,
                                             first, carried)
    assert got == want  # bit for bit
    assert server_rr == nxt
    assert last_finish.tolist() == last
    # The textbook form rounds differently: equal to a tolerance only.
    assert np.allclose(got, plain, rtol=1e-12, atol=1e-6)


_SESSION = st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e6))


class TestFcfsAgainstReference:
    """``_fcfs_chunk``'s one accumulate per cell against a per-server
    scalar loop, across chunk boundaries, with a carried round-robin
    position and last finish, uneven per-cell counts (what failover
    makes) and cells with no session in a chunk."""

    @given(data=st.data(), ncells=st.integers(1, 4),
           nservers=st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_matches_a_per_server_loop(self, data, ncells, nservers):
        first = data.draw(st.lists(st.integers(0, nservers - 1),
                                   min_size=ncells, max_size=ncells))
        carried = data.draw(st.lists(
            st.lists(st.floats(0.0, 1e6), min_size=nservers,
                     max_size=nservers), min_size=ncells, max_size=ncells))
        cells = st.integers(0, ncells - 1)
        raw = data.draw(st.lists(st.lists(st.tuples(cells, _SESSION),
                                          min_size=1, max_size=40),
                                 min_size=1, max_size=5))
        # Arrivals rise across the whole stream (gaps may be 0).
        clock = 0.0
        chunks = []
        for chunk in raw:
            rows = []
            for k, (gap, service) in chunk:
                clock += gap
                rows.append((k, clock, service))
            chunks.append(rows)

        _check_fcfs(chunks, ncells, nservers, first, carried)

    def test_a_cell_idle_for_a_chunk_and_uneven_cells(self):
        # Cell 1 gets nothing in the first chunk; in the second, cell 2
        # takes the sessions failed over from cell 0 (6 against 1).
        chunks = [[(0, 1.0, 5.0), (2, 2.0, 1.0), (0, 2.5, 0.5)],
                  [(2, 3.0, 2.0), (1, 3.0, 1.0)] + [
                      (2, 4.0 + i, 3.0) for i in range(5)]]
        _check_fcfs(chunks, 3, 2, [1, 0, 1],
                    [[0.0, 4.0], [2.0, 0.0], [0.0, 0.0]])


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

    @pytest.mark.parametrize("field, value, message", [
        ("servers_per_cell", 0, "servers_per_cell must be at least 1: 0"),
        ("chunk_sessions", 0, "chunk_sessions must be at least 1: 0"),
        ("mean_service_ns", -1.0,
         "mean_service_ns must be positive and finite: -1.0"),
        ("mean_interarrival_ns", float("nan"),
         "mean_interarrival_ns must be positive and finite: nan"),
        ("service", "weibull", "unknown service distribution 'weibull' "
                               "(one of lognormal, pareto)"),
        ("interarrival", "uniform", "unknown interarrival distribution "
                                    "'uniform' (one of lognormal, pareto)"),
        ("mix", (0.0, 0.0, 0.0), "mix must be 3 non-negative finite "
                                 "weights with a positive sum: (0.0, 0.0, "
                                 "0.0)"),
        ("mix", (1.0, -0.5, 1.0), "mix must be 3 non-negative finite "
                                  "weights with a positive sum: (1.0, "
                                  "-0.5, 1.0)"),
        ("service_shape", 1.0, "service_shape must be > 1 and finite for "
                               "a pareto service with a finite mean: 1.0"),
        ("service_shape", float("inf"),
         "service_shape must be > 1 and finite for a pareto service with "
         "a finite mean: inf"),
    ])
    def test_config_rejects_an_invalid_field(self, field, value, message):
        with pytest.raises(ValueError) as info:
            SessionTrafficConfig(**{field: value})
        assert str(info.value) == message

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
