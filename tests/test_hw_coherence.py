"""Unit and property tests for the coherence controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.coherence import CoherenceController
from repro.hardware.errors import (BusError, FirewallViolation,
                                   InvalidPhysicalAddress)
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import PhysicalMemory
from repro.hardware.params import HardwareParams


def make_coherence(num_nodes=4, firewall=True):
    params = HardwareParams(num_nodes=num_nodes)
    mem = PhysicalMemory(params, firewall_enabled=firewall)
    return params, mem, CoherenceController(params, mem,
                                            Interconnect(params))


class TestLatencies:
    def test_first_read_is_a_miss(self):
        params, _mem, coh = make_coherence()
        assert coh.read(0, 0x1000) == params.mem_latency_ns

    def test_repeat_read_is_a_hit(self):
        params, _mem, coh = make_coherence()
        coh.read(0, 0x1000)
        assert coh.read(0, 0x1000) == params.cycles(1)

    def test_local_write_miss_pays_firewall_check(self):
        params, _mem, coh = make_coherence()
        lat = coh.write(0, 0x1000)
        assert lat == params.mem_latency_ns + params.firewall_check_ns

    def test_write_hit_by_owner_is_cheap(self):
        params, _mem, coh = make_coherence()
        coh.write(0, 0x1000)
        assert coh.write(0, 0x1000) == params.cycles(1)

    def test_firewall_disabled_removes_check_latency(self):
        params, _mem, coh = make_coherence(firewall=False)
        assert coh.write(0, 0x1000) == params.mem_latency_ns

    def test_remote_write_needs_grant(self):
        params, mem, coh = make_coherence()
        addr = params.memory_per_node  # node 1's memory
        with pytest.raises(FirewallViolation):
            coh.write(0, addr)
        mem.firewalls[1].grant_node(params.pages_per_node, 1, 0)
        lat = coh.write(0, addr)
        assert lat == params.mem_latency_ns + params.firewall_check_ns

    def test_read_of_failed_node_bus_errors(self):
        params, mem, coh = make_coherence()
        mem.fail_node(1)
        with pytest.raises(BusError):
            coh.read(0, params.memory_per_node)


class TestProtocol:
    def test_write_invalidates_sharers(self):
        params, _mem, coh = make_coherence()
        coh.read(0, 0x2000)
        coh.read(1, 0x2000)
        coh.write(0, 0x2000)
        assert coh.stats.invalidations >= 1
        # The invalidated sharer must now miss; the line is dirty at the
        # writer, so the read also pays the writeback firewall check.
        assert coh.read(1, 0x2000) == (params.mem_latency_ns
                                       + params.firewall_check_ns)

    def test_dirty_remote_intervention_downgrades_owner(self):
        params, _mem, coh = make_coherence()
        addr = params.memory_per_node + 0x2000  # node 1's own memory
        coh.write(1, addr)
        # Reader fetches from the dirty owner; both end up sharers.  The
        # owner's writeback passes a firewall check, which is charged.
        assert coh.read(0, addr) == (params.mem_latency_ns
                                     + params.firewall_check_ns)
        assert coh.read(1, addr) == params.cycles(1)

    def test_clock_line_ping_pong(self):
        """The heartbeat line: writer dirties it each tick, monitor's
        read always misses — the 0.7 us in the careful-reference cost."""
        params, _mem, coh = make_coherence()
        addr = params.memory_per_node + 0x40
        miss_lat = params.mem_latency_ns + params.firewall_check_ns
        for _tick in range(5):
            coh.write(1, addr)
            assert coh.read(0, addr) == miss_lat

    def test_remote_write_miss_stats(self):
        params, mem, coh = make_coherence()
        mem.firewalls[1].grant_node(params.pages_per_node, 1, 0)
        coh.write(0, params.memory_per_node)
        assert coh.stats.remote_write_misses == 1
        assert coh.stats.avg_remote_write_miss_ns == (
            params.mem_latency_ns + params.firewall_check_ns)


class TestFailureInteraction:
    def test_dirty_lines_of_failed_node_reported(self):
        params, mem, coh = make_coherence()
        mem.firewalls[0].grant_node(0, 0, 1)
        coh.write(1, 0x80)  # cpu 1 dirties a line in node 0's frame 0
        frames = coh.frames_with_dirty_lines_owned_by_node(1)
        assert frames == {0}

    def test_lost_frames_subset_of_writable_property(self):
        """Fault-model guarantee: a node can only lose lines it was
        authorized to write (firewall checked every ownership request)."""
        params, mem, coh = make_coherence()
        granted = set()
        for frame in range(3):
            mem.firewalls[0].grant_node(frame, 0, 1)
            granted.add(frame)
        for frame in granted:
            coh.write(1, frame * params.page_size)
        lost = coh.frames_with_dirty_lines_owned_by_node(1)
        writable = set(mem.frames_writable_by_node(1)) | set(
            range(params.pages_per_node, 2 * params.pages_per_node))
        assert lost <= writable

    @given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15),
                                  st.booleans()), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_lost_lines_always_authorized(self, ops):
        """Property over arbitrary access interleavings."""
        params, mem, coh = make_coherence(firewall=True)
        # Grant everyone everything on node 0's first 16 frames so writes
        # succeed; the property is about dirty-ownership accounting.
        for frame in range(16):
            for node in range(1, 4):
                mem.firewalls[0].grant_node(frame, 0, node)
        for cpu, frame, is_write in ops:
            addr = frame * params.page_size
            if is_write:
                coh.write(cpu, addr)
            else:
                coh.read(cpu, addr)
        for node in range(4):
            lo = node * params.cpus_per_node
            hi = lo + params.cpus_per_node
            for frame in coh.frames_with_dirty_lines_owned_by_node(node):
                assert any(mem.write_allowed(frame, cpu)
                           for cpu in range(lo, hi))

    def test_drop_node_cache_state(self):
        params, mem, coh = make_coherence()
        coh.write(0, 0x100)
        coh.drop_node_cache_state(0)
        assert coh.frames_with_dirty_lines_owned_by_node(0) == set()

    def test_invalidate_frame(self):
        params, _mem, coh = make_coherence()
        coh.read(0, 0x100)
        coh.invalidate_frames([0])
        assert coh.read(0, 0x100) == params.mem_latency_ns


def _lines_per_node(params):
    return params.memory_per_node // params.cache_line_size


def _stats_key(coh):
    s = coh.stats
    return (s.read_hits, s.read_misses, s.write_hits, s.write_misses,
            s.remote_write_misses, s.invalidations, s.firewall_checks)


def _directory_problems(coh):
    """Cross-check the per-node owner/sharer indexes against the one
    sparse directory; empty means they agree entry for entry."""
    per_node = coh._cpus_per_node
    want_owned = [set() for _ in coh._owner_lines]
    want_shared = [set() for _ in coh._sharer_lines]
    problems = []
    for line, st in coh._lines.items():
        if st.owner is None and not st.sharers:
            problems.append(f"line {line}: empty entry not pruned")
        if st.owner is not None:
            want_owned[st.owner // per_node].add(line)
        for cpu in st.sharers:
            want_shared[cpu // per_node].add(line)
    for node, (owned, shared) in enumerate(zip(want_owned, want_shared)):
        if coh._owner_lines[node] != owned:
            problems.append(f"node {node}: owner index mismatch")
        if coh._sharer_lines[node] != shared:
            problems.append(f"node {node}: sharer index mismatch")
    return problems


def _scalar_replay(coh, params, cpu, lines, ops):
    """Reference semantics: the plain per-line scalar loop."""
    total = 0
    for line, op in zip(lines, ops):
        addr = line * params.cache_line_size
        total += coh.write(cpu, addr) if op else coh.read(cpu, addr)
    return total


class TestBatchedAccess:
    """A prepared batch's first issue (no memo yet: the inline tier)
    must be bit-equivalent to the scalar loop in latency, stats, and
    directory state."""

    def _mixed_case(self, n=96):
        """Unique local lines, warmed so the batch mixes hits/misses."""
        params, mem, coh = make_coherence()
        lines = list(range(0, 2 * n, 2))[:n]
        ops = [(i % 3 == 0) for i in range(n)]  # every third a write
        # Warm half the lines so the batch mixes hits and misses.
        for line in lines[::2]:
            coh.read(0, line * params.cache_line_size)
        return params, mem, coh, lines, ops

    def _compare(self, make_case):
        params, _m, coh_a, lines, ops = make_case()
        _p, _m2, coh_b, _l, _o = make_case()
        lat_batch = coh_a.access_prepared(0, coh_a.prepare_batch(lines, ops))
        lat_scalar = _scalar_replay(coh_b, params, 0, lines, ops)
        assert lat_batch == lat_scalar
        assert _stats_key(coh_a) == _stats_key(coh_b)
        assert coh_a.last_batch_completed == len(lines)
        for line in lines:
            a, b = coh_a._lines.get(line), coh_b._lines.get(line)
            assert (a.owner, a.sharers) == (b.owner, b.sharers)
        return coh_a

    def test_large_batch_takes_inline_tier(self):
        coh = self._compare(self._mixed_case)
        # 96 unique lines: a large batch is one inline batch too.
        assert coh.tier_snapshot() == {
            "memo_hits": 0, "inline_batches": 1, "scalar_batches": 0}

    def test_inline_tier_matches_scalar(self):
        def small_case():
            params, mem, coh, lines, ops = self._mixed_case(n=12)
            return params, mem, coh, lines, ops
        coh = self._compare(small_case)
        assert coh.tier_snapshot()["inline_batches"] == 1

    def test_duplicate_lines_match_scalar(self):
        def dup_case():
            params, mem, coh, lines, ops = self._mixed_case()
            lines[1] = lines[0]  # a repeated line sees its own miss
            return params, mem, coh, lines, ops
        self._compare(dup_case)

    def test_directory_indexes_consistent_after_scalar_traffic(self):
        params, _m, coh, lines, ops = self._mixed_case()
        coh.access_prepared(0, coh.prepare_batch(lines, ops))
        # Scalar reads/writes from other CPUs mutate the directory; the
        # per-node owner/sharer indexes must track every mutation site.
        coh.read(1, lines[0] * params.cache_line_size)
        coh.write(0, lines[1] * params.cache_line_size)
        coh.write(1, (lines[2] + _lines_per_node(params))
                  * params.cache_line_size)  # another node entirely
        coh.drop_node_cache_state(1)  # cpu 1's share and its dirty line
        coh.invalidate_frames([0])
        assert _directory_problems(coh) == []

    def test_firewall_violation_at_exact_position(self):
        params, mem, coh = make_coherence()
        remote = _lines_per_node(params)  # node 1's first line
        lines = list(range(70)) + [remote] + list(range(70, 80))
        ops = [0] * 70 + [1] + [0] * 10
        _p2, _m2, coh_b = make_coherence()
        prep = coh.prepare_batch(lines, ops)
        with pytest.raises(FirewallViolation):
            coh.access_prepared(0, prep)
        with pytest.raises(FirewallViolation):
            _scalar_replay(coh_b, params, 0, lines, ops)
        assert coh.last_batch_completed == 70
        assert _stats_key(coh) == _stats_key(coh_b)
        assert prep.memo is None

    def test_bus_error_under_faults_at_exact_position(self):
        params, mem, coh = make_coherence()
        _p2, mem_b, coh_b = make_coherence()
        for m in (mem, mem_b):
            m.fail_node(1)
        lines = list(range(10)) + [_lines_per_node(params)] + list(range(10, 20))
        ops = [0] * len(lines)
        prep = coh.prepare_batch(lines, ops)
        with pytest.raises(BusError):
            coh.access_prepared(0, prep)
        with pytest.raises(BusError):
            _scalar_replay(coh_b, params, 0, lines, ops)
        assert coh.last_batch_completed == 10
        assert _stats_key(coh) == _stats_key(coh_b)
        assert prep.memo is None


class TestPreparedBatch:
    def test_memo_replay_matches_fresh_run(self):
        params, _m, coh = make_coherence()
        _p2, _m2, coh_b = make_coherence()
        lines = list(range(32))
        ops = [i % 2 for i in range(32)]
        prep = coh.prepare_batch(lines, ops)
        first = coh.access_prepared(0, prep)
        replay = coh.access_prepared(0, prep)  # all-hit: memoized
        assert prep.memo is not None
        scalar_first = _scalar_replay(coh_b, params, 0, lines, ops)
        scalar_replay = _scalar_replay(coh_b, params, 0, lines, ops)
        assert (first, replay) == (scalar_first, scalar_replay)
        assert _stats_key(coh) == _stats_key(coh_b)

    def test_memo_invalidated_by_foreign_write(self):
        params, mem, coh = make_coherence()
        mem.firewalls[0].grant_node(0, 0, 1)  # let node 1 write frame 0
        lines = list(range(8))
        prep = coh.prepare_batch(lines, [0] * 8)
        coh.access_prepared(0, prep)
        coh.access_prepared(0, prep)
        assert prep.memo is not None
        # CPU 1 steals line 0: the home node's generation advances and
        # the memo must not replay stale hit counts.
        coh.write(1, 0)
        hits_before = coh.stats.read_hits
        misses_before = coh.stats.read_misses
        coh.access_prepared(0, prep)
        assert coh.stats.read_misses == misses_before + 1  # re-fetched
        assert coh.stats.read_hits == hits_before + 7

    def test_prepare_rejects_out_of_range(self):
        params, _m, coh = make_coherence()
        total_lines = params.num_nodes * _lines_per_node(params)
        with pytest.raises(ValueError):
            coh.prepare_batch([total_lines], [0])


class TestMemoRevalidation:
    """A generation-stale memo is rechecked line by line against the
    directory: each case must leave the same stats and latency as a
    fresh scalar replay of the same traffic, and rescue the memo only
    when every line still hits."""

    LINES = list(range(8))
    OPS = [k & 1 for k in range(8)]

    def _pair(self, disturb):
        """Issue the batch twice (the first misses, the second builds
        the memo), run ``disturb`` on both controllers, issue once more;
        returns the batch's controller and prepared batch."""
        params, mem, coh = make_coherence()
        _p, mem_b, coh_b = make_coherence()
        prep = coh.prepare_batch(self.LINES, self.OPS)
        for _ in range(2):
            coh.access_prepared(0, prep)
            _scalar_replay(coh_b, params, 0, self.LINES, self.OPS)
        assert prep.memo is not None
        for c, m in ((coh, mem), (coh_b, mem_b)):
            disturb(params, m, c)
        latency = coh.access_prepared(0, prep)
        scalar = _scalar_replay(coh_b, params, 0, self.LINES, self.OPS)
        assert latency == scalar
        assert _stats_key(coh) == _stats_key(coh_b)
        return coh, prep

    def _tiers(self, coh):
        snap = coh.tier_snapshot()
        return snap["memo_hits"], snap["inline_batches"]

    def test_foreign_miss_on_same_home_node_rescues_memo(self):
        def disturb(params, _mem, coh):
            coh.read(1, 100 * params.cache_line_size)  # node 0, not ours
        coh, prep = self._pair(disturb)
        assert self._tiers(coh) == (1, 2)  # replayed, not re-executed

    @pytest.mark.parametrize("foreign", ["write", "read"])
    def test_foreign_access_to_batch_line_forces_reexecution(self, foreign):
        # Line 3 is one of the batch's writes: a foreign write steals
        # it, a foreign read downgrades cpu 0 from owner to sharer —
        # either way the batch's write to it is a miss again.
        def disturb(params, mem, coh):
            addr = 3 * params.cache_line_size
            if foreign == "write":
                mem.firewalls[0].grant_node(0, 0, 1)
                coh.write(1, addr)
            else:
                coh.read(1, addr)
        coh, _prep = self._pair(disturb)
        assert self._tiers(coh) == (0, 3)

    @pytest.mark.parametrize("failure_path", ["drop", "invalidate"])
    def test_failure_paths_force_reexecution(self, failure_path):
        def disturb(_params, _mem, coh):
            if failure_path == "drop":
                coh.drop_node_cache_state(0)
            else:
                coh.invalidate_frames([0])
        coh, _prep = self._pair(disturb)
        assert self._tiers(coh) == (0, 3)

    def test_home_node_in_fault_state_forces_reexecution(self):
        def disturb(_params, mem, _coh):
            # Cut off, not failed: cpu 0 is local to node 0, so its
            # reads still succeed, but no memo may replay on a node in
            # fault state.
            mem.engage_cutoff(0)
        coh, prep = self._pair(disturb)
        assert self._tiers(coh) == (0, 3)
        assert prep.memo is None  # nor is one recorded there


class TestDirectoryPruning:
    def test_refused_ownership_requests_leave_no_entry(self):
        params, _mem, coh = make_coherence()
        remote = params.memory_per_node  # node 1's memory, never granted
        for k in range(5):
            with pytest.raises(FirewallViolation):
                coh.write(0, remote + k * params.cache_line_size)
        with pytest.raises(InvalidPhysicalAddress):
            coh.write(0, params.total_memory)
        assert coh.directory_size() == 0
        assert _directory_problems(coh) == []


_P = HardwareParams(num_nodes=4)
_LPN = _lines_per_node(_P)
_LPP = _P.page_size // _P.cache_line_size
#: the owner's batch: lines on two home nodes (one a repeat), reads and
#: writes alternating.
_BATCH_LINES = [0, 1, 33, 34, _LPN, _LPN + 1, _LPN + 33, _LPN + 34, 1]
_BATCH_OPS = [k & 1 for k in range(len(_BATCH_LINES))]
#: what foreign CPUs touch: the batch's lines, neighbours on the same
#: frames, and a line on a third node.
_POOL = sorted(set(_BATCH_LINES) | {2, _LPN + 2, 2 * _LPN})
_FRAMES = sorted({line // _LPP for line in _POOL})
_STEP = st.one_of(
    st.tuples(st.just("issue")),
    st.tuples(st.sampled_from(["read", "write"]), st.integers(1, 3),
              st.integers(0, len(_POOL) - 1)),
    st.tuples(st.sampled_from(["fail", "cutoff", "revive", "drop"]),
              st.integers(0, 3)),
    st.tuples(st.just("invalidate"), st.integers(0, len(_FRAMES) - 1)),
)


def _grant_everyone(params, mem, frames):
    for frame in frames:
        home = frame // params.pages_per_node
        for node in range(params.num_nodes):
            mem.firewalls[home].grant_node(frame, home, node)


def _outcome(access):
    try:
        return "ok", access()
    except (BusError, FirewallViolation) as exc:
        return type(exc).__name__, None


def _directory(coh):
    return {line: (st_.owner, frozenset(st_.sharers))
            for line, st_ in coh._lines.items()}


class TestOneMemoRule:
    """Random interleavings of the owner's prepared batch with foreign
    reads and writes, node failure / cutoff / revival and the two
    failure-path scrubs.  A twin controller issues every access through
    ``read`` / ``write``: at every step latency, stats and directory
    match it, and ``peek_memo`` answers non-None exactly when the next
    ``access_prepared`` replays its memo."""

    @given(steps=st.lists(_STEP, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_peek_and_replay_agree_with_scalar_twin(self, steps):
        params, mem, coh = make_coherence()
        _p, mem_b, coh_b = make_coherence()
        for m in (mem, mem_b):
            _grant_everyone(params, m, _FRAMES)
        prep = coh.prepare_batch(_BATCH_LINES, _BATCH_OPS)
        line_size = params.cache_line_size
        for step in [("issue",), ("issue",)] + steps:
            kind = step[0]
            if kind == "issue":
                peeked = coh.peek_memo(0, prep)
                hits = coh.tier_memo_hits
                got = _outcome(lambda: coh.access_prepared(0, prep))
                want = _outcome(lambda: _scalar_replay(
                    coh_b, params, 0, _BATCH_LINES, _BATCH_OPS))
                assert got == want
                assert (peeked is not None) == (coh.tier_memo_hits > hits)
                if peeked is not None:
                    assert peeked[0] == got[1]
            elif kind in ("read", "write"):
                _, cpu, i = step
                addr = _POOL[i] * line_size
                assert (_outcome(lambda: getattr(coh, kind)(cpu, addr))
                        == _outcome(lambda: getattr(coh_b, kind)(cpu, addr)))
            elif kind == "invalidate":
                for c in (coh, coh_b):
                    c.invalidate_frames([_FRAMES[step[1]]])
            elif kind == "drop":
                for c in (coh, coh_b):
                    c.drop_node_cache_state(step[1])
            else:
                node = step[1]
                for m in (mem, mem_b):
                    if kind == "fail":
                        m.fail_node(node)
                    elif kind == "cutoff":
                        m.engage_cutoff(node)
                    else:
                        m.revive_node(node)  # resets the firewall
                        _grant_everyone(params, m, [
                            f for f in _FRAMES
                            if f // params.pages_per_node == node])
            assert _stats_key(coh) == _stats_key(coh_b)
            assert _directory(coh) == _directory(coh_b)


class TestHostMemory:
    def test_throughput_run_allocates_little(self):
        """The small throughput scenario on a booted system peaks under
        2 MiB of traced allocations (16.25 MiB while dense numpy mirrors
        of every line's directory state backed memo revalidation)."""
        import gc
        import tracemalloc

        from repro.bench.throughput import boot_bench_system, run_throughput

        system = boot_bench_system("small")
        gc.collect()
        tracemalloc.start()
        try:
            row = run_throughput("small", system=system)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["accesses"] == 337_838
        assert peak < 2 * 2 ** 20
