"""Tests for parked driver chains and the intercell channels.

The headline gate is the determinism contract from
:mod:`repro.sim.shard`: the parked default must produce byte-identical
deterministic counters (events, accesses, tier attribution, channel
digests) to per-wakeup execution — the recording run, which executes
every wakeup on its own.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.bench.throughput import (CONFIGS, _traffic, boot_bench_system,
                                    compare_parked, run_throughput)
from repro.hardware.coherence import CoherenceController
from repro.hardware.errors import BusError, FirewallViolation
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import PhysicalMemory
from repro.hardware.params import HardwareParams
from repro.obs.profile import tier_snapshot
from repro.sim.channels import (COH_READ_MISS, COH_WRITE_MISS,
                                SIPS_REQUEST, CellChannels,
                                ChannelViolation, attach_channels)
from repro.sim.engine import Simulator
from repro.sim.shard import ChainCoordinator


class TestCellChannels:
    def _channels(self, window=200):
        # nodes 0,1 -> cell 0; nodes 2,3 -> cell 1
        return CellChannels({0: 0, 1: 0, 2: 1, 3: 1}, window,
                            now_fn=lambda: 5000)

    # The digests below are what 094e03b computed for the same
    # publishes, when each op was still a queued ``ChannelOp`` object.

    def test_op_tuple_digest_is_pinned(self):
        # the op ('sips_request', 0, 1, 1, 2, 5000, 700): the CRC of its
        # repr is the whole digest
        ch = self._channels()
        ch.sips(1, 2, "request", latency_ns=700)
        assert ch.digest == 2370027842

    def test_intracell_traffic_not_recorded(self):
        ch = self._channels()
        untouched = ch.snapshot()
        ch.coherence_miss(0, 1, write=False, latency_ns=700)
        assert ch.ops_total == 0
        assert not any(ch.ops_by_kind.values())
        assert ch.digest == 0
        assert ch.snapshot() == untouched

    def test_intercell_ops_counted_by_kind(self):
        ch = self._channels()
        ch.coherence_miss(1, 2, write=True, latency_ns=700)
        ch.sips(0, 3, "request", latency_ns=1000)
        assert ch.ops_total == 2
        assert ch.ops_by_kind[COH_WRITE_MISS] == 1
        assert ch.ops_by_kind[SIPS_REQUEST] == 1
        assert ch.ops_by_kind[COH_READ_MISS] == 0
        assert ch.digest == 852562459

    def test_snapshot_wire_form(self):
        # cell 1 -> cell 0: the direction is part of the op, so of the
        # digest; the snapshot is the JSON-safe form the gates diff
        ch = self._channels()
        ch.coherence_miss(2, 0, write=False, latency_ns=700)
        assert ch.snapshot() == {
            "window_ns": 200, "ops_total": 1,
            "ops_by_kind": {COH_READ_MISS: 1}, "digest": 406814185,
            "violations": 0}

    def test_lookahead_violation_is_fatal_when_strict(self):
        ch = self._channels(window=200)
        with pytest.raises(ChannelViolation):
            ch.publish(COH_READ_MISS, 0, 2, latency_ns=150)
        assert ch.violations == 1
        ch.strict = False
        ch.publish(COH_READ_MISS, 0, 2, latency_ns=150)
        assert ch.violations == 2

    def test_digest_is_order_independent(self):
        # Sequential and sharded runs may dispatch ops tied at one
        # instant in different relative order; the digest must only
        # depend on the multiset of ops.
        a, b = self._channels(), self._channels()
        a.coherence_miss(1, 2, write=True, latency_ns=700)
        a.sips(0, 3, "request", latency_ns=1000)
        b.sips(0, 3, "request", latency_ns=1000)
        b.coherence_miss(1, 2, write=True, latency_ns=700)
        assert a.digest == b.digest
        assert a.snapshot() == b.snapshot()

    def test_window_is_the_latency_floor(self):
        ch = self._channels(window=200)
        ch.publish(COH_READ_MISS, 0, 2, latency_ns=200)
        assert (ch.ops_total, ch.violations) == (1, 0)
        with pytest.raises(ChannelViolation):
            ch.publish(COH_READ_MISS, 0, 2, latency_ns=199)
        assert (ch.ops_total, ch.violations) == (1, 1)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            CellChannels({}, 0)


class TestChannelsOnRequest:
    """The recorder is an audit signal: attached only when asked for."""

    def test_default_run_attaches_nothing(self):
        system = boot_bench_system("small", seed=11)
        row = run_throughput("small", seed=11, system=system)
        assert "channels" not in row
        machine = system.machine
        assert machine.channels is None
        assert machine.coherence.channels is None
        assert machine.sips.channels is None

    def test_digest_on_request(self):
        row = run_throughput("small", seed=11, channels=True)
        snap = row["channels"]
        assert snap["ops_total"] > 0
        assert snap["digest"] != 0
        assert snap["violations"] == 0
        assert snap["window_ns"] == 200
        again = run_throughput("small", seed=11, channels=True)
        assert again["channels"] == snap

    def test_real_miss_under_the_lookahead_raises(self):
        # A recorder told the floor is 1 ms sees every real remote miss
        # (~700 ns) as out-running it.
        system = boot_bench_system("small", seed=11)
        attach_channels(system.machine, system.registry, 1_000_000,
                        sim=system.sim)
        params = system.machine.params
        remote_addr = (system.registry.first_node_of(1)
                       * params.memory_per_node)
        with pytest.raises(ChannelViolation):
            system.machine.coherence.read(
                system.registry.cell_object(0).cpu_ids[0], remote_addr)
        assert system.machine.channels.violations == 1


class TestParkedGolden:
    """Parking is not a mode: it must equal per-wakeup execution."""

    @pytest.mark.parametrize("inject_ms", [None, 37])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_parked_matches_per_wakeup(self, config, inject_ms):
        result = compare_parked(config, inject_ms=inject_ms)
        assert result["match"], result["mismatches"]
        # The parking must actually have engaged — a trivially-passing
        # gate (every wakeup parked on its own) would prove nothing.
        assert result["parks"] > 0
        assert result["replayed_wakeups"] > result["parks"]

    @given(seed=st.integers(0, 2**31 - 1), inject_ms=st.integers(1, 399))
    @settings(max_examples=6, deadline=None)
    def test_parked_matches_per_wakeup_any_seed_and_fault_time(
            self, seed, inject_ms):
        result = compare_parked("small", seed=seed, inject_ms=inject_ms)
        assert result["match"], result["mismatches"]

    def test_compare_parked_reports_match(self):
        result = compare_parked("small", seed=7)
        assert result["match"], result["mismatches"]
        assert not result["mismatches"]
        assert result["inject_ms"] == CONFIGS["small"].inject_ms

    def test_recording_run_parks_once_per_wakeup(self):
        # A parked run's park stands for its own wakeup plus the ones it
        # replayed, so the per-wakeup run parks exactly that many times.
        row = run_throughput("small", seed=11, per_wakeup=True)
        parked = run_throughput("small", seed=11)["parking"]
        wakeups = parked["parks"] + parked["replayed_wakeups"]
        assert row["parking"]["chains"] == CONFIGS["small"].num_cells
        assert row["parking"]["parks"] == wakeups
        assert row["parking"]["replayed_wakeups"] == 0
        assert parked["replayed_wakeups"] > 0


def _overlapping_run(per_wakeup):
    """Two drivers on different cells hammering the same frames of one
    granter at different paces: both chains are homed on the same node,
    and each one's ownership requests take the other's lines away."""
    system = boot_bench_system("small", seed=3)
    sim, registry = system.sim, system.registry
    granter = registry.cell_object(0)
    # Odd batch sizes make every other batch all ownership requests
    # (the stock even size only ever reads), on the same odd lines.
    cfg_a = replace(CONFIGS["small"], ops_per_wakeup=9)
    cfg_b = replace(cfg_a, wakeup_gap_ns=1_900_000)
    ready_a, ready_b = sim.event("a"), sim.event("b")

    def export():
        frames = []
        for _ in range(32):
            pf = granter.pfdats.alloc_frame()
            for client in (1, 2):
                yield from granter.firewall_mgr.grant_write(pf, client)
            frames.append(pf.frame)
        ready_a.succeed(frames)
        ready_b.succeed(frames)

    stop_ns = 60_000_000
    counters = {"accesses": 0}
    stats = system.machine.coherence.stats
    samples = []

    def sampler():
        # End totals cannot tell a miss from the same miss a few wakeups
        # late; a time series of the counters can.
        while sim.now < stop_ns:
            samples.append((stats.write_hits, stats.write_misses))
            yield sim.timeout(700_000)

    coord = ChainCoordinator(sim)
    sim.process(export())
    sim.process(sampler())
    for cell_id, ready, cfg in ((1, ready_a, cfg_a), (2, ready_b, cfg_b)):
        cpu = registry.cell_object(cell_id).cpu_ids[0]
        sim.process(_traffic(sim, system, cell_id, cpu, ready, cfg,
                             stop_ns, counters, coord,
                             per_wakeup=per_wakeup))
    coord.run(until=stop_ns)
    return coord, {
        "events": sim.events_processed,
        "accesses": counters["accesses"],
        "coherence": tier_snapshot(system)["coherence"],
        "stats": asdict(stats),
        "samples": samples,
    }


class TestDirtyBarrier:
    def test_overlapping_chains_match_per_wakeup(self):
        coord, parked = _overlapping_run(per_wakeup=False)
        a, b = coord.chains
        assert a.shares_home and b.shares_home
        # Chains sharing a home node never credit: one wakeup per park.
        assert coord.snapshot()["replayed_wakeups"] == 0
        assert parked["stats"]["invalidations"] > 100
        _, per_wakeup = _overlapping_run(per_wakeup=True)
        assert parked == per_wakeup


def _issue(coh, cpu, batch):
    """One live issue of ``batch``; a bus error or firewall refusal is
    an outcome, not a test failure."""
    try:
        coh.access_prepared(cpu, batch)
    except (BusError, FirewallViolation):
        pass


class TestCreditCommit:
    def test_credit_leaves_the_last_replayed_batch(self):
        # A two-slot cycle of unequal lengths credited from slot 1 over
        # two wakeups (slots 1, 0): per-wakeup execution leaves slot 0's
        # length in last_batch_completed, not the longer slot 1's.
        params = HardwareParams(num_nodes=4)
        mem = PhysicalMemory(params)
        coh = CoherenceController(params, mem, Interconnect(params))
        short = coh.prepare_batch([0, 1, 2], [0, 0, 0])
        long_ = coh.prepare_batch([3, 4, 5, 6, 7], [0, 0, 0, 0, 0])
        for batch in (short, long_, short, long_):
            coh.access_prepared(0, batch)  # misses, then memoized hits
        coord = ChainCoordinator(Simulator())
        gap = 1_000
        chain = coord.register_chain(coh, 0, [short, long_], gap)
        lats = chain.cycle_peek_lats()
        assert -1 not in lats
        hits = coh.tier_memo_hits
        read_hits = coh.stats.read_hits
        k, sleep, next_j = chain.credit(1, sum(lats) + 2 * gap)
        assert (k, sleep, next_j) == (2, sum(lats) + 2 * gap, 1)
        assert coh.last_batch_completed == len(short.lines)
        assert coh.tier_memo_hits == hits + 2
        assert coh.stats.read_hits == read_hits + 8


#: the small config: 4 nodes of 1 CPU, one cell per node
_SMALL = HardwareParams(num_nodes=4, cpus_per_node=1)
_LPP = _SMALL.page_size // _SMALL.cache_line_size


def _frame(node, k):
    return node * _SMALL.pages_per_node + _SMALL.pages_per_node - 8 + k


def _lines(frame, offsets):
    return [frame * _LPP + o for o in offsets]


#: (cpu, home node) of each chain: remote CPUs on disjoint home nodes
_CHAIN_AT = ((1, 0), (3, 2))


def _chain_system(chains):
    """A booted ``small`` system with ``chains`` parked chains
    registered, each cycling through three mixed batches on two frames
    of its home node, every batch issued until it is memoized."""
    system = boot_bench_system("small", seed=3)
    coh = system.machine.coherence
    coord = ChainCoordinator(system.sim)
    chain_lines, other_lines, frames = [], [], []
    for cpu, home in _CHAIN_AT[:chains]:
        f0, f1, far = _frame(home, 0), _frame(home, 1), _frame(home, 5)
        c = _lines(f0, range(6)) + _lines(f1, range(4))
        cycle = [coh.prepare_batch([c[0], c[1], c[2], c[6]], [0, 1, 0, 1]),
                 coh.prepare_batch([c[3], c[4], c[7]], [1, 1, 0]),
                 coh.prepare_batch([c[5], c[0], c[8], c[9]], [0, 0, 0, 1])]
        chain_lines += c
        other_lines += _lines(f0, (20, 31)) + _lines(far, (0, 7))
        frames += [f0, f1, far]
        coord.register_chain(coh, cpu, cycle, 1_000)
    _grant_all(system.machine.memory, frames)
    for chain in coord.chains:
        for batch in chain.cycle + chain.cycle:
            _issue(coh, chain.cpu, batch)
    return system, coord, chain_lines, other_lines, frames


def _grant_all(mem, frames):
    for frame in frames:
        home = frame // _SMALL.pages_per_node
        for node in range(_SMALL.num_nodes):
            mem.firewalls[home].grant_node(frame, home, node)


def _fresh_peeks(coh, chain):
    return [coh.peek_memo(chain.cpu, batch) for batch in chain.cycle]


class PeekCacheMachine(RuleBasedStateMachine):
    """A chain's peek cache against a fresh ``peek_memo`` pass, after
    foreign traffic on its lines and on its home nodes' other lines,
    fault transitions, directory scrubs and its own live issues."""

    @initialize(chains=st.integers(1, 2))
    def boot(self, chains):
        (self.system, self.coord, self.chain_lines, self.other_lines,
         self.frames) = _chain_system(chains)
        self.coh = self.system.machine.coherence
        self.mem = self.system.machine.memory

    def _access(self, kind, cpu, line):
        try:
            getattr(self.coh, kind)(cpu, line * _SMALL.cache_line_size)
        except (BusError, FirewallViolation):
            pass

    @rule(kind=st.sampled_from(["read", "write"]), cpu=st.integers(0, 3),
          i=st.integers(0, 19))
    def chain_line(self, kind, cpu, i):
        self._access(kind, cpu, self.chain_lines[i % len(self.chain_lines)])

    @rule(kind=st.sampled_from(["read", "write"]), cpu=st.integers(0, 3),
          i=st.integers(0, 7))
    def heartbeat_line(self, kind, cpu, i):
        self._access(kind, cpu, self.other_lines[i % len(self.other_lines)])

    @rule(kind=st.sampled_from(["fail", "cutoff", "revive", "drop"]),
          node=st.integers(0, 3))
    def fault(self, kind, node):
        if kind == "fail":
            self.mem.fail_node(node)
        elif kind == "cutoff":
            self.mem.engage_cutoff(node)
        elif kind == "drop":
            self.coh.drop_node_cache_state(node)
        else:
            self.mem.revive_node(node)  # resets the firewall
            _grant_all(self.mem, [f for f in self.frames
                                  if f // _SMALL.pages_per_node == node])

    @rule(i=st.integers(0, 5))
    def invalidate(self, i):
        self.coh.invalidate_frames([self.frames[i % len(self.frames)]])

    @rule(c=st.integers(0, 1), slot=st.integers(0, 2))
    def own_issue(self, c, slot):
        chain = self.coord.chains[c % len(self.coord.chains)]
        _issue(self.coh, chain.cpu, chain.cycle[slot])
        chain.invalidate_peeks()

    @invariant()
    def peeks_are_fresh(self):
        for chain in self.coord.chains:
            assert not chain.shares_home
            fresh = _fresh_peeks(self.coh, chain)
            assert chain.cycle_peek_lats() == [
                -1 if p is None else p[0] for p in fresh]
            assert chain._peeks == fresh


PeekCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestPeekCache = PeekCacheMachine.TestCase


class TestPeekCacheGrain:
    """Only a directory change of one of the chain's own lines clears
    its peek cache, not one on another line of its home node."""

    def test_only_chain_lines_re_peek(self, monkeypatch):
        system, coord, chain_lines, other_lines, _ = _chain_system(1)
        coh = system.machine.coherence
        (chain,) = coord.chains
        assert -1 not in chain.cycle_peek_lats()
        peeks = []
        real = CoherenceController.peek_memo

        def counted(self, cpu, prepared):
            peeks.append(prepared)
            return real(self, cpu, prepared)

        monkeypatch.setattr(CoherenceController, "peek_memo", counted)
        line_size = _SMALL.cache_line_size
        # A foreign write to a non-chain line on the chain's home node
        # (a heartbeat stand-in) leaves the cache alone.
        for line in other_lines:
            coh.write(2, line * line_size)
        assert -1 not in chain.cycle_peek_lats()
        assert peeks == []
        # One to a line slot 1 reads re-peeks the cycle, which finds
        # that slot stale.
        coh.write(2, chain.cycle[1].lines[2] * line_size)
        lats = chain.cycle_peek_lats()
        assert peeks == chain.cycle
        assert [lat < 0 for lat in lats] == [False, True, False]
