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

from repro.bench.throughput import (CONFIGS, _traffic, boot_bench_system,
                                    compare_parked, run_throughput)
from repro.obs.profile import tier_snapshot
from repro.sim.channels import (COH_READ_MISS, COH_WRITE_MISS,
                                SIPS_REQUEST, CellChannels,
                                ChannelViolation, attach_channels)
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
