"""Unit tests for SIPS messaging, the disk model, and the interconnect."""

import math

import pytest

from repro.hardware.disk import Disk, DiskRequest
from repro.hardware.errors import BusError, SipsQueueFull
from repro.hardware.interconnect import Interconnect
from repro.hardware.machine import Machine, MachineConfig
from repro.hardware.params import HardwareParams
from repro.hardware.sips import REPLY, REQUEST, SipsFabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _mesh_connected_reference(num_nodes, failed):
    """Union-find over the row-major mesh of ``ceil(sqrt(n))`` columns:
    every link joins its two routers, failed or not (FLASH routers keep
    forwarding), and the live nodes must share one root."""
    width = max(1, math.ceil(math.sqrt(num_nodes)))
    parent = list(range(num_nodes))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for node in range(num_nodes):
        right, below = node + 1, node + width
        if right % width and right < num_nodes:
            parent[root(right)] = root(node)
        if below < num_nodes:
            parent[root(below)] = root(node)
    live = [n for n in range(num_nodes) if n not in failed]
    return len({root(n) for n in live}) <= 1


@pytest.fixture
def fabric():
    sim = Simulator()
    params = HardwareParams(num_nodes=4)
    return sim, params, SipsFabric(sim, params, Interconnect(params))


class TestSips:
    def test_delivery_latency(self, fabric):
        sim, params, sips = fabric
        got = []
        sips.register_handler(1, lambda m: got.append((sim.now, m.payload)))
        sips.send(0, 1, {"x": 1}, 16)
        sim.run()
        assert got == [(params.sips_latency_ns(), {"x": 1})]

    def test_payload_cap_is_one_cache_line(self, fabric):
        _sim, params, sips = fabric
        with pytest.raises(ValueError):
            sips.send(0, 1, {}, params.sips_payload + 1)

    def test_flow_control_rejects_when_queue_full(self, fabric):
        sim, params, sips = fabric
        # No handler: delivered messages queue; fill to depth.
        for _ in range(params.sips_queue_depth):
            sips.send(0, 1, {}, 8)
        with pytest.raises(SipsQueueFull):
            sips.send(0, 1, {}, 8)
        assert sips.flow_control_rejections == 1

    def test_request_and_reply_queues_are_separate(self, fabric):
        """Separate queues make deadlock avoidance easy (Section 6)."""
        sim, params, sips = fabric
        for _ in range(params.sips_queue_depth):
            sips.send(0, 1, {}, 8, kind=REQUEST)
        sips.send(0, 1, {}, 8, kind=REPLY)  # must not raise

    def test_send_to_failed_node_bus_errors(self, fabric):
        _sim, _params, sips = fabric
        sips.fail_node(1)
        with pytest.raises(BusError):
            sips.send(0, 1, {}, 8)

    def test_send_from_failed_node_bus_errors(self, fabric):
        _sim, _params, sips = fabric
        sips.fail_node(0)
        with pytest.raises(BusError):
            sips.send(0, 1, {}, 8)

    def test_in_flight_message_lost_with_node(self, fabric):
        sim, _params, sips = fabric
        got = []
        sips.register_handler(1, lambda m: got.append(m))
        sips.send(0, 1, {}, 8)
        sips.fail_node(1)  # dies before delivery
        sim.run()
        assert got == []

    def test_bad_kind_rejected(self, fabric):
        _sim, _params, sips = fabric
        with pytest.raises(ValueError):
            sips.send(0, 1, {}, 8, kind="bogus")


class TestInterconnect:
    def test_hop_distance(self):
        ic = Interconnect(HardwareParams(num_nodes=4))
        assert ic.hops(0, 0) == 0
        assert ic.hops(0, 3) == 2  # 2x2 mesh diagonal

    def test_flat_latency_by_default(self):
        params = HardwareParams(num_nodes=4)
        ic = Interconnect(params)
        assert ic.miss_latency_ns(0, 3) == params.mem_latency_ns

    def test_hop_sensitive_mode(self):
        params = HardwareParams(num_nodes=4)
        ic = Interconnect(params, hop_sensitive=True)
        assert (ic.miss_latency_ns(0, 3)
                == params.mem_latency_ns + 2 * params.mesh_hop_ns)

    def test_connectivity_survives_node_failures(self):
        """The FLASH fault model rules out partitions."""
        ic = Interconnect(HardwareParams(num_nodes=4))
        assert ic.is_connected()
        ic.fail_node(1)
        assert ic.is_connected()
        ic.fail_node(2)
        assert ic.is_connected()

    def test_connectivity_matches_union_find_reference(self):
        """1-20 nodes (partial last rows included): every failed-node
        subset up to 6 nodes, then every single, adjacent pair and
        alternate-node failure pattern."""
        for n in range(1, 21):
            if n <= 6:
                patterns = [{i for i in range(n) if mask >> i & 1}
                            for mask in range(2 ** n)]
            else:
                patterns = ([set()] + [{i} for i in range(n)]
                            + [{i, i + 1} for i in range(n - 1)]
                            + [set(range(k, n, 2)) for k in (0, 1)]
                            + [set(range(1, n))])
            for failed in patterns:
                ic = Interconnect(HardwareParams(num_nodes=n))
                for node in failed:
                    ic.fail_node(node)
                assert ic.is_connected() == _mesh_connected_reference(
                    n, failed), (n, sorted(failed))

    def test_live_nodes(self):
        ic = Interconnect(HardwareParams(num_nodes=4))
        ic.fail_node(2)
        assert ic.live_nodes() == [0, 1, 3]
        ic.revive_node(2)
        assert ic.live_nodes() == [0, 1, 2, 3]


class TestDisk:
    def make_disk(self):
        sim = Simulator()
        return sim, Disk(sim, HardwareParams(), RandomStreams(1), node_id=0)

    def test_io_has_positive_latency(self):
        sim, disk = self.make_disk()
        p = sim.process(disk.read(100, 4096))
        sim.run()
        assert p.value > 1_000_000  # > 1 ms

    def test_larger_transfers_take_longer(self):
        sim, disk = self.make_disk()
        small = disk.transfer_ns(4096)
        large = disk.transfer_ns(64 * 4096)
        assert large > small

    def test_seek_monotonic_in_distance(self):
        _sim, disk = self.make_disk()
        assert disk.seek_ns(0, 0) == 0
        assert disk.seek_ns(0, 10) < disk.seek_ns(0, 1000)

    def test_single_arm_serializes_requests(self):
        sim, disk = self.make_disk()
        p1 = sim.process(disk.read(0, 4096))
        p2 = sim.process(disk.read(10_000, 4096))
        sim.run()
        # Second request waits for the first: total elapsed for p2
        # includes queueing.
        assert disk.requests == 2
        assert disk.service_time.count == 2

    def test_stats_track_bytes(self):
        sim, disk = self.make_disk()
        sim.process(disk.write(0, 8192))
        sim.run()
        assert disk.bytes_moved == 8192


class TestMachineFaults:
    def test_halt_node_fails_all_layers(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.halt_node(2)
        assert m.nodes[2].halted
        assert m.memory.node_failed(2)
        with pytest.raises(BusError):
            m.sips.send(0, 2, {}, 8)
        assert 2 not in m.live_node_ids()

    def test_halt_reports_lost_dirty_frames(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.coherence.write(2, 2 * m.params.memory_per_node)  # own memory
        lost = m.halt_node(2)
        assert lost == {2 * m.params.pages_per_node}

    def test_processor_only_halt_keeps_memory(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.halt_processor_only(2)
        # Memory still serves reads (clock monitoring sees a stall, not
        # a bus error).
        m.memory.read_page(2 * m.params.pages_per_node)

    def test_memory_only_failure(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.fail_memory_range(2)
        assert not m.nodes[2].halted
        with pytest.raises(BusError):
            m.memory.read_page(2 * m.params.pages_per_node)

    def test_revive_restores_everything(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.halt_node(2)
        m.revive_node(2)
        assert not m.nodes[2].halted
        m.memory.read_page(2 * m.params.pages_per_node)
        assert 2 in m.live_node_ids()

    def test_diagnostics_pass_on_connected_mesh(self):
        sim = Simulator()
        m = Machine(sim, MachineConfig())
        m.halt_node(3)
        assert m.run_diagnostics(3)


class TestFaultInjector:
    def test_phase_triggered_injection(self):
        from repro.hardware.faults import FaultInjector

        sim = Simulator()
        m = Machine(sim, MachineConfig())
        inj = FaultInjector(sim, m)
        inj.arm_phase("process_creation", FaultInjector.NODE_FAILURE, 1)
        assert inj.phase_hit("other_phase") is None
        rec = inj.phase_hit("process_creation")
        assert rec is not None and rec.node_id == 1
        assert m.nodes[1].halted
        # Armed once: second hit does nothing.
        assert inj.phase_hit("process_creation") is None

    def test_none_arm_skips_one_phase_hit(self):
        """A ``None`` arm uses up one occurrence of the phase without
        injecting; the real arm behind it fires on the next one."""
        from repro.hardware.faults import FaultInjector

        sim = Simulator()
        m = Machine(sim, MachineConfig())
        inj = FaultInjector(sim, m)
        inj.arm_phase("cow_search", None, 1)
        inj.arm_phase("cow_search", FaultInjector.NODE_FAILURE, 1)
        assert inj.phase_hit("cow_search") is None
        assert not m.nodes[1].halted and inj.records == []
        rec = inj.phase_hit("cow_search")
        assert rec is not None and rec.trigger == "phase:cow_search"
        assert m.nodes[1].halted

    def test_timed_injection(self):
        from repro.hardware.faults import FaultInjector

        sim = Simulator()
        m = Machine(sim, MachineConfig())
        inj = FaultInjector(sim, m)
        inj.inject_at(1_000, FaultInjector.NODE_FAILURE, 2)
        sim.run()
        assert m.nodes[2].halted
        assert inj.records[0].trigger == "timed"

    def test_observers_notified(self):
        from repro.hardware.faults import FaultInjector

        sim = Simulator()
        m = Machine(sim, MachineConfig())
        inj = FaultInjector(sim, m)
        seen = []
        inj.observers.append(seen.append)
        inj.inject(FaultInjector.PROCESSOR_HALT, 1)
        assert len(seen) == 1 and seen[0].kind == "processor_halt"
