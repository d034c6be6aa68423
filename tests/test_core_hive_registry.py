"""Unit tests for the cell registry, boot partitioning, and agreement
edge cases."""

import pytest

from repro.core.agreement import VotingAgreement
from repro.core.hive import boot_hive, _partition_nodes
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.unix.kheap import KOBJ_ALIGN


class TestPartitioning:
    def test_even_partition(self):
        assert _partition_nodes(4, 2) == {0: [0, 1], 1: [2, 3]}

    def test_uneven_partition_rejected(self):
        with pytest.raises(ValueError):
            _partition_nodes(4, 3)

    def test_boot_rejects_bad_cell_count(self):
        with pytest.raises(ValueError):
            boot_hive(Simulator(), num_cells=3)

    @pytest.mark.parametrize("cells", [0, -1])
    def test_fewer_than_one_cell_rejected(self, cells):
        # Not a ZeroDivisionError from the divisibility check.
        with pytest.raises(ValueError, match=f"^a system needs at least "
                                             f"one cell: {cells}$"):
            _partition_nodes(4, cells)


class TestRegistry:
    def make(self, ncells=4):
        return boot_hive(Simulator(), num_cells=ncells).registry

    def test_node_cell_mapping(self):
        reg = self.make(2)
        assert reg.cell_of_node(0) == 0
        assert reg.cell_of_node(3) == 1
        assert reg.nodes_of(1) == [2, 3]
        assert reg.first_node_of(1) == 2

    def test_pid_routing(self):
        reg = self.make()
        assert reg.cell_of_pid(2_00010) == 2
        assert reg.cell_of_pid(99_00000) is None

    def test_heap_ranges_disjoint_and_aligned(self):
        reg = self.make()
        ranges = [reg.heap_range_of(c) for c in reg.all_cell_ids()]
        for lo, hi in ranges:
            assert lo % KOBJ_ALIGN == 0
            assert lo < hi
        for i, (lo1, hi1) in enumerate(ranges):
            for lo2, hi2 in ranges[i + 1:]:
                assert hi1 <= lo2 or hi2 <= lo1

    def test_heap_range_unknown_cell(self):
        assert self.make().heap_range_of(99) is None

    def test_mark_dead_updates_liveness_and_tasks(self):
        hive = boot_hive(Simulator(), num_cells=4)
        reg = hive.registry
        task = reg.new_task()
        task.components[123] = 2
        reg.mark_dead(2, "test")
        assert not reg.is_live(2)
        assert task.dead
        assert 2 not in reg.live_cell_ids()

    def test_resolve_kernel_address_routes_to_cell_heap(self):
        hive = boot_hive(Simulator(), num_cells=2)
        cell = hive.cell(1)
        node = cell.cow.new_root()
        assert hive.registry.resolve_kernel_address(1, node.kaddr)[1] is node
        assert hive.registry.resolve_kernel_address(0, node.kaddr) is None


class TestAgreementEdgeCases:
    def test_cascaded_failure_grows_suspect_set(self):
        """A cell that dies *during* the round becomes a suspect too
        (the slow-voter restart of the membership algorithm)."""
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=2))
        hive.machine.halt_node(3)
        # Cell 2's processors halt too, but nobody has suspected it yet:
        # its missing vote must grow the suspect set.
        hive.machine.halt_processor_only(2)

        def prog():
            return (yield from VotingAgreement(hive.registry).run(0, {3}))

        proc = sim.process(prog())
        sim.run_until_event(proc, deadline=sim.now + 60_000_000_000)
        assert proc.value.confirmed_dead >= {3, 2}
        assert proc.value.rounds >= 2

    def test_simultaneous_failures_one_round(self):
        """Hints arriving during an active round queue up and are
        resolved (the CC-NOW demo's dead={9,14} behaviour)."""
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=4))
        hive.machine.halt_node(2)
        hive.machine.halt_node(3)
        sim.run(until=sim.now + 2_000_000_000)
        dead = set()
        for record in hive.coordinator.records:
            dead |= record.dead_cells
        assert dead == {2, 3}
        assert hive.registry.live_cell_ids() == [0, 1]

    def test_last_two_cells(self):
        """With two cells, losing one leaves a 1-cell system that keeps
        running (no quorum pathology)."""
        sim = Simulator()
        hive = boot_hive(sim, num_cells=2,
                         machine_config=MachineConfig(
                             params=HardwareParams(num_nodes=2), seed=6))
        hive.machine.halt_node(1)
        sim.run(until=sim.now + 2_000_000_000)
        assert hive.registry.live_cell_ids() == [0]
        assert hive.cell(0).alive
        # The survivor stops monitoring anyone (ring of one).
        assert hive.cell(0).detector.monitored_cell is None
