"""Tests for Wax (Section 3.2) and kernel-data fault injection (7.4)."""

import pytest

from repro.core.hive import boot_hive
from repro.core.kfaults import (
    ALL_MODES,
    CORRUPT_OFF_BY_ONE_WORD,
    CORRUPT_RANDOM_LOCAL,
    CORRUPT_RANDOM_REMOTE,
    CORRUPT_SELF_POINTER,
    KernelFaultInjector,
)
from repro.core.wax import Wax
from repro.hardware.machine import MachineConfig
from repro.sim.engine import Simulator
from repro.unix.errors import CarefulReferenceFault

from tests.helpers import run_program


def boot4(with_wax=False, seed=5):
    sim = Simulator()
    return boot_hive(sim, num_cells=4,
                     machine_config=MachineConfig(seed=seed),
                     with_wax=with_wax)


class TestWax:
    def test_wax_builds_global_snapshot(self):
        hive = boot4(with_wax=True)
        hive.sim.run(until=hive.sim.now + 200_000_000)
        wax = hive.registry.wax
        assert set(wax.snapshot) == {0, 1, 2, 3}
        assert all("free_frames" in s for s in wax.snapshot.values())

    def test_wax_pushes_sane_hints(self):
        hive = boot4(with_wax=True)
        hive.sim.run(until=hive.sim.now + 300_000_000)
        for cell in hive.cells:
            target = cell.wax_hints.get("borrow_target")
            assert target is not None
            assert target != cell.kernel_id
            assert hive.registry.is_live(target)

    def test_cells_reject_bad_wax_hints(self):
        """Sanity checking: a damaged Wax cannot hurt correctness."""
        hive = boot4()
        cell = hive.cell(0)
        assert not cell.validate_wax_hints({"borrow_target": 0})   # self
        assert not cell.validate_wax_hints({"borrow_target": 99})  # bogus
        assert not cell.validate_wax_hints({"borrow_target": "x"})
        assert cell.validate_wax_hints({"borrow_target": 2})

    def test_wax_dies_with_any_cell_and_restarts(self):
        hive = boot4(with_wax=True)
        hive.sim.run(until=hive.sim.now + 200_000_000)
        wax = hive.registry.wax
        first_incarnation = wax.incarnation
        hive.machine.halt_node(3)
        hive.sim.run(until=hive.sim.now + 800_000_000)
        assert wax.restarts >= 1
        assert wax.incarnation > first_incarnation
        # The new incarnation only spans surviving cells.
        assert set(wax.snapshot) <= {0, 1, 2}

    def test_hints_cleared_on_wax_death(self):
        hive = boot4(with_wax=True)
        hive.sim.run(until=hive.sim.now + 200_000_000)
        assert hive.cell(0).wax_hints
        hive.registry.wax.kill("test")
        assert not hive.cell(0).wax_hints


class TestKernelFaultInjection:
    def _hive_with_anon_process(self, seed=5):
        hive = boot4(seed=seed)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(32)
            for i in range(4):
                yield from ctx.touch(region, i, write=True)
            out["region"] = region
            # Keep running so the corruption can manifest.
            for i in range(4, 32):
                yield from ctx.touch(region, i, write=True)
                yield from ctx.compute(20_000_000)

        cell = hive.cell(2)
        proc = cell.create_process("victim")
        cell.start_thread(proc, prog)
        hive.sim.run(until=hive.sim.now + 50_000_000)
        return hive, out

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_address_map_corruption_panics_victim_only(self, mode):
        hive, _out = self._hive_with_anon_process()
        kfi = KernelFaultInjector(hive)
        rec = kfi.corrupt_address_map(2, mode, wild_writes=0)
        assert rec is not None
        hive.sim.run(until=hive.sim.now + 1_000_000_000)
        assert not hive.registry.is_live(2)
        for c in (0, 1, 3):
            assert hive.registry.is_live(c)

    def test_cow_corruption_detected_locally(self):
        hive, _out = self._hive_with_anon_process()
        # Fork inside the victim so an interior COW node exists.
        cell = hive.cell(2)
        out = {}

        def child(ctx):
            region = ctx.process.aspace.regions[0]
            for i in range(32):
                yield from ctx.touch(region, i)
                yield from ctx.compute(10_000_000)

        def forker(ctx):
            region = yield from ctx.map_anon(64)
            for i in range(32):
                yield from ctx.touch(region, i, write=True)
            pid = yield from ctx.spawn(child, "kid")
            # Keep faulting on new pages so a corrupted parent-side leaf
            # is traversed too (either fork branch detects the fault).
            for i in range(32, 64):
                yield from ctx.touch(region, i, write=True)
                yield from ctx.compute(10_000_000)
            out["status"] = yield from ctx.waitpid(pid)

        proc = cell.create_process("forker")
        cell.start_thread(proc, forker)
        hive.sim.run(until=hive.sim.now + 30_000_000)
        kfi = KernelFaultInjector(hive)
        rec = kfi.corrupt_cow_tree(2, CORRUPT_OFF_BY_ONE_WORD,
                                   wild_writes=0)
        assert rec is not None
        hive.sim.run(until=hive.sim.now + 2_000_000_000)
        assert not hive.registry.is_live(2)
        for c in (0, 1, 3):
            assert hive.registry.is_live(c)

    def test_cow_self_pointer_panics_the_victim(self):
        """A node pointing at itself: the victim's own walk meets the
        node twice and panics, at the first fault that walks it."""
        hive = boot4()
        cell = hive.cell(2)

        def forker(ctx):
            region = yield from ctx.map_anon(8)
            yield from ctx.touch(region, 0, write=True)
            pid = yield from ctx.spawn(child, "kid")
            yield from ctx.waitpid(pid)
            yield from ctx.touch(region, 2)  # misses the leaf

        def child(ctx):
            yield from ctx.compute(10_000_000)
            region = ctx.process.aspace.regions[0]
            yield from ctx.touch(region, 1)  # misses the leaf

        cell.start_thread(cell.create_process("forker"), forker)
        hive.sim.run(until=hive.sim.now + 5_000_000)
        kfi = KernelFaultInjector(hive)
        rec = kfi.corrupt_cow_tree(2, CORRUPT_SELF_POINTER, wild_writes=0)
        assert rec is not None
        hive.sim.run(until=hive.sim.now + 1_000_000_000)
        assert "COW tree cycle" in cell.panic_reason
        assert not hive.registry.is_live(2)
        for c in (0, 1, 3):
            assert hive.registry.is_live(c)

    def test_cycle_in_another_cell_is_a_hint_not_a_panic(self):
        """Cell 0 walks into a self pointer in cell 3's memory: the
        walk fails a careful-reference check and hints against cell 3,
        and cell 0 lives on."""
        hive = boot4()
        walker = hive.cell(0)
        node = hive.cell(3).cow.new_root()
        node.parent_addr = node.kaddr
        leaf = walker.cow.adopt_remote_child(node.kaddr, 3)
        hints, out = [], {}
        walker.detector.observers.append(hints.append)

        def walk():
            try:
                yield from walker._cow_search_once(leaf, 0)
            except CarefulReferenceFault as exc:
                out["fault"] = exc

        hive.sim.process(walk())
        hive.sim.run(until=hive.sim.now + 1_000_000)
        assert (out["fault"].remote_cell, out["fault"].check) == (3, "cycle")
        assert [h.suspect for h in hints] == [3]
        assert walker.alive and walker.panic_reason is None

    def _cell_with_idle_anon_process(self):
        """Cell 2 runs a process with a COW leaf that then only
        computes, so no page fault walks its tree."""
        hive = boot4()
        cell = hive.cell(2)

        def prog(ctx):
            region = yield from ctx.map_anon(4)
            yield from ctx.touch(region, 0, write=True)
            yield from ctx.compute(2_000_000_000)

        proc = cell.create_process("idle")
        cell.start_thread(proc, prog)
        hive.sim.run(until=hive.sim.now + 5_000_000)
        return hive, cell, proc, cell.cow.resolve(proc.cow_leaf_addr)

    def test_recovery_panics_a_cell_whose_own_tree_is_a_cycle(self):
        """Recovery checks every local process's COW ancestry; a cycle
        in the cell's own memory panics it there, as the fault search
        would, instead of reading as "no dead ancestor"."""
        hive, cell, _proc, leaf = self._cell_with_idle_anon_process()
        leaf.parent_addr, leaf.parent_cell = leaf.kaddr, 2
        hive.machine.halt_node(3)
        hive.sim.run(until=hive.sim.now + 1_000_000_000)
        assert "COW tree cycle" in cell.panic_reason
        assert not hive.registry.is_live(2)
        assert hive.registry.is_live(0) and hive.registry.is_live(1)
        # The panicked cell completed no round; the survivors did.
        assert cell.metrics.counter("recoveries").value == 0
        assert cell.recovery_metrics.counter("rounds").value == 0
        assert cell.recovery_metrics.histogram("duration_ns").total == 0
        assert hive.cell(0).recovery_metrics.counter("rounds").value >= 1

    def test_recovery_hints_against_a_corrupt_node_of_another_cell(self):
        """A local node claiming cell 1 as its owner holds a pointer
        that does not resolve: the suspect is cell 1, so the walker
        fails a careful-reference check against it and lives on."""
        _hive, cell, proc, leaf = self._cell_with_idle_anon_process()
        leaf.parent_addr, leaf.parent_cell = leaf.kaddr + 8, 2
        leaf.owner_cell = 1
        hints = []
        cell.detector.observers.append(hints.append)
        assert not cell._cow_ancestry_touches(proc, {3})
        assert [h.suspect for h in hints] == [1]
        assert cell.alive and cell.panic_reason is None

    def test_wild_writes_mostly_blocked_by_firewall(self):
        hive, _out = self._hive_with_anon_process()
        kfi = KernelFaultInjector(hive)
        rec = kfi.corrupt_address_map(2, CORRUPT_RANDOM_REMOTE,
                                      wild_writes=8)
        assert rec.wild_writes_attempted >= 1
        # A blocked wild write bus-errors and panics the buggy cell.
        if rec.wild_writes_blocked:
            assert not hive.cell(2).alive
        # Wild writes never land outside pages the victim could write:
        # every landed write hit the victim's own or granted memory.
        assert rec.wild_writes_landed + rec.wild_writes_blocked \
            == rec.wild_writes_attempted

    def test_corrupt_value_modes_shape(self):
        hive, _out = self._hive_with_anon_process()
        kfi = KernelFaultInjector(hive)
        cell = hive.cell(2)
        node = cell.cow.new_root()
        lo, hi = hive.registry.heap_range_of(2)
        v_local = kfi._corrupt_value(cell, node.kaddr,
                                     CORRUPT_RANDOM_LOCAL, node.kaddr)
        assert lo <= v_local < hi
        v_remote = kfi._corrupt_value(cell, node.kaddr,
                                      CORRUPT_RANDOM_REMOTE, node.kaddr)
        assert not (lo <= v_remote < hi)
        assert kfi._corrupt_value(cell, node.kaddr,
                                  CORRUPT_OFF_BY_ONE_WORD,
                                  node.kaddr) == node.kaddr + 8
        assert kfi._corrupt_value(cell, node.kaddr, CORRUPT_SELF_POINTER,
                                  node.kaddr) == node.kaddr


class TestGangScheduling:
    def test_wax_reserves_cpus_for_dominant_task(self):
        from repro.hardware.params import NS_PER_MS
        hive = boot4(with_wax=True)
        hive.sim.run(until=hive.sim.now + 150_000_000)
        out = {}

        def factory(index, total):
            def worker(ctx):
                yield from ctx.compute(400 * NS_PER_MS)
                out[index] = ctx.sim.now
            return worker

        def bg(ctx):
            # A background process competing for cell 0's only CPU.
            yield from ctx.compute(400 * NS_PER_MS)
            out["bg"] = ctx.sim.now

        def master(ctx):
            task = yield from ctx.kernel.spawn_spanning_task(
                ctx, factory, [0, 1, 2, 3], {1: 8}, name="gang")
            out["task_id"] = task.task_id
            for pid in task.pids():
                yield from ctx.waitpid(pid)

        c0 = hive.cell(0)
        bg_proc = c0.create_process("background")
        c0.start_thread(bg_proc, bg)
        m = c0.create_process("master")
        c0.start_thread(m, master)
        # Let Wax observe the task and push the gang hint.
        hive.sim.run(until=hive.sim.now + 300_000_000)
        reserved = getattr(c0, "_gang_reserved_pids", set())
        assert reserved, "Wax must reserve CPUs for the gang component"
        assert c0.sched._reserved_cpus == set(c0.cpu_ids)
        hive.sim.run(until=hive.sim.now + 3_000_000_000)
        # Everyone eventually completes; the reservation died with the task.
        assert set(range(4)) <= set(k for k in out if isinstance(k, int))
        assert "bg" in out
        assert not c0.sched._reserved_cpus

    def test_gang_hint_validation(self):
        hive = boot4()
        cell = hive.cell(0)
        assert not cell.validate_wax_hints({"gang_task": 999})
        assert not cell.validate_wax_hints({"gang_task": "x"})
