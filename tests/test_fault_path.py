"""The page-fault path: find-or-fill, the COW break, the local-owner
anonymous fault and the Table 5.2 client, on a Hive cell and on IRIX.

The latencies pinned here are the simulated cost of each branch; a
change that moves one changes the simulation.
"""

from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.core.rpc import RpcHandlerError
from repro.core.sharing import LOCAL_RESERVE_FRAMES
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.unix.errors import FileError, ProcessKilled
from repro.unix.fs import PAGE
from repro.unix.pfdat import NoFreeFrames
from repro.workloads import Platform, PmakeWorkload

from tests.helpers import run_program
from tests.test_core_sharing import make_remote_file


def _unmap(ctx, region, page_index):
    """Drop the process's mapping of one page, as an eviction would."""
    kernel = ctx.kernel
    pte = ctx.process.aspace.unmap_page(kernel.kernel_id,
                                        region.start_vpn + page_index)
    kernel._drop_mapping(pte)


def _timed_touch(ctx, region, page_index, write=False):
    t0 = ctx.sim.now
    pte = yield from ctx.touch(region, page_index, write=write)
    return pte, ctx.sim.now - t0


class TestLocalOwnerAnonFault:
    """A Hive cell's anonymous fault whose COW owner is local."""

    def test_cow_break_copies_into_the_child_leaf(self, hive2):
        cell = hive2.cell(0)
        out = {}

        def child(ctx):
            region = ctx.process.aspace.regions[0]
            pte, out["latency"] = yield from _timed_touch(ctx, region, 0,
                                                          write=True)
            out["frame"] = pte.frame
            out["data"] = cell.machine.memory.read_bytes(pte.frame, 0, 6)
            leaf = cell.cow.resolve(region.cow_leaf_addr)
            pf = cell.pfdats.lookup((leaf.anon_tag(), 0))
            out["hashed"] = pf is not None and pf.frame == pte.frame
            out["dirty"] = pf.dirty
            out["writable"] = pte.writable

        def parent(ctx):
            region = yield from ctx.map_anon(2)
            pte = yield from ctx.touch(region, 0, write=True)
            out["parent_frame"] = pte.frame
            cell.machine.memory.write_bytes(pte.frame, 0, b"PARENT",
                                            cpu=ctx.cpu)
            pid = yield from ctx.spawn(child, "kid")
            out["status"] = yield from ctx.waitpid(pid)
            out["parent_data"] = cell.machine.memory.read_bytes(
                pte.frame, 0, 6)

        run_program(hive2, 0, parent)
        assert out["status"] == 0
        assert out["frame"] != out["parent_frame"]
        assert out["data"] == b"PARENT"
        assert out["parent_data"] == b"PARENT"
        assert out["hashed"] and out["dirty"] and out["writable"]
        assert out["latency"] == 32_000

    def test_read_then_dirty_keeps_the_frame(self, hive2):
        """A page recorded at the faulting leaf, refaulted read-only and
        then written: no copy, the same frame is dirtied."""
        cell = hive2.cell(0)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(2)
            first = yield from ctx.touch(region, 0, write=True)
            pf = first.pfdat
            _unmap(ctx, region, 0)
            yield from cell.writeback_page(pf, ctx)
            out["clean"] = not pf.dirty
            read, out["read_latency"] = yield from _timed_touch(
                ctx, region, 0)
            out["read"] = (read.frame == first.frame, read.writable,
                           pf.dirty)
            wrote, out["write_latency"] = yield from _timed_touch(
                ctx, region, 0, write=True)
            out["wrote"] = (wrote.frame == first.frame, wrote.writable,
                            pf.dirty, pf.refcount)

        run_program(hive2, 0, prog)
        assert out["clean"]
        assert out["read"] == (True, False, False)
        assert out["wrote"] == (True, True, True, 1)
        assert out["read_latency"] == 6_200
        assert out["write_latency"] == 6_200

    def test_poisoned_page_kills_the_faulting_process(self, hive2):
        cell = hive2.cell(0)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(2)
            yield from ctx.touch(region, 0, write=True)
            leaf = cell.cow.resolve(region.cow_leaf_addr)
            cell.poisoned_anon.add((leaf.anon_tag(), 0))
            _unmap(ctx, region, 0)
            try:
                yield from ctx.touch(region, 0)
            except ProcessKilled as exc:
                out["reason"] = exc.reason

        run_program(hive2, 0, prog)
        assert out["reason"] == "anonymous page was discarded"


def _task_shared(hive, cells, worker, npages=4):
    """Run a spanning task over ``cells`` with one shared segment."""

    def master(ctx):
        task = yield from ctx.kernel.spawn_spanning_task(
            ctx, lambda index, total: worker(index), cells, {1: npages},
            name="t")
        for pid in task.pids():
            yield from ctx.waitpid(pid)

    run_program(hive, cells[0], master)


def _segment(ctx):
    return next(r for r in ctx.process.aspace.regions if r.share_key == 1)


class TestTaskSharedFault:
    def test_data_home_refills_an_uncached_page_locally(self, hive2):
        cell = hive2.cell(0)
        out = {}

        def worker(index):
            def prog(ctx):
                region = _segment(ctx)
                pte = yield from ctx.touch(region, 0, write=True)
                lid = pte.pfdat.logical_id
                _unmap(ctx, region, 0)
                cell.pfdats.free_frame(pte.pfdat)
                remote = cell.metrics.counter("faults.remote").value
                again = yield from ctx.touch(region, 0)
                out["remote"] = (cell.metrics.counter("faults.remote").value
                                 - remote)
                out["home"] = again.data_home
                out["node"] = cell.machine.params.node_of_frame(again.frame)
                out["hashed"] = cell.pfdats.lookup(lid) is again.pfdat
                out["zero"] = cell.machine.memory.read_bytes(
                    again.frame, 0, PAGE) == bytes(PAGE)
            return prog

        _task_shared(hive2, [0], worker)
        assert out == {"remote": 0, "home": 0, "node": 0, "hashed": True,
                       "zero": True}

    def test_data_home_restores_a_swapped_page(self, hive2):
        """The clock hand swapped the data home's page out: the next
        fault there restores it from swap, as for an anonymous page."""
        cell = hive2.cell(0)
        out = {}

        def worker(index):
            def prog(ctx):
                region = _segment(ctx)
                pte = yield from ctx.touch(region, 0, write=True)
                cell.machine.memory.write_bytes(pte.frame, 0, b"TASK",
                                                cpu=ctx.cpu)
                _unmap(ctx, region, 0)
                out["evicted"] = yield from cell.evict(pte.pfdat)
                again = yield from ctx.touch(region, 0)
                out["data"] = cell.machine.memory.read_bytes(
                    again.frame, 0, 4)
            return prog

        _task_shared(hive2, [0], worker)
        assert out == {"evicted": True, "data": b"TASK"}

    def test_remote_page_refault_hits_the_client_hash(self, hive2):
        client = hive2.cell(1)
        out = {}

        def worker(index):
            def prog(ctx):
                region = _segment(ctx)
                if index == 0:
                    yield from ctx.touch(region, 0, write=True)
                    yield from ctx.compute(100_000_000)
                    return
                yield from ctx.compute(50_000_000)
                first = yield from ctx.touch(region, 0)
                ctx.process.aspace.unmap_page(client.kernel_id,
                                              region.start_vpn)
                remote = client.metrics.counter("faults.remote").value
                hits = client.metrics.counter("faults.local_hit").value
                again, out["latency"] = yield from _timed_touch(
                    ctx, region, 0)
                out["remote"] = (client.metrics.counter("faults.remote")
                                 .value - remote)
                out["hits"] = (client.metrics.counter("faults.local_hit")
                               .value - hits)
                out["same"] = (again.frame == first.frame
                               and again.data_home == 0 and again.writable)
            return prog

        _task_shared(hive2, [0, 1], worker)
        assert out == {"latency": 6_900, "remote": 0, "hits": 1,
                       "same": True}


class TestExportFailure:
    def test_file_page_raises_the_handlers_errno(self, hive2):
        make_remote_file(hive2)
        owner = hive2.cell(1)

        def refuse(src_cell, args):
            yield owner.costs.fault_home_misc_vm_ns
            raise RpcHandlerError("EACCES", "export refused")

        owner.rpc.register("export_page", refuse)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            try:
                yield from ctx.touch(region, 0)
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(hive2, 0, prog)
        assert out["errno"] == "EACCES"

    def test_task_page_is_restored_for_the_client(self, hive2):
        """The data home swapped the page out: its export misses the
        cache, and the queued export restores the page from swap."""
        home = hive2.cell(0)
        out = {}

        def worker(index):
            def prog(ctx):
                region = _segment(ctx)
                if index == 0:
                    pte = yield from ctx.touch(region, 0, write=True)
                    home.machine.memory.write_bytes(pte.frame, 0, b"TASK",
                                                    cpu=ctx.cpu)
                    _unmap(ctx, region, 0)
                    out["evicted"] = yield from home.evict(pte.pfdat)
                    yield from ctx.compute(100_000_000)
                    return
                yield from ctx.compute(50_000_000)
                pte = yield from ctx.touch(region, 0)
                out["home"] = pte.data_home
                out["data"] = home.machine.memory.read_bytes(
                    pte.frame, 0, 4)
            return prog

        _task_shared(hive2, [0, 1], worker)
        assert out == {"evicted": True, "home": 0, "data": b"TASK"}
        assert home.swap.swap_ins == 1
        assert check_system(hive2) == []


class TestAllocFrameFallback:
    def test_evicts_locally_when_no_cell_lends(self, hive2):
        cell, other = hive2.cell(0), hive2.cell(1)
        make_remote_file(hive2, npages=1, home_node=0)
        while other.pfdats.free_count > LOCAL_RESERVE_FRAMES:
            other.pfdats.alloc_frame()
        (cached,) = [pf for pf in cell.pfdats.hashed_pfdats()
                     if pf.logical_id[0][0] == "file"]
        while True:
            try:
                cell.pfdats.alloc_frame()
            except NoFreeFrames:
                break
        proc = hive2.sim.process(cell.alloc_frame())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 10_000_000_000)
        pf = proc.value
        assert pf is cached and not pf.extended
        assert pf.logical_id is None
        assert cell.metrics.counter("borrows").value == 0
        assert other.pfdats.reserved == {}


class TestConcurrentFill:
    """Two fills of one uncached page: the second waits for the first."""

    def test_two_file_page_fills_share_one_frame(self, irix):
        fs = irix.local_fs_for("/data/f")

        def setup(ctx):
            fd = yield from ctx.open("/data/f", "w", create=True)
            yield from ctx.write(fd, b"d" * 2 * PAGE)
            yield from ctx.close(fd)

        run_program(irix, 0, setup)

        def evict_all():
            while (yield from irix._evict_one(None)) is not None:
                pass

        irix.sim.run_until_event(irix.sim.process(evict_all()),
                                 deadline=irix.sim.now + 1_000_000_000)
        inode = fs.lookup("/data/f")
        assert irix.pfdats.lookup((("file", fs.fs_id, inode.ino), 1)) \
            is None
        first = irix.sim.process(irix.get_file_page(fs, inode, 1))
        second = irix.sim.process(irix.get_file_page(fs, inode, 1))
        irix.sim.run_until_event(irix.sim.all_of([first, second]),
                                 deadline=irix.sim.now + 1_000_000_000)
        assert first.value is second.value
        assert irix.machine.memory.read_bytes(first.value.frame, 0, 4) \
            == b"dddd"
        assert fs.disk_reads == 1

    def test_pmake_at_8_mib_per_node_runs_to_the_end(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4, machine_config=MachineConfig(
            params=HardwareParams(memory_per_node=8 * 1024 * 1024),
            seed=1995))
        hive.namespace.mount("/tmp", 1)
        hive.namespace.mount("/usr", 2)
        hive.namespace.mount("/results", 0)
        PmakeWorkload().run(Platform(hive))
        assert check_system(hive) == []
