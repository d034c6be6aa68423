"""The memory-pressure path: one evict rule, the queued export fill, the
errno boundary at the RPC server, loans as write grants, and the paper
apps run short of memory.

Each defect pinned here was seen on a paper app run below the default
32 MiB per node (seed 1995, 4 cells, ``/tmp``, ``/usr`` and
``/results`` on cells 1, 2 and 0).
"""

import ast
import pathlib

import pytest

from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.core.rpc import RpcRemoteError
from repro.core.sharing import LOCAL_RESERVE_FRAMES
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.unix.fs import PAGE
from repro.unix.pfdat import NoFreeFrames
from repro.workloads import (OceanWorkload, Platform, PmakeWorkload,
                             RaytraceWorkload)

from tests.helpers import run_program
from tests.test_same_simulation import output

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def run_gen(system, gen, deadline_ns=10**10):
    proc = system.sim.process(gen)
    system.sim.run_until_event(proc, deadline=system.sim.now + deadline_ns)
    assert proc.triggered, "generator did not finish"
    return proc.value


def dirty_file_page(hive, cell_id=0, path="/d/f", nbytes=PAGE):
    """Write ``nbytes`` to a file on ``cell_id``'s own disk; returns the
    (dirty, unreferenced) pfdat of its first page and its logical id."""
    hive.namespace.mount("/d", cell_id)
    cell = hive.cell(cell_id)

    def prog(ctx):
        fd = yield from ctx.open(path, "w", create=True)
        yield from ctx.write(fd, b"h" * nbytes)
        yield from ctx.close(fd)

    run_program(hive, cell_id, prog)
    fs = cell.local_fs_for(path)
    lid = (("file", fs.fs_id, fs.lookup(path).ino), 0)
    pf = cell.pfdats.lookup(lid)
    assert pf is not None and pf.dirty and pf.refcount == 0
    return pf, lid


class TestOneEvictRule:
    def test_page_exported_during_writeback_is_kept(self, hive2):
        """A remote export grants the page writable while its writeback
        waits on the disk: the evictor must keep it, or the grant record
        goes and the firewall bits stay."""
        cell = hive2.cell(0)
        pf, lid = dirty_file_page(hive2)
        evicting = hive2.sim.process(cell.evict(pf))

        def export():
            yield 100_000  # the writeback is still on the disk
            yield from cell.export_page_local(pf, 1, True)

        run_gen(hive2, export())
        hive2.sim.run_until_event(evicting, deadline=hive2.sim.now + 10**10)
        assert evicting.value is False
        assert cell.pfdats.lookup(lid) is pf and pf.export_writable == {1}
        assert pf.dirty  # the client may write it: its next eviction writes
        assert check_system(hive2) == []

    def test_write_during_writeback_is_kept(self, hive2):
        """A ``write`` into the page while its writeback waits on the
        disk: the disk holds the copy from before the write, so the page
        stays, dirty, and the write reaches the disk on the next evict."""
        cell = hive2.cell(0)
        pf, lid = dirty_file_page(hive2)
        evicting = hive2.sim.process(cell.evict(pf))
        out = {}

        def write(ctx):
            fd = yield from ctx.open("/d/f", "w")
            yield from ctx.write(fd, b"w" * 16)
            yield from ctx.close(fd)
            out["during"] = not evicting.triggered

        run_program(hive2, 0, write)
        hive2.sim.run_until_event(evicting, deadline=hive2.sim.now + 10**10)
        assert out["during"] and evicting.value is False
        assert cell.pfdats.lookup(lid) is pf and pf.dirty
        assert run_gen(hive2, cell.evict(pf)) is True

        def read(ctx):
            fd = yield from ctx.open("/d/f", "r")
            out["data"] = yield from ctx.read(fd, PAGE)

        run_program(hive2, 0, read)
        assert out["data"] == b"w" * 16 + b"h" * (PAGE - 16)

    def test_evict_one_keeps_a_page_referenced_during_writeback(self, hive2):
        cell = hive2.cell(0)
        pf, lid = dirty_file_page(hive2)
        evicting = hive2.sim.process(cell._evict_one(None))

        def reference():
            yield 100_000
            pf.refcount += 1  # a transient kernel hold

        run_gen(hive2, reference())
        hive2.sim.run_until_event(evicting, deadline=hive2.sim.now + 10**10)
        assert evicting.value is None
        assert cell.pfdats.lookup(lid) is pf and not pf.dirty

    def test_alloc_takes_a_frame_freed_during_the_eviction(self, hive2):
        """The page being evicted is referenced again during its
        writeback, but another path freed a frame meanwhile: the
        allocation takes that frame instead of failing."""
        cell, other = hive2.cell(0), hive2.cell(1)
        pf, lid = dirty_file_page(hive2)
        while other.pfdats.free_count > LOCAL_RESERVE_FRAMES:
            other.pfdats.alloc_frame()  # nothing to borrow
        held = cell.pfdats.alloc_frame()
        while cell.pfdats.free_count:
            cell.pfdats.alloc_frame()
        allocating = hive2.sim.process(cell.alloc_frame())

        def meanwhile():
            yield 100_000
            pf.refcount += 1
            cell.pfdats.free_frame(held)

        run_gen(hive2, meanwhile())
        hive2.sim.run_until_event(allocating,
                                  deadline=hive2.sim.now + 10**10)
        assert allocating.value is held
        assert cell.pfdats.lookup(lid) is pf

    def test_second_evictor_takes_another_page(self, hive2):
        """Two evictors of one page: the second leaves it to the first
        instead of writing it back again."""
        cell = hive2.cell(0)
        pf, lid = dirty_file_page(hive2)
        fs = cell.local_fs_for("/d/f")
        writes = fs.disk_writes
        first = hive2.sim.process(cell.evict(pf))
        second = hive2.sim.process(cell.evict(pf))
        hive2.sim.run_until_event(hive2.sim.all_of([first, second]),
                                  deadline=hive2.sim.now + 10**10)
        assert (first.value, second.value) == (True, False)
        assert fs.disk_writes == writes + 1
        assert cell.pfdats.lookup(lid) is None

    def test_swap_out_is_called_only_from_writeback_page(self):
        """``writeback_page`` is the one rule of where a page goes (file
        page to disk, anonymous or task page to swap)."""
        callers = set()
        for path in SRC.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "swap_out"):
                        callers.add(
                            f"{path.relative_to(SRC)}::{func.name}")
        assert callers == {"unix/kernel.py::writeback_page"}


class TestPartialWrite:
    def test_append_after_eviction_keeps_the_head(self, hive2):
        """Write 1 KiB, evict the page, append 3 KiB: the page must be
        read back from disk before the append, not zero-filled."""
        hive2.namespace.mount("/d", 0)
        cell = hive2.cell(0)
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/d/f", "w", create=True)
            yield from ctx.write(fd, b"H" * 1024)
            fs = cell.local_fs_for("/d/f")
            lid = (("file", fs.fs_id, fs.lookup("/d/f").ino), 0)
            while cell.pfdats.lookup(lid) is not None:
                assert (yield from cell._evict_one(ctx)) is not None
            yield from ctx.write(fd, b"T" * 3072)
            yield from ctx.close(fd)
            fd = yield from ctx.open("/d/f", "r")
            out["data"] = yield from ctx.read(fd, PAGE)

        run_program(hive2, 0, prog)
        assert out["data"] == b"H" * 1024 + b"T" * 3072


class TestRemoteInput:
    """A request from another cell may be stale or malformed; the data
    home answers it with an errno and keeps running."""

    def _export(self, hive, logical_id):
        client = hive.cell(0)

        def call():
            try:
                yield from client.rpc.call(
                    1, "export_page",
                    {"logical_id": logical_id, "writable": False})
            except RpcRemoteError as exc:
                return exc.errno
            return None

        return run_gen(hive, call())

    def test_stale_inode_is_estale(self, hive2):
        assert self._export(hive2, (("file", 1, 9999), 0)) == "ESTALE"

    def test_two_element_file_tag_is_einval(self, hive2):
        assert self._export(hive2, (("file", 1), 0)) == "EINVAL"

    def test_page_held_nowhere_is_enoent(self, hive2):
        assert self._export(hive2, (("task", 7, 1), 0)) == "ENOENT"

    def test_discarded_anon_page_in_swap_is_eio(self, hive2):
        """Recovery discarded the page but left its swap slot: the copy
        there is from before the failure, so it is not exported."""
        home = hive2.cell(1)
        lid = (("anon", 1, 5), 0)
        run_gen(hive2, home.swap.swap_out(lid, b"s" * PAGE))
        home.poisoned_anon.add(lid)
        assert self._export(hive2, lid) == "EIO"

    def test_out_of_memory_in_a_handler_is_enomem(self, hive2):
        def exhausted(src_cell, args):
            yield 0
            raise NoFreeFrames("no frame left")

        hive2.cell(1).rpc.register("exhausted", exhausted)

        def call():
            try:
                yield from hive2.cell(0).rpc.call(1, "exhausted", {})
            except RpcRemoteError as exc:
                return exc.errno
            return None

        assert run_gen(hive2, call()) == "ENOMEM"
        assert hive2.cell(1).alive


class TestLoanIsAGrant:
    def _borrow(self, hive):
        borrower = hive.cell(0)

        def borrow():
            result = yield from borrower.rpc.call(
                1, "borrow_frames", {"count": 2})
            for frame in result["frames"]:
                borrower.pfdats.borrow(frame, 1)
            return result["frames"]

        return run_gen(hive, borrow())

    def test_borrower_may_write_its_borrowed_frames(self, hive2):
        frames = self._borrow(hive2)
        lender, cpu0 = hive2.cell(1), hive2.cell(0).cpu_ids[0]
        for frame in frames:
            assert lender.pfdats.reserved[frame].export_writable == {0}
            hive2.machine.memory.write_bytes(frame, 0, b"mine", cpu=cpu0)
        assert check_system(hive2) == []

    def test_return_closes_the_borrowers_bits(self, hive2):
        frame, _ = self._borrow(hive2)
        cpu0 = hive2.cell(0).cpu_ids[0]
        run_gen(hive2, hive2.cell(0).rpc.call(1, "return_frame",
                                              {"frame": frame}))
        assert not hive2.machine.memory.write_allowed(frame, cpu0)
        assert hive2.cell(1).pfdats.by_frame(frame).on_free_list


def boot_pressured(mib):
    hive = boot_hive(Simulator(), num_cells=4, machine_config=MachineConfig(
        params=HardwareParams(num_nodes=4, cpus_per_node=1,
                              memory_per_node=mib << 20), seed=1995))
    hive.namespace.mount("/tmp", 1)
    hive.namespace.mount("/usr", 2)
    hive.namespace.mount("/results", 0)
    return hive


class TestPaperAppsUnderPressure:
    @pytest.mark.parametrize("name", ["pmake 6 MiB", "raytrace 6 MiB",
                                      "ocean 6 MiB"])
    def test_six_mib_completes_with_borrows(self, name):
        out = output(name)
        assert out["jobs_failed"] == 0 and out["outputs_ok"]
        assert out["problems"] == []
        assert sum(cell["kernel"].get("borrows", 0)
                   for cell in out["cells"].values()) > 0

    @pytest.mark.parametrize("workload_cls", [PmakeWorkload, OceanWorkload,
                                              RaytraceWorkload])
    def test_four_mib_ends_in_failed_jobs(self, workload_cls):
        """No cell has a frame to spare at 4 MiB per node (the kernel's
        reserve takes it all): every job fails, nothing raises."""
        hive = boot_pressured(4)
        result = workload_cls().run(Platform(hive))
        assert result.jobs_completed == 0 and result.jobs_failed > 0
        assert check_system(hive) == []
