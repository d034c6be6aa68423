"""Tests for logical-level and physical-level memory sharing (Section 5)."""

import pytest

from repro.core.sharing import LOCAL_RESERVE_FRAMES
from repro.unix.errors import FileError, StaleGenerationError
from repro.unix.fs import PAGE

from tests.helpers import run_program


def make_remote_file(hive, path="/shared/f", npages=4, home_node=1):
    """Create a file on cell 1's FS (2-cell hive) and warm it."""
    hive.namespace.mount("/shared", home_node)
    owner = hive.cell(home_node)
    data = bytes([(i * 7) % 256 for i in range(npages * PAGE)])

    def setup(ctx):
        fd = yield from ctx.open(path, "w", create=True)
        yield from ctx.write(fd, data)
        yield from ctx.close(fd)

    run_program(hive, home_node, setup)
    return data


class TestLogicalSharing:
    def test_remote_fault_imports_page(self, hive2):
        make_remote_file(hive2)
        client = hive2.cell(0)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            pte = yield from ctx.touch(region, 0)
            out["frame"] = pte.frame
            out["data_home"] = pte.data_home
            # While mapped, the client holds an extended pfdat in its
            # hash (it is released again when the process exits).
            pf = client.pfdats.by_frame(pte.frame)
            out["extended"] = pf is not None and pf.extended
            out["imported_from"] = pf.imported_from if pf else None

        run_program(hive2, 0, prog)
        assert out["data_home"] == 1
        # The frame belongs to node 1 (the data home's memory).
        assert hive2.params.node_of_frame(out["frame"]) == 1
        assert out["extended"]
        assert out["imported_from"] == 1

    def test_data_home_records_client_in_export(self, hive2):
        make_remote_file(hive2)
        owner = hive2.cell(1)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            yield from ctx.touch(region, 0)

        run_program(hive2, 0, prog)
        exported = [pf for pf in owner.pfdats.all_pfdats()
                    if 0 in pf.exported_to]
        assert exported, "export must record the client cell"

    def test_second_fault_hits_client_hash(self, hive2):
        """Section 5.2: later faults avoid the RPC."""
        make_remote_file(hive2)
        client = hive2.cell(0)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            yield from ctx.touch(region, 0)
            ctx.process.aspace.unmap_page(client.kernel_id,
                                          region.start_vpn)
            before = client.metrics.counter("faults.remote").value
            t0 = ctx.sim.now
            yield from ctx.touch(region, 0)
            out["latency"] = ctx.sim.now - t0
            out["new_remote"] = (
                client.metrics.counter("faults.remote").value - before)

        run_program(hive2, 0, prog)
        assert out["new_remote"] == 0
        assert out["latency"] == 6_900  # the local-hit fast path

    def test_remote_fault_latency_matches_table_5_2(self, hive2):
        make_remote_file(hive2)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            t0 = ctx.sim.now
            yield from ctx.touch(region, 1)
            out["latency"] = ctx.sim.now - t0

        run_program(hive2, 0, prog)
        assert out["latency"] == 50_700

    def test_remote_fault_on_an_uncached_page_fills_from_disk(self, hive2):
        """The data home's interrupt-level export misses its page cache
        and falls back to queued service, which reads the page from
        disk (Section 4.3's best-effort-then-queued structure)."""
        data = make_remote_file(hive2)
        owner = hive2.cell(1)

        def evict_all():
            while (yield from owner._evict_one(None)) is not None:
                pass

        hive2.sim.run_until_event(hive2.sim.process(evict_all()),
                                  deadline=hive2.sim.now + 1_000_000_000)
        assert not list(owner.pfdats.hashed_pfdats())
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            pte = yield from ctx.touch(region, 1)
            out["page"] = hive2.machine.memory.read_bytes(pte.frame, 0,
                                                          PAGE)

        run_program(hive2, 0, prog)
        assert out["page"] == data[PAGE:2 * PAGE]
        assert owner.rpc.metrics.counter("queued_fallback").value == 1

    def test_writable_import_grants_firewall(self, hive2):
        data = make_remote_file(hive2)
        client = hive2.cell(0)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            pte = yield from ctx.touch(region, 0, write=True)
            # The client CPU can now really write node 1's frame.
            client.machine.memory.write_bytes(pte.frame, 0, b"NEW",
                                              cpu=ctx.cpu)
            out["ok"] = True

        run_program(hive2, 0, prog)
        assert out["ok"]
        assert hive2.cell(1).firewall_mgr.remotely_writable_pages() >= 1

    def test_readonly_import_gets_no_grant(self, hive2):
        make_remote_file(hive2)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=False)
            yield from ctx.touch(region, 0)

        run_program(hive2, 0, prog)
        assert hive2.cell(1).firewall_mgr.remotely_writable_pages() == 0

    def test_release_returns_page_to_data_home(self, hive2):
        make_remote_file(hive2)
        client, owner = hive2.cell(0), hive2.cell(1)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            yield from ctx.touch(region, 0, write=True)
            # exit: teardown drops the mapping, releasing the import

        run_program(hive2, 0, prog)
        hive2.sim.run(until=hive2.sim.now + 50_000_000)
        # Extended pfdat gone on the client...
        assert not any(pf.extended for pf in client.pfdats.all_pfdats())
        # ...and the data home revoked the write grant.
        assert owner.firewall_mgr.remotely_writable_pages() == 0

    def test_remote_read_write_syscalls(self, hive2):
        data = make_remote_file(hive2, npages=8)
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/shared/f", "r")
            out["read"] = yield from ctx.read(fd, len(data))
            yield from ctx.close(fd)
            fd = yield from ctx.open("/shared/g", "w", create=True)
            out["wrote"] = yield from ctx.write(fd, b"q" * PAGE * 2)
            yield from ctx.close(fd)

        run_program(hive2, 0, prog)
        assert out["read"] == data
        assert out["wrote"] == 2 * PAGE
        # The written data really lives at the data home.
        owner = hive2.cell(1)
        fs = owner.local_fs_for("/shared/g")
        inode = fs.lookup("/shared/g")
        assert inode.size == 2 * PAGE

    def test_stale_generation_on_remote_fault(self, hive2):
        make_remote_file(hive2)
        owner = hive2.cell(1)
        out = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            fs = owner.local_fs_for("/shared/f")
            fs.bump_generation(fs.lookup("/shared/f"))
            try:
                yield from ctx.touch(region, 0)
            except StaleGenerationError:
                out["stale"] = True

        run_program(hive2, 0, prog)
        assert out["stale"]

    def test_remote_open_missing_file(self, hive2):
        hive2.namespace.mount("/shared", 1)
        out = {}

        def prog(ctx):
            try:
                yield from ctx.open("/shared/missing", "r")
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(hive2, 0, prog)
        assert out["errno"] == "ENOENT"

    def test_remote_unlink(self, hive2):
        make_remote_file(hive2)

        def prog(ctx):
            yield from ctx.unlink("/shared/f")

        run_program(hive2, 0, prog)
        assert not hive2.cell(1).local_fs_for("/shared/f").exists("/shared/f")


class TestCrossCellAnonymous:
    def test_remote_fork_cow_search_imports_parent_page(self, hive2):
        out = {}

        def child(ctx):
            region = ctx.process.aspace.regions[0]
            pte = yield from ctx.touch(region, 0)
            out["data"] = ctx.kernel.machine.memory.read_bytes(
                pte.frame, 0, 5)
            out["child_cell"] = ctx.kernel.kernel_id

        def parent(ctx):
            region = yield from ctx.map_anon(4)
            pte = yield from ctx.touch(region, 0, write=True)
            ctx.kernel.machine.memory.write_bytes(pte.frame, 0, b"SCENE",
                                                  cpu=ctx.cpu)
            pid = yield from ctx.spawn(child, "kid", target_cell=1)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive2, 0, parent)
        assert out["child_cell"] == 1
        assert out["data"] == b"SCENE"
        assert out["status"] == 0

    def test_child_write_breaks_cow_locally(self, hive2):
        out = {}

        def child(ctx):
            region = ctx.process.aspace.regions[0]
            pte = yield from ctx.touch(region, 0, write=True)
            out["child_frame_node"] = ctx.kernel.machine.params.node_of_frame(
                pte.frame)

        def parent(ctx):
            region = yield from ctx.map_anon(2)
            yield from ctx.touch(region, 0, write=True)
            pid = yield from ctx.spawn(child, "kid", target_cell=1)
            yield from ctx.waitpid(pid)

        run_program(hive2, 0, parent)
        # The private copy is allocated on the child's cell.
        assert out["child_frame_node"] == 1


class TestPhysicalSharing:
    def test_borrow_and_return(self, hive2):
        borrower, lender = hive2.cell(0), hive2.cell(1)
        out = {}

        def prog():
            result = yield from borrower.rpc.call(
                1, "borrow_frames", {"count": 4})
            out["frames"] = result["frames"]
            for frame in result["frames"]:
                pf = borrower.pfdats.alloc_extended(frame)
                pf.borrowed_from = 1
                borrower.return_borrowed_frame(pf)

        proc = hive2.sim.process(prog())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 10_000_000_000)
        hive2.sim.run(until=hive2.sim.now + 50_000_000)
        assert len(out["frames"]) == 4
        assert lender.pfdats.reserved == {}

    def test_lender_keeps_deadlock_reserve(self, hive2):
        lender = hive2.cell(1)
        free_before = lender.pfdats.free_count
        borrower = hive2.cell(0)

        def prog():
            got = 0
            while True:
                result = yield from borrower.rpc.call(
                    1, "borrow_frames", {"count": 256})
                if not result["frames"]:
                    return got
                got += len(result["frames"])

        proc = hive2.sim.process(prog())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 600_000_000_000)
        assert proc.value == free_before - LOCAL_RESERVE_FRAMES
        assert lender.pfdats.free_count == LOCAL_RESERVE_FRAMES

    def test_borrowed_frame_firewall_update_via_rpc(self, hive2):
        """Section 5.4: the borrower must RPC the memory home to change
        firewall state on a borrowed frame."""
        borrower, lender = hive2.cell(0), hive2.cell(1)

        def prog():
            result = yield from borrower.rpc.call(
                1, "borrow_frames", {"count": 1})
            frame = result["frames"][0]
            pf = borrower.pfdats.alloc_extended(frame)
            pf.borrowed_from = 1
            # Borrower (data home) exports the page writable... to itself
            # is implicit; grant a third party via the memory home.
            yield from borrower.rpc.call(
                1, "firewall_update",
                {"frame": frame, "grantee": 0, "grant": True})
            return frame

        proc = hive2.sim.process(prog())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 10_000_000_000)
        frame = proc.value
        assert hive2.machine.memory.write_allowed(frame,
                                                  borrower.cpu_ids[0])

    def test_non_borrower_cannot_flip_firewall(self, hive2):
        from repro.core.rpc import RpcRemoteError

        lender = hive2.cell(1)
        attacker = hive2.cell(0)
        frame = lender.pfdats.alloc_frame().frame  # owned, loaned to nobody

        def prog():
            try:
                yield from attacker.rpc.call(
                    1, "firewall_update",
                    {"frame": frame, "grantee": 0, "grant": True})
            except RpcRemoteError as exc:
                return exc.errno

        proc = hive2.sim.process(prog())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 10_000_000_000)
        assert proc.value == "EPERM"

    def test_loaned_frame_reimport_reuses_regular_pfdat(self, hive2):
        """Section 5.5: a loaned frame imported back by its memory home
        reuses the preexisting pfdat."""
        memory_home, data_home = hive2.cell(0), hive2.cell(1)

        def prog():
            result = yield from data_home.rpc.call(
                0, "borrow_frames", {"count": 1})
            return result["frames"][0]

        proc = hive2.sim.process(prog())
        hive2.sim.run_until_event(proc,
                                  deadline=hive2.sim.now + 10_000_000_000)
        frame = proc.value
        reserved_pf = memory_home.pfdats.reserved[frame]
        imported = memory_home.import_page(frame, data_home=1,
                                           logical_id=(("file", 1, 99), 0),
                                           is_writable=False)
        assert imported is reserved_pf
        assert imported.loaned_to == 1          # physical state intact
        assert imported.imported_from == 1      # logical state added
