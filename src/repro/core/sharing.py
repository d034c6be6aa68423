"""Memory sharing among cells (Section 5): logical and physical levels.

*Logical-level* sharing lets a process on one cell use a data page cached
by another: the data home ``export``s the page (recording the client cell
in its pfdat and adjusting the firewall) and the client ``import``s it
(allocating an *extended pfdat* and inserting it into its own pfdat hash
so later faults hit locally).  ``release`` undoes an import and tells the
data home (one RPC for all a cell releases to it in one instant), which
keeps the page on *its* free list for reuse.

*Physical-level* sharing lets a cell under memory pressure *borrow* page
frames: the memory home moves the frame to a reserved list and ignores it
"until the data home frees it or fails"; the borrower manages it as one of
its own through an extended pfdat, except firewall changes go by RPC to
the memory home.

The two levels compose (Section 5.5): a frame can be simultaneously
borrowed and exported, or loaned out and *reimported* by its memory home —
in which case the preexisting regular pfdat is reused because the two
state machines use separate pfdat storage.

This module is a mixin over :class:`~repro.unix.kernel.LocalKernel`: it
overrides the remote hooks (`fault_page`, `open_remote`, `read_remote`,
`write_remote`, ...) and registers the data-home RPC handlers.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.hardware.errors import BusError
from repro.core.rpc import MUST_QUEUE, QUEUED, RpcHandlerError, RpcRemoteError
from repro.unix.address_space import ANON_REGION, FILE_REGION, Pte, Region
from repro.unix.cow import COW_NODE_TAG, CowNode, CowTreeCorrupt
from repro.unix.errors import (
    CarefulReferenceFault,
    FileError,
    ProcessKilled,
    RpcTimeout,
    StaleGenerationError,
)
from repro.unix.fs import PAGE
from repro.unix.kernel import ProcContext
from repro.unix.pfdat import NoFreeFrames, Pfdat
from repro.unix.process import FileDescriptor

#: pages moved per bulk file-I/O RPC (amortizes RPC cost across a big
#: read/write, giving Table 7.3's modest 1.1-1.2x remote ratios).
BULK_PAGES = 16
#: keep at least this many local free frames before borrowing, and never
#: lend below it ("preserving enough local free memory to avoid
#: deadlock", Section 3.2).
LOCAL_RESERVE_FRAMES = 64
#: frames fetched per borrow RPC.
BORROW_BATCH = 16
#: frames per release RPC: the data home refuses a longer list (the
#: ``bulk_pages`` sanity cap), so the client splits a longer batch.
RELEASE_BATCH_MAX = 64
#: bucket bounds of the frames-per-release-RPC histogram.
RELEASE_BATCH_BOUNDS = [1, 2, 4, 8, 16, 32, 64]


class SharingMixin:
    """Intercell memory sharing for a Hive cell."""

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_sharing(self) -> None:
        #: borrowed free frames ready for allocation
        self._borrowed_free: List[Pfdat] = []
        #: frames released this instant and not yet sent, per data home
        self._release_batches: Dict[int, List[int]] = {}
        self.metrics.counter("faults.remote")
        self.metrics.counter("faults.local_hit")
        self.rpc.register("ping", self._h_ping)
        self.rpc.register("ping_queued", self._h_ping, QUEUED)
        self.rpc.register("export_page", self._h_export_page,
                          queued=self._h_export_page_queued)
        self.rpc.register("release_pages", self._h_release_pages)
        self.rpc.register("export_anon_page", self._h_export_anon_page)
        self.rpc.register("cow_deref", self._h_cow_deref)
        self.rpc.register("open_file", self._h_open_file, QUEUED)
        self.rpc.register("unlink_file", self._h_unlink_file, QUEUED)
        self.rpc.register("bulk_pages", self._h_bulk_pages, QUEUED)
        self.rpc.register("file_extend", self._h_file_extend)
        self.rpc.register("borrow_frames", self._h_borrow_frames)
        self.rpc.register("return_frame", self._h_return_frame)
        self.rpc.register("firewall_update", self._h_firewall_update)

    # ------------------------------------------------------------------
    # import / export / release (Table 5.1 primitives)
    # ------------------------------------------------------------------

    def import_page(self, frame: int, data_home: int, logical_id: tuple,
                    is_writable: bool) -> Pfdat:
        """Bind a remote page into the local page cache (Table 5.1).

        Allocates an extended pfdat — or, if ``frame`` is one of our own
        frames loaned out and now coming back as data, reuses the
        preexisting regular pfdat (the Section 5.5 CC-NUMA reimport).
        """
        existing = self.pfdats.reserved.get(frame)
        if existing is not None:
            pf = existing  # loaned frame reimported: reuse regular pfdat
        else:
            pf = self.pfdats.by_frame(frame)
            if pf is None:
                pf = self.pfdats.alloc_extended(frame)
        if pf.logical_id is None:
            self.pfdats.insert(pf, logical_id)
        pf.imported_from = data_home
        self.sharing_metrics.counter("imports").add()
        prov = self.prov
        if prov is not None:
            prov.page_imported(self.kernel_id, data_home, frame)
        return pf

    def release_page(self, pf: Pfdat) -> None:
        """Release an import: free the extended pfdat, notify data home.

        "release frees the extended pfdat and sends an RPC to the data
        home, which places the page on the data home free list if no
        other references remain" (Section 5.2).  The RPC carries every
        frame released for that data home in the same instant (a process
        exit drops all its mappings at once): the first release of an
        instant starts the process that sends the batch.
        """
        data_home = pf.imported_from
        frame = pf.frame
        pf.imported_from = None
        self.sharing_metrics.counter("releases").add()
        if pf.extended:
            self.pfdats.release_extended(pf)
        else:
            # Reimported loaned frame: drop the logical binding only.
            self.pfdats.remove(pf)
        if data_home is None or not self.registry.is_live(data_home):
            return
        batch = self._release_batches.get(data_home)
        if batch is None:
            batch = self._release_batches[data_home] = []
            self.sim.process(self._flush_releases(data_home),
                             name=f"c{self.kernel_id}.release")
        batch.append(frame)

    def _flush_releases(self, data_home: int) -> Generator:
        """Send one instant's releases, split at the server's cap.

        Every chunk goes out at once, each as its own call: all of them
        are in the data home's FIFO request queue before the client can
        send an export for a page it faults again, so no chunk is
        overtaken by a re-import of one of its pages.
        """
        frames = self._release_batches.pop(data_home)
        for start in range(RELEASE_BATCH_MAX, len(frames), RELEASE_BATCH_MAX):
            self.sim.process(
                self._send_release(
                    data_home, frames[start:start + RELEASE_BATCH_MAX]),
                name=f"c{self.kernel_id}.release")
        yield from self._send_release(data_home, frames[:RELEASE_BATCH_MAX])

    def _send_release(self, data_home: int, frames: List[int]) -> Generator:
        if not (self.alive and self.registry.is_live(data_home)):
            return  # either end died this instant: recovery cleans up
        self.sharing_metrics.counter("release_batches").add()
        self.sharing_metrics.histogram(
            "release_batch_frames", RELEASE_BATCH_BOUNDS).record(len(frames))
        try:
            # One frame fits the request line, as release_page did; a
            # longer list goes by reference (oversize-argument path).
            yield from self.rpc.call(data_home, "release_pages",
                                     {"frames": frames},
                                     arg_bytes=56 + 8 * len(frames))
        except (RpcTimeout, RpcRemoteError):
            pass  # data home failing is handled by recovery

    def release_imported_page(self, pf: Pfdat) -> None:
        """Hook from the base kernel when an import's last mapping drops."""
        if pf.imported_from is not None:
            self.release_page(pf)

    def release_fd_imports(self, fd) -> None:
        """Release pages imported for a descriptor's I/O (at close/exit)."""
        for pf in fd.imported_pfdats:
            if pf.imported_from is not None and pf.refcount == 0:
                self.release_page(pf)
        fd.imported_pfdats.clear()

    def sys_close(self, ctx: ProcContext, fdnum: int) -> Generator:
        fd = ctx.process.fds.get(fdnum)
        result = yield from super().sys_close(ctx, fdnum)
        if fd is not None:
            self.release_fd_imports(fd)
        return result

    def export_page_local(self, pf: Pfdat, client_cell: int,
                          is_writable: bool) -> Generator:
        """Data-home side of an export (Table 5.1's ``export``)."""
        pf.exported_to.add(client_cell)
        self.sharing_metrics.counter("exports").add()
        if is_writable:
            self.sharing_metrics.counter("exports_writable").add()
        prov = self.prov
        if prov is not None:
            prov.page_exported(self.kernel_id, client_cell, pf.frame,
                               is_writable)
        if is_writable:
            yield from self.firewall_mgr.grant_write(pf, client_cell)
            # The client can now dirty the page without telling us:
            # pessimistically treat it as dirty (discard correctness).
            pf.dirty = True
        return None

    # ------------------------------------------------------------------
    # data-home RPC handlers
    # ------------------------------------------------------------------

    def _h_ping(self, src_cell: int, args: dict) -> Generator:
        yield 0
        return "alive"

    def _find_cached_page(self, logical_id: tuple) -> Optional[Pfdat]:
        pf = self.pfdats.lookup(logical_id)
        if pf is not None and pf.imported_from is None:
            return pf
        return None

    def _h_export_page(self, src_cell: int, args: dict) -> Generator:
        """Interrupt-level export attempt: page-cache hit path.

        "page faults that hit in the file cache [are] serviced entirely
        in an interrupt handler" (Section 4.3) — possible because this
        path takes no blocking locks against recovery.
        """
        logical_id = self._check_logical_id(args)
        writable = bool(args.get("writable"))
        yield self.costs.fault_home_misc_vm_ns
        pf = self._find_cached_page(logical_id)
        if pf is None:
            return MUST_QUEUE  # disk I/O needed: _h_export_page_queued
        yield self.costs.fault_home_export_ns
        yield from self.export_page_local(pf, src_cell, writable)
        generation = self._generation_of(logical_id)
        return {"frame": pf.frame, "generation": generation}

    def _h_export_page_queued(self, src_cell: int, args: dict) -> Generator:
        """Queued export, after an interrupt-level miss: fill the page
        from disk at the data home, then export it."""
        logical_id = self._check_logical_id(args)
        writable = bool(args.get("writable"))
        tag = logical_id[0]
        if tag[0] != "file":
            raise RpcHandlerError("EINVAL", "slow path is for file pages")
        _, fs_id, ino = tag
        fs = self.filesystems.get(fs_id)
        if fs is None:
            raise RpcHandlerError("ESTALE", f"fs {fs_id} not here")
        inode = fs.inode(ino)
        pf = yield from self.get_file_page(fs, inode, logical_id[1])
        yield self.costs.fault_home_export_ns
        yield from self.export_page_local(pf, src_cell, writable)
        return {"frame": pf.frame, "generation": inode.generation}

    def _check_logical_id(self, args: dict) -> tuple:
        """Sanity-check an RPC-supplied logical id (bad-message defense)."""
        lid = args.get("logical_id")
        if (not isinstance(lid, (tuple, list)) or len(lid) != 2
                or not isinstance(lid[1], int) or lid[1] < 0
                or not isinstance(lid[0], (tuple, list))):
            raise RpcHandlerError("EINVAL", f"bad logical id {lid!r}")
        return (tuple(lid[0]), lid[1])

    def _generation_of(self, logical_id: tuple) -> int:
        tag = logical_id[0]
        if tag[0] == "file":
            fs = self.filesystems.get(tag[1])
            if fs is not None:
                try:
                    return fs.inode(tag[2]).generation
                except FileError:
                    return -1
        return 0

    def _h_release_pages(self, src_cell: int, args: dict) -> Generator:
        """Data-home side of a release batch.

        The batch takes effect before any time is charged: an export of
        one of its pages that arrives behind it (the client faulting the
        page again) is applied after the release, never undone by it.
        """
        frames = args.get("frames")
        if (not isinstance(frames, list) or len(frames) > RELEASE_BATCH_MAX
                or not all(isinstance(frame, int) for frame in frames)):
            raise RpcHandlerError("EINVAL", "bad release batch")
        pfs = [pf for pf in map(self.pfdats.by_frame, frames)
               if pf is not None]
        for pf in pfs:
            pf.exported_to.discard(src_cell)
        # The page data stays cached at the data home ("the data page
        # remains in memory until the page frame is reallocated,
        # providing fast access if the client cell faults to it again").
        yield from self.firewall_mgr.revoke_writes(pfs, src_cell)
        yield self.costs.pfdat_hash_lookup_ns * len(frames)
        return None

    def _h_export_anon_page(self, src_cell: int, args: dict) -> Generator:
        """Export one anonymous page after a remote COW search hit."""
        node_id = args.get("cow_node")
        page_index = args.get("page_index")
        if not isinstance(node_id, int) or not isinstance(page_index, int):
            raise RpcHandlerError("EINVAL", "bad anon export request")
        node = self.cow.node(node_id)
        if node is None or page_index not in node.pages:
            raise RpcHandlerError("ENOENT",
                                  f"cow node {node_id} lacks page")
        logical_id = (node.anon_tag(), page_index)
        if logical_id in getattr(self, "poisoned_anon", set()):
            raise RpcHandlerError("EIO", "page was discarded")
        pf = self._find_cached_page(logical_id)
        if pf is None:
            # The frame was reclaimed: restore from swap (or zero).
            pf = yield from self._get_anon_page(logical_id)
        yield self.costs.fault_home_export_ns
        yield from self.export_page_local(pf, src_cell,
                                          bool(args.get("writable")))
        return {"frame": pf.frame, "generation": 0}

    def _h_cow_deref(self, src_cell: int, args: dict) -> Generator:
        addr = args.get("addr")
        if not isinstance(addr, int):
            raise RpcHandlerError("EINVAL", "bad addr")
        node = self.cow.resolve(addr)
        yield self.costs.careful_check_ns
        if node is not None:
            self._release_cow_chain(node)
        return None

    def remote_cow_deref(self, cell: int, addr: int) -> None:
        if not self.registry.is_live(cell):
            return
        self.sim.process(self._send_cow_deref(cell, addr),
                         name=f"c{self.kernel_id}.cowderef")

    def _send_cow_deref(self, cell: int, addr: int) -> Generator:
        try:
            yield from self.rpc.call(cell, "cow_deref", {"addr": addr})
        except (RpcTimeout, RpcRemoteError):
            pass

    # ------------------------------------------------------------------
    # the remote page-fault path (Table 5.2)
    # ------------------------------------------------------------------

    def fault_page(self, ctx: ProcContext, region: Region, vpn: int,
                   write: bool) -> Generator:
        self.metrics.counter("faults").add()
        if region.kind == FILE_REGION and region.data_home != self.kernel_id:
            return (yield from self._fault_file_remote(
                ctx, region, vpn, write))
        if region.kind == ANON_REGION and getattr(region, "shared", False) \
                and region.task_id is not None:
            return (yield from self._fault_task_shared(
                ctx, region, vpn, write))
        yield self.costs.local_fault_ns
        if region.kind == FILE_REGION:
            return (yield from self._fault_file_local(ctx, region, vpn, write))
        return (yield from self._fault_anon(ctx, region, vpn, write))

    def recovery_gate(self) -> Generator:
        """Hold client-side intercell traffic while we are in recovery."""
        while self.in_recovery and self.alive:
            yield self.recovery_done_event
        return None

    def _fault_file_remote(self, ctx: ProcContext, region: Region,
                           vpn: int, write: bool) -> Generator:
        # The firewall management policy grants write access when a page
        # is faulted into a *writable region*, regardless of whether the
        # first access is a read (Section 4.2): "the address space region
        # is marked writable only if the process had explicitly requested
        # a writable mapping".
        want_write = region.writable
        tag = ("file", region.fs_id, region.ino)
        idx = region.file_page_index(vpn)
        logical_id = (tag, idx)
        # Fast path: "Further faults to that page can hit quickly in the
        # client cell's hash table and avoid sending an RPC."
        yield self.costs.pfdat_hash_lookup_ns
        pf = self.pfdats.lookup(logical_id)
        if pf is not None and pf.imported_from is not None:
            if not want_write or self._have_write_grant(pf):
                self.metrics.counter("faults.local_hit").add()
                yield self.costs.local_fault_ns
                return self._map(ctx, region, vpn, pf, want_write,
                                 data_home=pf.imported_from)
        self.metrics.counter("faults.remote").add()
        # Client-cell work before the RPC (Table 5.2 components).
        yield (self.costs.fault_client_fs_ns
               + self.costs.fault_client_locking_ns
               + self.costs.fault_client_misc_vm_ns)
        yield from self.recovery_gate()
        result = yield from self._call_export(
            region.data_home, logical_id, want_write)
        if result["generation"] != region.generation:
            raise StaleGenerationError(f"fs{region.fs_id}/ino{region.ino}",
                                       region.generation,
                                       result["generation"])
        yield self.costs.fault_client_import_ns
        pf = self.import_page(result["frame"], region.data_home,
                              logical_id, want_write)
        if want_write:
            pf.export_writable.add(self.kernel_id)  # client-side record
        proc = ctx.process
        proc.dependencies.add(region.data_home)
        return self._map(ctx, region, vpn, pf, want_write,
                         data_home=region.data_home)

    def _have_write_grant(self, pf: Pfdat) -> bool:
        return self.kernel_id in pf.export_writable

    def _call_export(self, data_home: int, logical_id: tuple,
                     write: bool) -> Generator:
        """export_page with the interrupt→queued fallback handled."""
        args = {"logical_id": logical_id, "writable": write,
                "client": self.kernel_id}
        try:
            result = yield from self.rpc.call(
                data_home, "export_page", args, arg_bytes=160)
        except RpcRemoteError as exc:
            raise FileError(exc.errno, str(exc))
        if isinstance(result, dict):
            return result
        # MUST_QUEUE is resolved transparently inside the server; a dict
        # always comes back unless the handler errored.
        raise FileError("EIO", f"export_page returned {result!r}")

    # ------------------------------------------------------------------
    # anonymous pages across cells (Section 5.3)
    # ------------------------------------------------------------------

    def _fault_anon(self, ctx: ProcContext, region: Region, vpn: int,
                    write: bool) -> Generator:
        """COW fault; the search may cross cell boundaries."""
        self.publish_phase("cow_search")
        page_index = vpn - region.start_vpn
        leaf = self.cow.resolve(region.cow_leaf_addr)
        if leaf is None:
            self.panic(
                f"corrupt COW leaf pointer {region.cow_leaf_addr:#x} in "
                f"address map of pid {ctx.process.pid}")
            raise ProcessKilled(ctx.process.pid, "cell panic")
        owner, owner_cell = yield from self._cow_search(ctx, leaf,
                                                        page_index)
        if owner is None:
            # First touch anywhere in the ancestry: zero-fill at the leaf
            # (or restore from swap if the clock hand evicted it).
            pf = yield from self._get_anon_page(
                (leaf.anon_tag(), page_index), ctx)
            self.cow.record_page(leaf, page_index)
            pf.dirty = True
            return self._map(ctx, region, vpn, pf, region.writable,
                             data_home=self.kernel_id)
        if owner_cell == self.kernel_id:
            return (yield from self._fault_anon_local_owner(
                ctx, region, vpn, write, leaf, owner, page_index))
        # Remote owner: RPC to set up the export/import binding ("If it
        # finds the page recorded in a remote node of the tree, it sends
        # an RPC to the cell that owns that node", Section 5.3).
        logical_id = (("anon", owner_cell, owner.node_id), page_index)
        yield from self.recovery_gate()
        try:
            result = yield from self.rpc.call(
                owner_cell, "export_anon_page",
                {"cow_node": owner.node_id, "page_index": page_index,
                 "writable": False},  # anon imports are always read-only;
                                      # writes break COW with a local copy
                arg_bytes=160)
        except RpcRemoteError as exc:
            raise ProcessKilled(ctx.process.pid,
                                f"anonymous page lost: {exc}")
        yield self.costs.fault_client_import_ns
        src = self.import_page(result["frame"], owner_cell, logical_id,
                               is_writable=False)
        ctx.process.dependencies.add(owner_cell)
        if write:
            # COW break: private local copy recorded at our leaf.
            pf = yield from self.alloc_frame(ctx)
            yield self.costs.page_copy_ns
            data = self.machine.memory.read_page(src.frame, cpu=ctx.cpu)
            self.machine.memory.write_page(pf.frame, data,
                                           cpu=self._dma_cpu(pf.frame))
            self.cow.record_page(leaf, page_index)
            self.pfdats.insert(pf, (leaf.anon_tag(), page_index))
            pf.dirty = True
            if src.refcount == 0:
                self.release_imported_page(src)
            return self._map(ctx, region, vpn, pf, True,
                             data_home=self.kernel_id)
        return self._map(ctx, region, vpn, src, False,
                         data_home=owner_cell)

    def _fault_anon_local_owner(self, ctx, region, vpn, write, leaf,
                                owner, page_index) -> Generator:
        """Owner node is local: same as the single-kernel path."""
        src = yield from self._get_anon_page(
            (owner.anon_tag(), page_index), ctx)
        if (owner.anon_tag(), page_index) in self.poisoned_anon:
            raise ProcessKilled(ctx.process.pid,
                                "anonymous page was discarded")
        if write and owner is not leaf:
            pf = yield from self.alloc_frame(ctx)
            yield self.costs.page_copy_ns
            data = self.machine.memory.read_page(src.frame, cpu=ctx.cpu)
            self.machine.memory.write_page(pf.frame, data,
                                           cpu=self._dma_cpu(pf.frame))
            self.cow.record_page(leaf, page_index)
            self.pfdats.insert(pf, (leaf.anon_tag(), page_index))
            pf.dirty = True
            return self._map(ctx, region, vpn, pf, True,
                             data_home=self.kernel_id)
        if write:
            src.dirty = True
        return self._map(ctx, region, vpn, src, write,
                         data_home=self.kernel_id)

    def _cow_search(self, ctx: ProcContext, leaf: CowNode,
                    page_index: int) -> Generator:
        """Walk up the COW tree, crossing cells with careful reference.

        Returns ``(owner_node, owner_cell)`` or ``(None, -1)``.  A failed
        careful-reference check retries after a clock tick — the remote
        cell may be corrupt; if it is, recovery will resolve the wait
        (possibly by killing this process).
        """
        retries = 0
        while True:
            try:
                return (yield from self._cow_search_once(leaf, page_index))
            except CarefulReferenceFault:
                retries += 1
                if retries >= 50:
                    raise ProcessKilled(
                        ctx.process.pid,
                        "anonymous memory unreachable (corrupt COW tree)")
                yield self.costs.clock_tick_ns
                ctx.thread.check_killed()
                yield from self.user_gate(ctx.thread)

    def _judge_cow_corruption(self, exc: CowTreeCorrupt):
        """A COW pointer no walk can follow is corruption in the suspect
        cell ``exc`` names.  In our own memory that is an internal kernel
        error and panics this cell (returns None); in another cell's it
        is a failed careful-reference check, a failure hint against it,
        whose fault is returned for the caller to raise."""
        if exc.cell == self.kernel_id:
            self.panic(str(exc))
            return None
        return self.careful.fail(exc.cell, exc.check, str(exc))

    def _cow_search_once(self, leaf: CowNode, page_index: int) -> Generator:
        """One walk: runs of local hops, joined by careful reads; a
        corrupt tree is judged by :meth:`_judge_cow_corruption`."""
        path: Dict[CowNode, None] = {}
        node = leaf
        try:
            while True:
                for node in self.cow.local_ancestry(node, path):
                    if page_index in node.pages:
                        return node, node.owner_cell
                    if node.parent_addr == 0:
                        return None, -1
                    if node.parent_cell == self.kernel_id:
                        yield self.costs.cow_tree_hop_ns
                # The hop's walk cost is slept with the section's lead.
                node = yield from self.careful.read_object(
                    node.parent_cell, node.parent_addr, COW_NODE_TAG,
                    copy_words=16, lead_ns=self.costs.cow_tree_hop_ns)
        except CowTreeCorrupt as exc:
            fault = self._judge_cow_corruption(exc)
            if fault is not None:
                raise fault
            raise ProcessKilled(0, "cell panic")

    # ------------------------------------------------------------------
    # spanning-task shared anonymous pages
    # ------------------------------------------------------------------

    def _fault_task_shared(self, ctx: ProcContext, region: Region,
                           vpn: int, write: bool) -> Generator:
        """Fault on a write-shared segment of a spanning task.

        Placement is first-touch: the faulting cell becomes the data home
        for the page, recorded in the task's shared map (shared process
        state kept consistent across the component processes).
        """
        yield self.costs.local_fault_ns
        page_index = vpn - region.start_vpn
        task = self.registry.task(region.task_id)
        if task is None:
            raise ProcessKilled(ctx.process.pid, "spanning task torn down")
        key = (region.share_key, page_index)
        data_home = task.page_homes.get(key)
        logical_id = (("task", region.task_id, region.share_key), page_index)
        if data_home is None:
            # First touch: allocate locally and publish in the shared map.
            pf = yield from self.alloc_frame(ctx)
            yield self.costs.page_zero_ns
            self.machine.memory.zero_page(pf.frame,
                                          cpu=self._dma_cpu(pf.frame))
            if self.pfdats.lookup(logical_id) is None:
                self.pfdats.insert(pf, logical_id)
            task.page_homes[key] = self.kernel_id
            pf.dirty = True
            return self._map(ctx, region, vpn, pf, region.writable,
                             data_home=self.kernel_id)
        if data_home == self.kernel_id:
            pf = self.pfdats.lookup(logical_id)
            if pf is None:
                pf = yield from self.alloc_frame(ctx)
                self.machine.memory.zero_page(pf.frame,
                                              cpu=self._dma_cpu(pf.frame))
                self.pfdats.insert(pf, logical_id)
            if write:
                pf.dirty = True
            return self._map(ctx, region, vpn, pf, write,
                             data_home=self.kernel_id)
        # Remote data home: the full Table 5.2 remote-fault path.  Write
        # permission follows the *region's* writability (the Section 4.2
        # policy) — this is why ocean ends up with its whole write-shared
        # data segment remotely writable.
        want_write = region.writable
        yield self.costs.pfdat_hash_lookup_ns
        pf = self.pfdats.lookup(logical_id)
        if pf is not None and pf.imported_from is not None:
            if not want_write or self._have_write_grant(pf):
                self.metrics.counter("faults.local_hit").add()
                return self._map(ctx, region, vpn, pf, want_write,
                                 data_home=data_home)
        self.metrics.counter("faults.remote").add()
        yield (self.costs.fault_client_fs_ns
               + self.costs.fault_client_locking_ns
               + self.costs.fault_client_misc_vm_ns)
        yield from self.recovery_gate()
        try:
            result = yield from self.rpc.call(
                data_home, "export_page",
                {"logical_id": logical_id, "writable": want_write,
                 "client": self.kernel_id}, arg_bytes=160)
        except RpcRemoteError as exc:
            raise ProcessKilled(ctx.process.pid,
                                f"shared page lost: {exc}")
        yield self.costs.fault_client_import_ns
        pf = self.import_page(result["frame"], data_home, logical_id,
                              want_write)
        if want_write:
            pf.export_writable.add(self.kernel_id)
        ctx.process.dependencies.add(data_home)
        return self._map(ctx, region, vpn, pf, want_write,
                         data_home=data_home)

    # ------------------------------------------------------------------
    # remote file system operations
    # ------------------------------------------------------------------

    def _data_home_of_node(self, node: int) -> int:
        return self.registry.cell_of_node(node)

    def open_remote(self, ctx: ProcContext, path: str, mode: str,
                    create: bool) -> Generator:
        node = self.fs_node_for(path)
        data_home = self._data_home_of_node(node)
        if data_home == self.kernel_id:
            raise FileError("EIO", f"fs {node} is local but unmounted")
        yield from self.recovery_gate()
        yield self.costs.open_remote_extra_ns
        try:
            result = yield from self.rpc.call(
                data_home, "open_file",
                {"path": path, "mode": mode, "create": create},
                arg_bytes=200)
        except RpcRemoteError as exc:
            raise FileError(exc.errno, str(exc))
        fd = ctx.process.install_fd(
            result["fs_id"], result["ino"], data_home=data_home,
            mode=mode, generation=result["generation"])
        ctx.process.dependencies.add(data_home)
        self.metrics.counter("opens.remote").add()
        return fd.fd

    def _h_open_file(self, src_cell: int, args: dict) -> Generator:
        path = args.get("path")
        mode = args.get("mode")
        if not isinstance(path, str) or mode not in ("r", "w", "rw"):
            raise RpcHandlerError("EINVAL", f"bad open args {args!r}")
        fs = self.local_fs_for(path)
        if fs is None:
            raise RpcHandlerError("ENODEV", f"{path} not served here")
        yield self.costs.open_local_ns
        if args.get("create") and not fs.exists(path):
            yield self.costs.create_ns
            fs.create(path)
        try:
            inode = fs.lookup(path)
        except FileError as exc:
            raise RpcHandlerError(exc.errno, str(exc))
        return {"fs_id": fs.fs_id, "ino": inode.ino,
                "generation": inode.generation, "size": inode.size}

    def unlink_remote(self, ctx: ProcContext, path: str) -> Generator:
        node = self.fs_node_for(path)
        data_home = self._data_home_of_node(node)
        yield from self.recovery_gate()
        try:
            yield from self.rpc.call(data_home, "unlink_file",
                                     {"path": path}, arg_bytes=200)
        except RpcRemoteError as exc:
            raise FileError(exc.errno, str(exc))
        return None

    def _h_unlink_file(self, src_cell: int, args: dict) -> Generator:
        path = args.get("path")
        if not isinstance(path, str):
            raise RpcHandlerError("EINVAL", "bad path")
        fs = self.local_fs_for(path)
        if fs is None:
            raise RpcHandlerError("ENODEV", f"{path} not served here")
        yield self.costs.unlink_ns
        try:
            inode = fs.unlink(path)
        except FileError as exc:
            raise RpcHandlerError(exc.errno, str(exc))
        self._invalidate_file_cache(fs.fs_id, inode)
        return None

    def map_file_remote(self, ctx: ProcContext, path: str, writable: bool,
                        shared: bool) -> Generator:
        node = self.fs_node_for(path)
        data_home = self._data_home_of_node(node)
        yield from self.recovery_gate()
        try:
            info = yield from self.rpc.call(
                data_home, "open_file",
                {"path": path, "mode": "rw" if writable else "r",
                 "create": False}, arg_bytes=200)
        except RpcRemoteError as exc:
            raise FileError(exc.errno, str(exc))
        aspace = ctx.process.aspace
        npages = max(1, (info["size"] + PAGE - 1) // PAGE)
        region = Region(aspace.allocate_range(npages), npages,
                        FILE_REGION, writable, shared)
        region.fs_id = info["fs_id"]
        region.ino = info["ino"]
        region.data_home = data_home
        region.generation = info["generation"]
        self.heap.alloc(region, "region")
        aspace.add_region(region)
        ctx.process.dependencies.add(data_home)
        return region

    # -- bulk remote read/write ------------------------------------------------

    def read_remote(self, ctx: ProcContext, fd: FileDescriptor,
                    nbytes: int) -> Generator:
        return (yield from self._bulk_io(ctx, fd, nbytes, None))

    def write_remote(self, ctx: ProcContext, fd: FileDescriptor,
                     data: bytes) -> Generator:
        return (yield from self._bulk_io(ctx, fd, len(data), data))

    def _bulk_io(self, ctx: ProcContext, fd: FileDescriptor, nbytes: int,
                 data: Optional[bytes]) -> Generator:
        """Remote read()/write() through batched import (Table 7.3 path).

        Pages are imported in batches of :data:`BULK_PAGES` per RPC; the
        copy itself happens on the client against the (remote or local)
        frames, with the per-page remote surcharge from the cost table.
        """
        is_write = data is not None
        yield from self.recovery_gate()
        if is_write:
            # Size/extension is data-home state; one RPC reserves it.
            try:
                info = yield from self.rpc.call(
                    fd.data_home, "file_extend",
                    {"fs_id": fd.fs_id, "ino": fd.ino,
                     "offset": fd.offset, "nbytes": nbytes,
                     "generation": fd.generation})
            except RpcRemoteError as exc:
                raise FileError(exc.errno, str(exc))
        else:
            try:
                info = yield from self.rpc.call(
                    fd.data_home, "file_extend",
                    {"fs_id": fd.fs_id, "ino": fd.ino,
                     "offset": fd.offset, "nbytes": 0,
                     "generation": fd.generation})
            except RpcRemoteError as exc:
                raise FileError(exc.errno, str(exc))
            nbytes = min(nbytes, max(0, info["size"] - fd.offset))
        out = bytearray()
        moved = 0
        extra = (self.costs.file_write_remote_extra_ns if is_write
                 else self.costs.file_read_remote_extra_ns)
        while moved < nbytes:
            first_page = fd.offset // PAGE
            batch_pages = min(BULK_PAGES,
                              (fd.offset + nbytes - moved - 1) // PAGE
                              - first_page + 1)
            write_range = ((fd.offset, fd.offset + (nbytes - moved))
                           if is_write else None)
            imported = yield from self._import_batch(
                ctx, fd, first_page, batch_pages, is_write, write_range)
            for pf in imported:
                page_off = fd.offset % PAGE
                chunk = min(PAGE - page_off, nbytes - moved)
                if chunk <= 0:
                    break
                cost = (self._write_page_cost(chunk) if is_write
                        else self._read_page_cost(chunk))
                yield cost + extra * chunk // PAGE
                try:
                    if is_write:
                        # The copy issues ownership requests for the
                        # page's lines (modelled at page granularity):
                        # this is the remote-write-miss traffic the
                        # Section 4.2 firewall measurement sees, and it
                        # leaves dirty lines owned by the client CPU for
                        # the fault model's loss accounting.
                        self.machine.coherence.write(
                            ctx.cpu, pf.frame * PAGE + page_off)
                        self.machine.memory.write_bytes(
                            pf.frame, page_off, data[moved:moved + chunk],
                            cpu=ctx.cpu)
                    else:
                        self.machine.coherence.read(
                            ctx.cpu, pf.frame * PAGE + page_off)
                        out += self.machine.memory.read_bytes(
                            pf.frame, page_off, chunk, cpu=ctx.cpu)
                except BusError as exc:
                    # The data home's node died under us mid-copy: the
                    # access was through a user mapping, so the error is
                    # reflected to the process, not escalated to panic.
                    raise FileError("EIO",
                                    f"remote page lost mid-I/O: {exc}")
                fd.offset += chunk
                moved += chunk
        counter = "file.bytes_written" if is_write else "file.bytes_read"
        self.metrics.counter(counter).add(moved)
        return moved if is_write else bytes(out)

    def _import_batch(self, ctx: ProcContext, fd: FileDescriptor,
                      first_page: int, npages: int, writable: bool,
                      write_range: Optional[tuple] = None) -> Generator:
        """Import a run of file pages with one RPC; returns pfdats."""
        tag = ("file", fd.fs_id, fd.ino)
        needed = []
        have: Dict[int, Pfdat] = {}
        for idx in range(first_page, first_page + npages):
            pf = self.pfdats.lookup((tag, idx))
            if pf is not None and (not writable
                                   or self._have_write_grant(pf)
                                   or pf.imported_from is None):
                have[idx] = pf
            else:
                needed.append(idx)
        if needed:
            try:
                result = yield from self.rpc.call(
                    fd.data_home, "bulk_pages",
                    {"fs_id": fd.fs_id, "ino": fd.ino, "pages": needed,
                     "writable": writable, "generation": fd.generation,
                     "client": self.kernel_id,
                     "write_range": write_range},
                    arg_bytes=200)
            except RpcRemoteError as exc:
                raise FileError(exc.errno, str(exc))
            for idx, frame in zip(needed, result["frames"]):
                pf = self.pfdats.lookup((tag, idx))
                if pf is None:
                    pf = self.import_page(frame, fd.data_home, (tag, idx),
                                          writable)
                if writable:
                    pf.export_writable.add(self.kernel_id)
                    # Write grants obtained for fd I/O live until the
                    # descriptor closes (there is no mapping whose
                    # teardown would otherwise release them).
                    if pf not in fd.imported_pfdats:
                        fd.imported_pfdats.append(pf)
                have[idx] = pf
            ctx.process.dependencies.add(fd.data_home)
        return [have[idx] for idx in sorted(have) if idx >= first_page][:npages]

    def _h_bulk_pages(self, src_cell: int, args: dict) -> Generator:
        fs_id = args.get("fs_id")
        # Sanity-check before using as a dict key: a garbage fs_id may
        # not even be hashable, and a server must survive any request.
        fs = self.filesystems.get(fs_id) if isinstance(fs_id, int) else None
        pages = args.get("pages")
        if fs is None or not isinstance(pages, list) or len(pages) > 64:
            raise RpcHandlerError("EINVAL", "bad bulk request")
        try:
            inode = fs.inode(args.get("ino"))
        except FileError as exc:
            raise RpcHandlerError(exc.errno, str(exc))
        if args.get("generation") != inode.generation:
            raise RpcHandlerError("EIO", "stale generation")
        writable = bool(args.get("writable"))
        write_range = args.get("write_range")
        if write_range is not None and not (
                isinstance(write_range, (tuple, list))
                and len(write_range) == 2
                and all(isinstance(v, int) and v >= 0 for v in write_range)):
            raise RpcHandlerError("EINVAL", "bad write range")
        frames = []
        for idx in pages:
            if not isinstance(idx, int) or idx < 0:
                raise RpcHandlerError("EINVAL", f"bad page index {idx!r}")
            # Pages the client will fully overwrite need no disk fill.
            no_fill = bool(
                write_range is not None
                and write_range[0] <= idx * 4096
                and (idx + 1) * 4096 <= write_range[1])
            pf = yield from self.get_file_page(fs, inode, idx,
                                               no_fill=no_fill)
            yield from self.export_page_local(pf, src_cell, writable)
            frames.append(pf.frame)
        return {"frames": frames}

    def _h_file_extend(self, src_cell: int, args: dict) -> Generator:
        fs_id = args.get("fs_id")
        fs = self.filesystems.get(fs_id) if isinstance(fs_id, int) else None
        if fs is None:
            raise RpcHandlerError("ESTALE", "fs not here")
        try:
            inode = fs.inode(args.get("ino"))
        except FileError as exc:
            raise RpcHandlerError(exc.errno, str(exc))
        if args.get("generation") != inode.generation:
            raise RpcHandlerError("EIO", "stale generation")
        yield self.costs.pfdat_hash_lookup_ns
        nbytes = args.get("nbytes", 0)
        offset = args.get("offset", 0)
        if not all(isinstance(v, int) and v >= 0 for v in (nbytes, offset)):
            raise RpcHandlerError("EINVAL", "bad extend args")
        if nbytes:
            inode.size = max(inode.size, offset + nbytes)
        return {"size": inode.size}

    # ------------------------------------------------------------------
    # physical-level sharing: loan / borrow / return (Section 5.4)
    # ------------------------------------------------------------------

    def alloc_frame(self, ctx: Optional[ProcContext] = None,
                    preferred_cell: Optional[int] = None,
                    acceptable_cells: Optional[Set[int]] = None) -> Generator:
        """Allocate a frame, borrowing from another cell under pressure.

        The constraint arguments are the paper's page-allocator extension:
        "a set of cells that are acceptable for the request and one cell
        that is preferred".
        """
        local_ok = acceptable_cells is None or self.kernel_id in acceptable_cells
        want_local_first = (preferred_cell is None
                            or preferred_cell == self.kernel_id)
        if local_ok and want_local_first and \
                self.pfdats.free_count > LOCAL_RESERVE_FRAMES:
            return self.pfdats.alloc_frame()
        # Try borrowed stock, then borrow, then squeeze local.
        if self._borrowed_free:
            return self._borrowed_free.pop()
        borrowed = yield from self._borrow(preferred_cell, acceptable_cells)
        if borrowed:
            return self._borrowed_free.pop()
        if local_ok:
            try:
                return self.pfdats.alloc_frame()
            except NoFreeFrames:
                evicted = yield from self._evict_one(ctx)
                if evicted is not None:
                    return self.pfdats.alloc_frame()
        raise NoFreeFrames(f"cell {self.kernel_id}: no acceptable frames")

    def _borrow_target(self, preferred: Optional[int],
                       acceptable: Optional[Set[int]]) -> Optional[int]:
        hint = self.wax_hints.get("borrow_target")
        candidates = [c for c in self.registry.live_cell_ids()
                      if c != self.kernel_id
                      and (acceptable is None or c in acceptable)]
        if not candidates:
            return None
        if preferred in candidates:
            return preferred
        if hint in candidates:
            return hint
        return candidates[self.metrics.counter("borrows").value
                          % len(candidates)]

    def _borrow(self, preferred: Optional[int],
                acceptable: Optional[Set[int]]) -> Generator:
        target = self._borrow_target(preferred, acceptable)
        if target is None:
            return False
        yield from self.recovery_gate()
        try:
            result = yield from self.rpc.call(
                target, "borrow_frames", {"count": BORROW_BATCH})
        except (RpcTimeout, RpcRemoteError):
            return False
        frames = result.get("frames", []) if isinstance(result, dict) else []
        for frame in frames:
            pf = self.pfdats.alloc_extended(frame)
            pf.borrowed_from = target
            self._borrowed_free.append(pf)
        if frames:
            self.metrics.counter("borrows").add()
            self.sharing_metrics.counter("frames_borrowed").add(len(frames))
        return bool(frames)

    def _h_borrow_frames(self, src_cell: int, args: dict) -> Generator:
        """Memory-home side of a borrow: loan_frame (Table 5.1)."""
        count = args.get("count")
        if not isinstance(count, int) or not 0 < count <= 256:
            raise RpcHandlerError("EINVAL", f"bad count {count!r}")
        yield self.costs.pfdat_hash_lookup_ns
        frames = []
        while (len(frames) < count
               and self.pfdats.free_count > LOCAL_RESERVE_FRAMES):
            pf = self.pfdats.alloc_frame()
            self.pfdats.move_to_reserved(pf, src_cell)
            frames.append(pf.frame)
        if frames:
            self.sharing_metrics.counter("frames_loaned").add(len(frames))
            prov = self.prov
            if prov is not None:
                prov.frames_loaned(self.kernel_id, src_cell, frames)
        return {"frames": frames}

    def return_borrowed_frame(self, pf: Pfdat) -> None:
        """Give a borrowed frame back ("sends a free message to the
        memory home as soon as the data cached in the frame is no longer
        in use", Section 5.4)."""
        memory_home = pf.borrowed_from
        frame = pf.frame
        self.pfdats.remove(pf)
        self.pfdats.release_extended(pf)
        if memory_home is None or not self.registry.is_live(memory_home):
            return
        self.sim.process(self._notify_return(memory_home, frame),
                         name=f"c{self.kernel_id}.return")

    def _notify_return(self, memory_home: int, frame: int) -> Generator:
        try:
            yield from self.rpc.call(memory_home, "return_frame",
                                     {"frame": frame})
        except (RpcTimeout, RpcRemoteError):
            pass

    def _h_return_frame(self, src_cell: int, args: dict) -> Generator:
        frame = args.get("frame")
        if not isinstance(frame, int) or frame not in self.pfdats.reserved:
            raise RpcHandlerError("EINVAL", f"frame {frame!r} not loaned")
        pf = self.pfdats.reserved.get(frame)
        if pf.loaned_to != src_cell:
            raise RpcHandlerError("EPERM", "not the borrower")
        # Reclaim before any yield: a concurrent duplicate return must
        # fail the not-loaned check, not race past it.
        pf = self.pfdats.return_from_reserved(frame)
        self.pfdats.remove(pf)
        pf.refcount = 0
        self.pfdats.free_frame(pf)
        yield self.costs.pfdat_hash_lookup_ns
        return None

    def _h_firewall_update(self, src_cell: int, args: dict) -> Generator:
        """A borrower asks us (memory home) to flip firewall bits."""
        frame = args.get("frame")
        grantee = args.get("grantee")
        if (not isinstance(frame, int) or not isinstance(grantee, int)
                or not self.registry.is_valid_cell(grantee)):
            raise RpcHandlerError("EINVAL", "bad firewall update")
        pf = self.pfdats.reserved.get(frame)
        if pf is None or pf.loaned_to != src_cell:
            raise RpcHandlerError("EPERM",
                                  f"frame {frame} not loaned to caller")
        node = self.machine.params.node_of_frame(frame)
        fw = self.machine.memory.firewalls[node]
        for gn in self.registry.nodes_of(grantee):
            if args.get("grant"):
                fw.grant_node(frame, node, gn)
            else:
                fw.revoke_node(frame, node, gn)
        extra = 0 if args.get("grant") else self.machine.params.firewall_revoke_extra_ns
        yield self.machine.params.firewall_update_ns + extra
        if args.get("grant"):
            pf.export_writable.add(grantee)
        else:
            pf.export_writable.discard(grantee)
        return None
