"""Single-system image: remote fork, distributed process groups and
signal delivery, spanning tasks, and process migration (Sections 3.2/3.3).

The prototype's SSI provided "forks across cell boundaries, distributed
process groups and signal delivery, and a shared file system name space";
spanning tasks were architecturally defined ("a single parallel process
can run threads on multiple cells at the same time ... Shared process
state such as the address space map is kept consistent among the
component processes") but not yet implemented — we implement them, since
the ocean/raytrace workloads and Wax are specified to run as spanning
tasks.

Modelling note: program code is shipped in RPC payloads as a Python
callable standing in for the (path, argv) an exec would carry; the RPC
accounting charges the marshalling of an exec-sized argument block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Tuple

from repro.core.rpc import QUEUED, RpcHandlerError, RpcRemoteError
from repro.unix.address_space import ANON_REGION, Region
from repro.unix.errors import FileError, ProcessKilled, RpcTimeout
from repro.unix.kernel import ProcContext
from repro.unix.process import Process, SIGKILL


@dataclass
class SpanningTask:
    """Shared state of one spanning task (kept consistent across cells)."""

    task_id: int
    #: pid -> cell of each component process (several components may run
    #: on one cell when there are more threads than cells)
    components: Dict[int, int] = field(default_factory=dict)
    #: (share_key, page_index) -> data-home cell for first-touch placement
    page_homes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: shared segment sizes: share_key -> npages
    segments: Dict[int, int] = field(default_factory=dict)
    dead: bool = False

    def cells(self) -> List[int]:
        return sorted(set(self.components.values()))

    def pids(self) -> List[int]:
        return sorted(self.components)


class SsiMixin:
    """Cross-cell process operations for a Hive cell."""

    def _init_ssi(self) -> None:
        #: pid -> event, resolved when a *remote* child we spawned exits
        self._remote_children: Dict[int, object] = {}
        self._remote_child_status: Dict[int, int] = {}
        self.rpc.register("spawn_program", self._h_spawn_program, QUEUED)
        self.rpc.register("child_exited", self._h_child_exited)
        self.rpc.register("post_signal", self._h_post_signal)
        self.rpc.register("signal_pgroup", self._h_signal_pgroup)
        self.rpc.register("spawn_component", self._h_spawn_component,
                          QUEUED)
        self.rpc.register("kill_task", self._h_kill_task)

    # ------------------------------------------------------------------
    # remote fork (fork + exec on another cell)
    # ------------------------------------------------------------------

    def spawn_remote(self, ctx: ProcContext, program: Callable, name: str,
                     target_cell: int) -> Generator:
        """Fork a child onto another cell.

        The parent's COW leaf is split locally; the child cell allocates
        its leaf pointing (by kernel address) at the old leaf here, so the
        child's anonymous faults search back across the boundary
        (Section 5.3's distributed COW tree).
        """
        yield self.costs.remote_fork_extra_ns
        yield from self.recovery_gate()
        parent = ctx.process
        old_leaf = self.cow.resolve(parent.cow_leaf_addr)
        if old_leaf is None:
            self.panic(f"corrupt COW leaf in pid {parent.pid} at fork")
            raise ProcessKilled(parent.pid, "cell panic")
        # Split: parent moves to a fresh local leaf; the old leaf becomes
        # interior.  The child's ref on the old leaf is taken here and
        # handed to the remote cell.
        parent_leaf, child_stub = self.cow.split_leaf(old_leaf)
        parent.cow_leaf_addr = parent_leaf.kaddr
        for region in parent.aspace.regions:
            if region.kind == ANON_REGION and region.task_id is None:
                region.cow_leaf_addr = parent_leaf.kaddr
        # The stub allocated locally by split_leaf is not used for a
        # remote child; transfer its reference to the remote leaf.
        self.cow.deref(child_stub)
        old_leaf.refs += 1  # the remote child leaf's reference
        anon_regions = [
            (r.start_vpn, r.npages, r.writable)
            for r in parent.aspace.regions
            if r.kind == ANON_REGION and r.task_id is None
        ]
        try:
            result = yield from self.rpc.call(
                target_cell, "spawn_program",
                {"name": name, "program": program,
                 "parent_pid": parent.pid,
                 "parent_cell": self.kernel_id,
                 "cow_parent_addr": old_leaf.kaddr,
                 "anon_regions": anon_regions},
                arg_bytes=512)
        except RpcRemoteError as exc:
            old_leaf.refs -= 1
            raise FileError(exc.errno, str(exc))
        pid = result["pid"]
        self._remote_children[pid] = self.sim.event(f"rwait.{pid}")
        self.metrics.counter("spawns.remote").add()
        return pid

    def _h_spawn_program(self, src_cell: int, args: dict) -> Generator:
        program = args.get("program")
        name = args.get("name")
        if not callable(program) or not isinstance(name, str):
            raise RpcHandlerError("EINVAL", "bad spawn request")
        cow_parent = args.get("cow_parent_addr")
        if not isinstance(cow_parent, int):
            raise RpcHandlerError("EINVAL", "bad COW parent address")
        yield self.costs.fork_ns + self.costs.exec_ns
        self.publish_phase("process_creation")
        child = self.create_process(name)
        # Rebind the child's anonymous ancestry across the cell boundary.
        old_root = self.cow.resolve(child.cow_leaf_addr)
        if old_root is not None:
            self.cow.deref(old_root)
        leaf = self.cow.adopt_remote_child(cow_parent, src_cell)
        child.cow_leaf_addr = leaf.kaddr
        child.cow_leaf_cell = self.kernel_id
        child.dependencies.add(src_cell)
        # Inherit the parent's anonymous regions (same virtual layout) so
        # pre-fork pages resolve through the COW search.
        for start_vpn, npages, writable in args.get("anon_regions", []):
            if (not isinstance(start_vpn, int) or not isinstance(npages, int)
                    or npages <= 0 or npages > 1_000_000):
                raise RpcHandlerError("EINVAL", "bad inherited region")
            region = Region(start_vpn, npages, ANON_REGION, bool(writable))
            region.cow_leaf_addr = leaf.kaddr
            region.cow_leaf_cell = self.kernel_id
            self.heap.alloc(region, "region")
            child.aspace.add_region(region)
            child.aspace._next_vpn = max(child.aspace._next_vpn,
                                         start_vpn + npages + 16)
        child.notify_parent = (src_cell, args.get("parent_pid"))
        self.start_thread(child, program)
        return {"pid": child.pid}

    # -- exit notification / remote wait --------------------------------------

    def _reap_process(self, proc: Process, status: int) -> None:
        # Release remote pages held by still-open descriptors before the
        # fd table is torn down.
        for fd in list(proc.fds.values()):
            release = getattr(self, "release_fd_imports", None)
            if release is not None:
                release(fd)
        super()._reap_process(proc, status)
        notify = getattr(proc, "notify_parent", None)
        if notify is not None and self.alive:
            cell, _ppid = notify
            self.sim.process(
                self._notify_exit(cell, proc.pid, status),
                name=f"c{self.kernel_id}.exitnotify")
        task_id = proc.task_id
        if task_id is not None:
            self.registry.task_component_exited(task_id, self.kernel_id,
                                                proc.pid, status)

    def _notify_exit(self, cell: int, pid: int, status: int) -> Generator:
        try:
            yield from self.rpc.call(cell, "child_exited",
                                     {"pid": pid, "status": status})
        except (RpcTimeout, RpcRemoteError):
            pass

    def _h_child_exited(self, src_cell: int, args: dict) -> Generator:
        pid = args.get("pid")
        status = args.get("status")
        yield self.costs.wait_ns
        if not isinstance(pid, int) or not isinstance(status, int):
            raise RpcHandlerError("EINVAL", "bad exit notification")
        self._remote_child_status[pid] = status
        ev = self._remote_children.get(pid)
        if ev is not None and not ev.triggered:
            ev.succeed(status)
        return None

    def sys_waitpid(self, ctx: ProcContext, pid: int) -> Generator:
        if pid in self.processes:
            return (yield from super().sys_waitpid(ctx, pid))
        if pid in self._remote_child_status:
            yield self.costs.syscall_overhead_ns + self.costs.wait_ns
            return self._remote_child_status.pop(pid)
        ev = self._remote_children.get(pid)
        if ev is None:
            return (yield from super().sys_waitpid(ctx, pid))
        yield self.costs.syscall_overhead_ns + self.costs.wait_ns
        status = yield from ctx.block(self._wait_on(ev))
        self._remote_children.pop(pid, None)
        self._remote_child_status.pop(pid, None)
        return status

    # ------------------------------------------------------------------
    # signals across cells
    # ------------------------------------------------------------------

    def signal_remote(self, ctx: ProcContext, pid: int, sig: int) -> Generator:
        target_cell = self.registry.cell_of_pid(pid)
        if target_cell is None or target_cell == self.kernel_id:
            raise FileError("ESRCH", f"no such process {pid}")
        try:
            yield from self.rpc.call(target_cell, "post_signal",
                                     {"pid": pid, "sig": sig})
        except RpcRemoteError as exc:
            raise FileError(exc.errno, str(exc))
        return True

    def _h_post_signal(self, src_cell: int, args: dict) -> Generator:
        pid = args.get("pid")
        sig = args.get("sig")
        if not isinstance(pid, int) or not isinstance(sig, int) \
                or not 1 <= sig <= 64:
            raise RpcHandlerError("EINVAL", "bad signal")
        yield self.costs.signal_deliver_ns
        target = self.processes.get(pid)
        if target is None:
            raise RpcHandlerError("ESRCH", f"no pid {pid} here")
        target.post_signal(sig)
        return None

    def signal_pgroup(self, ctx: ProcContext, pgid: int,
                      sig: int) -> Generator:
        """Deliver a signal to every member of a (distributed) group."""
        yield self.costs.syscall_overhead_ns
        delivered = self._post_local_pgroup(pgid, sig)
        for cell_id in self.registry.live_cell_ids():
            if cell_id == self.kernel_id:
                continue
            try:
                result = yield from self.rpc.call(
                    cell_id, "signal_pgroup", {"pgid": pgid, "sig": sig})
                if isinstance(result, int):
                    delivered += result
            except (RpcTimeout, RpcRemoteError):
                continue
        return delivered

    def _post_local_pgroup(self, pgid: int, sig: int) -> int:
        count = 0
        for proc in list(self.processes.values()):
            if proc.pgid == pgid and not proc.exited:
                proc.post_signal(sig)
                count += 1
        return count

    def _h_signal_pgroup(self, src_cell: int, args: dict) -> Generator:
        pgid = args.get("pgid")
        sig = args.get("sig")
        if not isinstance(pgid, int) or not isinstance(sig, int) \
                or not 1 <= sig <= 64:
            raise RpcHandlerError("EINVAL", "bad pgroup signal")
        yield self.costs.signal_deliver_ns
        return self._post_local_pgroup(pgid, sig)

    # ------------------------------------------------------------------
    # spanning tasks (Section 3.2)
    # ------------------------------------------------------------------

    def spawn_spanning_task(self, ctx: ProcContext,
                            program_factory: Callable[[int, int], Callable],
                            cells: List[int],
                            shared_segments: Dict[int, int],
                            name: str = "task") -> Generator:
        """Create a spanning task with a component process per cell.

        ``program_factory(component_index, ncomponents)`` returns the
        program for each component; ``shared_segments`` maps a share key
        to a page count — each component maps every segment at the same
        virtual range, backed by first-touch-placed shared pages.
        Returns the :class:`SpanningTask` record.
        """
        yield self.costs.syscall_overhead_ns
        task = self.registry.new_task()
        task.segments.update(shared_segments)
        base_vpn = 0x4000_0
        layout = {}
        for key, npages in sorted(shared_segments.items()):
            layout[key] = (base_vpn, npages)
            base_vpn += npages + 16
        for index, cell_id in enumerate(cells):
            if cell_id == self.kernel_id:
                pid = self._spawn_component_local(
                    program_factory(index, len(cells)),
                    f"{name}.{index}", task.task_id, layout)
            else:
                yield from self.recovery_gate()
                try:
                    result = yield from self.rpc.call(
                        cell_id, "spawn_component",
                        {"program": program_factory(index, len(cells)),
                         "name": f"{name}.{index}",
                         "task_id": task.task_id,
                         "layout": layout},
                        arg_bytes=512)
                except RpcRemoteError as exc:
                    raise FileError(exc.errno, str(exc))
                pid = result["pid"]
            task.components[pid] = cell_id
            self._remote_children.setdefault(
                pid, self.sim.event(f"rwait.{pid}"))
        self.metrics.counter("spanning_tasks").add()
        return task

    def _spawn_component_local(self, program: Callable, name: str,
                               task_id: int, layout: dict) -> int:
        proc = self.create_process(name)
        proc.task_id = task_id
        for key, (start_vpn, npages) in sorted(layout.items()):
            region = Region(start_vpn, npages, ANON_REGION,
                            writable=True, shared=True)
            region.task_id = task_id
            region.share_key = key
            self.heap.alloc(region, "region")
            proc.aspace.add_region(region)
            proc.aspace._next_vpn = max(proc.aspace._next_vpn,
                                        start_vpn + npages + 16)
        proc.notify_parent = None
        self.start_thread(proc, program)
        return proc.pid

    def _h_spawn_component(self, src_cell: int, args: dict) -> Generator:
        program = args.get("program")
        task_id = args.get("task_id")
        layout = args.get("layout")
        if not callable(program) or not isinstance(task_id, int) \
                or not isinstance(layout, dict):
            raise RpcHandlerError("EINVAL", "bad component spawn")
        yield self.costs.fork_ns + self.costs.exec_ns
        self.publish_phase("process_creation")
        pid = self._spawn_component_local(
            program, str(args.get("name", "task.c")), task_id, layout)
        proc = self.processes[pid]
        proc.notify_parent = (src_cell, None)
        proc.dependencies.add(src_cell)
        return {"pid": pid}

    def kill_task_components(self, task_id: int, reason: str) -> int:
        """Kill local components of a task (used when the task dies)."""
        killed = 0
        for proc in list(self.processes.values()):
            if proc.task_id == task_id and not proc.exited:
                proc.post_signal(SIGKILL)
                killed += 1
        return killed

    def _h_kill_task(self, src_cell: int, args: dict) -> Generator:
        task_id = args.get("task_id")
        if not isinstance(task_id, int):
            raise RpcHandlerError("EINVAL", "bad task id")
        yield self.costs.signal_deliver_ns
        return self.kill_task_components(task_id, "task kill")

    # ------------------------------------------------------------------
    # sequential process migration (Section 3.2)
    # ------------------------------------------------------------------

    def migrate_process(self, ctx: ProcContext, program: Callable,
                        name: str, target_cell: int) -> Generator:
        """Move the *rest* of a sequential process to another cell.

        Modelled as the spanning-task mechanism the paper says supports
        migration: the continuation runs as a remote child COW-linked to
        the current process, and the local process exits.
        """
        pid = yield from self.spawn_remote(ctx, program, name, target_cell)
        self.metrics.counter("migrations").add()
        return pid
