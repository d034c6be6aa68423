"""The assembled single-kernel UNIX (the IRIX 5.2 stand-in).

:class:`LocalKernel` boots on a set of nodes it owns, builds the kernel
heap, pfdat table, file systems, COW manager, and scheduler over them, and
exposes the syscall surface the workloads use.  Booted over *all* nodes
with the firewall disabled it is the paper's IRIX baseline; booted over a
node range it is the substrate one Hive cell extends
(:class:`repro.core.cell.Cell` subclasses this and overrides the remote
hooks).

Workload programs are coroutines receiving a :class:`ProcContext`::

    def program(ctx):
        fd = yield from ctx.open("/tmp/out", "w", create=True)
        yield from ctx.write(fd, b"hello")
        yield from ctx.compute(2_000_000)   # 2 ms of user time
        yield from ctx.close(fd)

Every context operation charges simulated time per the cost model and
holds a specific CPU while executing, so firewall checks see the true
writing processor and CPU contention emerges from the scheduler.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.hardware.errors import BusError
from repro.hardware.machine import Machine
from repro.sim.engine import Event, Interrupted, Simulator
from repro.sim.stats import MetricSet
from repro.unix.address_space import (
    ANON_REGION,
    ASPACE_TAG,
    FILE_REGION,
    AddressSpace,
    Pte,
    Region,
    REGION_TAG,
)
from repro.unix.costs import DEFAULT_COSTS, KernelCosts
from repro.unix.cow import CowManager, CowNode
from repro.unix.errors import (
    BadAddressError,
    CellFailedError,
    FileError,
    ProcessKilled,
    StaleGenerationError,
)
from repro.unix.fs import PAGE, DiskFileSystem, Inode
from repro.unix.kheap import KernelHeap
from repro.unix.pfdat import NoFreeFrames, Pfdat, PfdatTable
from repro.unix.process import PROC_TAG, FileDescriptor, Process, Thread
from repro.unix.sched import Scheduler

#: pages at the very bottom of each node reserved for the remap region
#: (trap vectors); the kernel heap follows them.
REMAP_PAGES = 4
#: pages of each kernel's first node reserved for kernel internal data
#: ("OS internal data" at the bottom of the cell's range, Figure 3.1).
KERNEL_RESERVED_PAGES = 1024  # 4 MB


class GlobalNamespace:
    """Maps paths to the node (and hence file system) that serves them.

    One file system lives on each node's disk.  A path is served by the
    file system of its top-level directory's home node — a stable hash by
    default, overridable with explicit mounts (the benchmarks pin ``/tmp``
    to one node to reproduce the pmake file-server effect).
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.mounts: Dict[str, int] = {}

    def mount(self, prefix: str, node_id: int) -> None:
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must be absolute")
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"bad node {node_id}")
        self.mounts[prefix.rstrip("/") or "/"] = node_id

    def node_for(self, path: str) -> int:
        best = None
        for prefix, node in self.mounts.items():
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, node)
        if best is not None:
            return best[1]
        # The first component under the root; a path with no slash at
        # all (nothing valid names one, but RPC arguments arrive from
        # other cells unchecked) hashes whole.
        parts = path.split("/")
        top = parts[1] if len(parts) > 1 else path
        h = 0
        for ch in top:
            h = (h * 131 + ord(ch)) & 0xFFFFFFFF
        return h % self.num_nodes


class ProcContext:
    """The syscall interface handed to workload programs."""

    def __init__(self, kernel: "LocalKernel", thread: Thread):
        self.kernel = kernel
        self.thread = thread

    @property
    def process(self) -> Process:
        return self.thread.process

    @property
    def cpu(self) -> int:
        if self.thread.cpu is None:
            raise RuntimeError(f"{self.thread} not on CPU")
        return self.thread.cpu

    @property
    def sim(self) -> Simulator:
        return self.kernel.sim

    # -- CPU handling ---------------------------------------------------

    def _ensure_cpu(self) -> Generator:
        self.thread.check_killed()
        self.kernel.check_alive()
        yield from self.kernel.user_gate(self.thread)
        if self.thread.cpu is None:
            cpu = yield self.kernel.sched.acquire(self.process.pid)
            self.thread.cpu = cpu
        yield from self._freeze_if_halted()
        return None

    def _freeze_if_halted(self) -> Generator:
        """A thread on a halted processor executes nothing more.

        It parks on an event that never triggers; the recovery round
        kills it once agreement confirms the cell failed.
        """
        cpu = self.thread.cpu
        if cpu is not None and self.kernel.machine.cpu(cpu).halted:
            yield self.sim.event(f"halted.cpu{cpu}")
        return None

    def _yield_cpu(self) -> None:
        if self.thread.cpu is not None:
            self.kernel.sched.release(self.thread.cpu)
            self.thread.cpu = None

    def block(self, gen) -> Generator:
        """Run a blocking kernel coroutine: release the CPU while waiting."""
        self._yield_cpu()
        result = yield from gen
        yield from self._ensure_cpu()
        return result

    def compute(self, duration_ns: int) -> Generator:
        """Run on a CPU for ``duration_ns`` of user time, quantum-sliced."""
        yield from self._ensure_cpu()
        remaining = int(duration_ns)
        quantum = self.kernel.costs.scheduler_quantum_ns
        while remaining > 0:
            slice_ns = min(remaining, quantum)
            # Interrupt handlers and RPC servers stole cycles from this
            # CPU; the user computation stretches accordingly.
            slice_ns += self.kernel.drain_stolen(slice_ns)
            yield slice_ns
            remaining -= slice_ns
            self.thread.check_killed()
            self.kernel.check_alive()
            yield from self._freeze_if_halted()
            if self.kernel.user_suspended:
                # Recovery in progress: step off the CPU until resumed.
                self._yield_cpu()
                yield from self._ensure_cpu()
                continue
            if remaining > 0 and self.kernel.sched.has_waiters:
                # Round-robin: give the CPU up and requeue.
                self.kernel.sched.context_switches += 1
                self._yield_cpu()
                yield self.kernel.costs.context_switch_ns
                yield from self._ensure_cpu()
        return None

    # -- syscalls (thin wrappers; logic lives on the kernel) ----------------

    def spawn(self, program: Callable, name: str = "child",
              target_cell: Optional[int] = None) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_spawn(
            self, program, name, target_cell))

    def waitpid(self, pid: int) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_waitpid(self, pid))

    def exit(self, status: int = 0) -> Generator:
        yield from self.kernel.sys_exit(self, status)
        return None

    def open(self, path: str, mode: str = "r",
             create: bool = False) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_open(self, path, mode, create))

    def close(self, fdnum: int) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_close(self, fdnum))

    def read(self, fdnum: int, nbytes: int) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_read(self, fdnum, nbytes))

    def write(self, fdnum: int, data: bytes) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_write(self, fdnum, data))

    def unlink(self, path: str) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_unlink(self, path))

    def map_file(self, path: str, writable: bool = False,
                 shared: bool = True) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_map_file(
            self, path, writable, shared))

    def map_anon(self, npages: int, writable: bool = True) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_map_anon(self, npages, writable))

    def touch(self, region: Region, page_index: int,
              write: bool = False) -> Generator:
        """Access one page of a mapped region (fault on first touch)."""
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_touch(
            self, region, page_index, write))

    def touch_many(self, region: Region, start_index: int = 0,
                   count: Optional[int] = None,
                   write: bool = False) -> Generator:
        """Access a run of consecutive pages, one :meth:`touch` each."""
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_touch_many(
            self, region, start_index, count, write))

    def signal(self, pid: int, sig: int) -> Generator:
        yield from self._ensure_cpu()
        return (yield from self.kernel.sys_kill(self, pid, sig))


class LocalKernel:
    """One UNIX kernel instance owning a range of nodes."""

    def __init__(self, sim: Simulator, machine: Machine, kernel_id: int,
                 node_ids: List[int], namespace: GlobalNamespace,
                 costs: Optional[KernelCosts] = None,
                 clock_tick_ns: Optional[int] = None):
        self.sim = sim
        self.machine = machine
        self.kernel_id = kernel_id
        self.node_ids = list(node_ids)
        self.namespace = namespace
        self.costs = costs or DEFAULT_COSTS
        self.clock_tick_ns = clock_tick_ns or self.costs.clock_tick_ns
        params = machine.params

        self.cpu_ids: List[int] = []
        for node in self.node_ids:
            base = node * params.cpus_per_node
            self.cpu_ids.extend(range(base, base + params.cpus_per_node))

        # Configure each owned node's firewall so every processor of this
        # kernel (cell) can write the kernel's own memory; the firewall
        # defends cell borders, not node borders within a cell.
        if machine.memory.firewall_enabled:
            for node in self.node_ids:
                machine.memory.firewalls[node].set_default_mask_for_nodes(
                    self.node_ids, node)

        # Memory layout: remap region + kernel reserved pages on the first
        # owned node; everything else is paged memory.
        first = self.node_ids[0]
        first_base_frame = first * params.pages_per_node
        heap_base_frame = first_base_frame + REMAP_PAGES + 1
        heap_frames = KERNEL_RESERVED_PAGES - REMAP_PAGES - 1
        self.heap = KernelHeap(
            kernel_id,
            heap_base_frame * params.page_size,
            heap_frames * params.page_size,
        )
        #: the shared-memory word this kernel increments on every clock
        #: interrupt (watched by its monitor cell in Hive, Section 4.3)
        self.heartbeat_addr = (first_base_frame + REMAP_PAGES) * params.page_size
        self.heartbeat_value = 0

        self.pfdats = PfdatTable(
            range(node * params.pages_per_node
                  + (KERNEL_RESERVED_PAGES if node == first else 0),
                  (node + 1) * params.pages_per_node)
            for node in self.node_ids)

        # One file system per owned node's disk.
        self.filesystems: Dict[int, DiskFileSystem] = {}
        for node in self.node_ids:
            disk = machine.nodes[node].disk
            self.filesystems[node] = DiskFileSystem(
                sim, fs_id=node, disk=disk, home_cell=kernel_id)

        self.cow = CowManager(kernel_id, self.heap)
        # Swap space on the first owned disk, and the page-replacement
        # daemon that keeps a free reserve (Table 3.4's clock hand).
        from repro.unix.swap import ClockHand, SwapSpace

        self.swap = SwapSpace(sim, machine.nodes[first].disk)
        self.clockhand = ClockHand(self)
        self.sched = Scheduler(sim, self.cpu_ids, self.costs,
                               name=f"k{kernel_id}.sched")
        self.processes: Dict[int, Process] = {}
        self._next_pid = kernel_id * 100_000 + 10
        self._wait_events: Dict[int, list] = {}
        self.metrics = MetricSet(name=f"kernel{kernel_id}")
        #: anonymous logical pages lost to preemptive discard; faults on
        #: them kill the faulting process (the data is unrecoverable)
        self.poisoned_anon: Set[tuple] = set()
        #: logical ids of pages being filled -> the event a second filler
        #: waits on (None until one does); see :meth:`_find_or_fill`
        self._filling: Dict[tuple, Optional[Event]] = {}
        #: logical ids of pages an :meth:`evict` is writing back: a
        #: second evictor takes another page instead of following it
        self._evicting: Set[tuple] = set()
        #: flight-recorder handle; ``attach_flight_recorder`` sets it.
        #: None when unobserved: hot paths guard on ``is not None``.
        self.obs = None
        self.alive = True
        self.panic_reason: Optional[str] = None
        #: while True, user-level threads park at their next gate (the
        #: Section 4.3 user-level suspension during agreement/recovery).
        self.user_suspended = False
        self._resume_events: List = []
        #: CPU time consumed by interrupt handlers and kernel server
        #: processes (RPC service); it is *stolen* from whatever user
        #: threads run on this kernel's CPUs — the next compute slices
        #: stretch by the accumulated amount (per CPU).
        self._stolen_ns = 0
        #: callbacks fired when this kernel panics (Hive wires detection)
        self.panic_hooks: List[Callable[[str], None]] = []
        #: phase listeners (fault injection trigger points)
        self.phase_hooks: List[Callable[[str], None]] = []
        self._clock_proc = sim.process(self._clock_loop(),
                                       name=f"k{kernel_id}.clock")

    # ------------------------------------------------------------------
    # liveness / panic
    # ------------------------------------------------------------------

    def check_alive(self) -> None:
        if not self.alive:
            raise ProcessKilled(0, f"kernel {self.kernel_id} is down")

    def panic(self, reason: str) -> None:
        """Shut this kernel down (Section 4.1 cell panic semantics)."""
        if not self.alive:
            return
        self.alive = False
        self.panic_reason = reason
        # Engage the memory cutoff so no other node reads potentially
        # corrupt data from our memory (Table 8.1).
        for node in self.node_ids:
            self.machine.engage_cutoff(node)
        # Halt every local thread.
        for proc in list(self.processes.values()):
            for thread in list(proc.threads):
                thread.kill(f"cell panic: {reason}")
        for hook in list(self.panic_hooks):
            hook(reason)

    def publish_phase(self, name: str) -> None:
        for hook in list(self.phase_hooks):
            hook(name)

    def note_cpu_steal(self, ns: int) -> None:
        """Record interrupt/server CPU time stolen from user threads."""
        self._stolen_ns += int(ns)

    def drain_stolen(self, cap_ns: int) -> int:
        """Take up to ``cap_ns`` of pending stolen time (per-CPU share)."""
        share = min(self._stolen_ns // max(1, len(self.cpu_ids)), cap_ns)
        self._stolen_ns -= share * max(1, len(self.cpu_ids))
        if self._stolen_ns < 0:
            self._stolen_ns = 0
        return share

    # ------------------------------------------------------------------
    # user-level suspension (used by agreement/recovery)
    # ------------------------------------------------------------------

    def suspend_user(self) -> None:
        """Park user-level threads at their next kernel entry or quantum."""
        self.user_suspended = True

    def resume_user(self) -> None:
        self.user_suspended = False
        events, self._resume_events = self._resume_events, []
        for ev in events:
            if not ev.triggered:
                ev.succeed()

    def user_gate(self, thread: Thread) -> Generator:
        """Block a user-level thread while the cell is suspended."""
        while self.user_suspended and self.alive:
            if thread.cpu is not None:
                self.sched.release(thread.cpu)
                thread.cpu = None
            ev = self.sim.event(f"k{self.kernel_id}.resume")
            self._resume_events.append(ev)
            yield ev
            thread.check_killed()
        return None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    def _clock_loop(self) -> Generator:
        cpu0 = self.cpu_ids[0]
        # Cells boot at slightly different times, so their clock
        # interrupts are phase-shifted — detection latency then depends
        # on where in the monitor's tick period a fault lands.
        phase = (self.kernel_id * 2_700_000 + 1_300_000) % self.clock_tick_ns
        yield phase
        while True:
            yield self.clock_tick_ns
            if not self.alive:
                return
            if self.machine.nodes[self.node_ids[0]].halted:
                return  # a halted processor stops ticking
            try:
                self.machine.coherence.write(cpu0, self.heartbeat_addr)
            except BusError:
                self.panic("bus error updating clock word")
                return
            self.heartbeat_value += 1
            self.clock_tick_hook()

    def clock_tick_hook(self) -> None:
        """Extended by Hive cells (clock monitoring of other cells)."""

    def clockhand_preferred_source(self) -> Optional[int]:
        """Which foreign cell's memory the clock hand should free first.

        The base kernel has no intercell memory; Hive cells return Wax's
        ``clockhand_target`` hint (Section 5.7).
        """
        return None

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def create_process(self, name: str, parent: Optional[Process] = None,
                       aspace: Optional[AddressSpace] = None) -> Process:
        if aspace is None:
            aspace = AddressSpace(self.kernel_id)
            self.heap.alloc(aspace, ASPACE_TAG)
        proc = Process(self.new_pid(), self.kernel_id, aspace,
                       name=name, parent=parent)
        self.heap.alloc(proc, PROC_TAG)
        # A fresh process gets a fresh COW root for its anonymous memory.
        leaf = self.cow.new_root()
        proc.cow_leaf_addr = leaf.kaddr
        proc.cow_leaf_cell = self.kernel_id
        if parent is not None:
            parent.children.append(proc)
        self.processes[proc.pid] = proc
        return proc

    def start_thread(self, proc: Process, program: Callable,
                     name: str = "") -> Thread:
        thread = Thread(proc, name=name)
        thread.sim_process = self.sim.process(
            self._thread_main(thread, program), name=thread.name)
        return thread

    def _thread_main(self, thread: Thread, program: Callable) -> Generator:
        ctx = ProcContext(self, thread)
        status = 0
        try:
            yield from ctx._ensure_cpu()
            yield from program(ctx)
        except ProcessKilled:
            status = -1
        except Interrupted:
            status = -1
        except (BadAddressError, StaleGenerationError, FileError,
                CellFailedError, NoFreeFrames):
            # I/O, remote-cell and out-of-memory errors the program chose
            # not to handle terminate it with an error status (processes
            # using a failed cell's resources see errors, Section 4.2).
            status = 1
        except BusError as exc:
            # A bus error during kernel execution outside a careful
            # section indicates internal corruption (or our own node
            # failing): the cell panics (Section 4.1).
            status = -1
            self.panic(f"bus error during kernel execution: {exc}")
        finally:
            ctx._yield_cpu()
            self._thread_exited(thread, status)
        return status

    def _thread_exited(self, thread: Thread, status: int) -> None:
        proc = thread.process
        if thread in proc.threads:
            proc.threads.remove(thread)
        if not proc.threads and not proc.exited:
            self._reap_process(proc, status)

    def _reap_process(self, proc: Process, status: int) -> None:
        proc.exited = True
        proc.exit_status = status
        proc.zombie = True
        self.teardown_address_space(proc)
        proc.fds.clear()
        self.sched.release_reservation(proc.pid)
        for ev in self._wait_events.pop(proc.pid, []):
            if not ev.triggered:
                ev.succeed(status)

    def teardown_address_space(self, proc: Process) -> None:
        """Unmap everything and release COW/anon pages on process exit."""
        aspace = proc.aspace
        aspace.refcount -= 1
        for vpn, pte in aspace.unmap_all(self.kernel_id):
            self._drop_mapping(pte)
        if aspace.refcount <= 0 and aspace.kaddr:
            for region in list(aspace.regions):
                if region.kaddr:
                    self.heap.free(region)
            aspace.regions.clear()
            self.heap.free(aspace)
        leaf = self.cow.resolve(proc.cow_leaf_addr)
        if leaf is not None:
            self._release_cow_chain(leaf)
        elif proc.cow_leaf_addr:
            self.panic(
                f"corrupt COW leaf pointer {proc.cow_leaf_addr:#x} in "
                f"pid {proc.pid} at exit")
        if proc.kaddr:
            self.heap.free(proc)

    def _release_cow_chain(self, leaf: CowNode) -> None:
        for item in self.cow.deref(leaf):
            if item[0] == "remote-parent":
                _, cell, addr = item
                self.remote_cow_deref(cell, addr)
                continue
            tag, idx = item
            self.swap.discard((tag, idx))
            pf = self.pfdats.lookup((tag, idx))
            if pf is not None and pf.refcount == 0:
                self.drop_frame(pf)

    def remote_cow_deref(self, cell: int, addr: int) -> None:
        """Hook: Hive sends a deref RPC; standalone kernels never need it."""

    def _drop_mapping(self, pte: Pte) -> None:
        pf = pte.pfdat
        if pf is None:
            return
        pf.refcount -= 1
        if pf.refcount == 0 and pf.imported_from is not None:
            self.drop_frame(pf)

    def drop_frame(self, pf: Pfdat) -> None:
        """The page in ``pf``'s frame is no longer needed: the pfdat
        table puts the frame where its kind goes (DESIGN.md §3m); Hive
        also tells the cell that lent the page or the frame."""
        self.pfdats.drop(pf)

    # -- syscall: spawn / wait / exit / kill ------------------------------

    def sys_spawn(self, ctx: ProcContext, program: Callable, name: str,
                  target_cell: Optional[int]) -> Generator:
        """fork + exec of a fresh program; returns the child pid."""
        self.publish_phase("process_creation")
        yield (self.costs.syscall_overhead_ns
               + self.costs.fork_ns + self.costs.exec_ns)
        if target_cell is not None and target_cell != self.kernel_id:
            return (yield from self.spawn_remote(
                ctx, program, name, target_cell))
        parent = ctx.process
        child = self.create_process(name, parent=parent)
        self._fork_anon_into_child(parent, child)
        self.start_thread(child, program)
        self.metrics.counter("spawns").add()
        return child.pid

    def _fork_anon_into_child(self, parent: Process,
                              child: Process) -> None:
        """Local fork: the child shares pre-fork anonymous pages COW.

        The parent's leaf splits (Section 5.3): both processes move to
        fresh leaves under the old leaf, and the child inherits the
        parent's anonymous regions at the same virtual addresses.
        """
        if not parent.cow_leaf_addr or parent.cow_leaf_cell != self.kernel_id:
            return
        old_leaf = self.cow.resolve(parent.cow_leaf_addr)
        if old_leaf is None:
            self.panic(
                f"corrupt COW leaf pointer {parent.cow_leaf_addr:#x} in "
                f"pid {parent.pid} at fork")
            raise ProcessKilled(parent.pid, "cell panic")
        parent_leaf, child_leaf = self.cow.split_leaf(old_leaf)
        parent.cow_leaf_addr = parent_leaf.kaddr
        # The child's fresh root from create_process is unused; drop it.
        stale = self.cow.resolve(child.cow_leaf_addr)
        if stale is not None:
            self.cow.deref(stale)
        child.cow_leaf_addr = child_leaf.kaddr
        child.cow_leaf_cell = self.kernel_id
        for region in parent.aspace.regions:
            if region.kind != ANON_REGION or region.task_id is not None:
                continue
            region.cow_leaf_addr = parent_leaf.kaddr
            clone = Region(region.start_vpn, region.npages, ANON_REGION,
                           region.writable)
            clone.cow_leaf_addr = child_leaf.kaddr
            clone.cow_leaf_cell = self.kernel_id
            self.heap.alloc(clone, REGION_TAG)
            child.aspace.add_region(clone)
            child.aspace._next_vpn = max(
                child.aspace._next_vpn,
                region.start_vpn + region.npages + 16)

    def spawn_remote(self, ctx: ProcContext, program: Callable, name: str,
                     target_cell: int) -> Generator:
        raise FileError("EINVAL",
                        "remote spawn requires a Hive cell kernel")
        yield  # pragma: no cover

    def sys_waitpid(self, ctx: ProcContext, pid: int) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.wait_ns
        proc = self.processes.get(pid)
        if proc is None:
            raise FileError("ECHILD", f"no such child {pid}")
        if proc.exited:
            proc.zombie = False
            return proc.exit_status
        ev = self.sim.event(f"wait.{pid}")
        self._wait_events.setdefault(pid, []).append(ev)
        status = yield from ctx.block(self._wait_on(ev))
        proc.zombie = False
        return status

    @staticmethod
    def _wait_on(ev) -> Generator:
        result = yield ev
        return result

    def sys_exit(self, ctx: ProcContext, status: int) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.exit_ns
        proc = ctx.process
        for thread in list(proc.threads):
            if thread is not ctx.thread:
                thread.kill("exit() by sibling thread")
        raise ProcessKilled(proc.pid, f"exit({status})")

    def sys_kill(self, ctx: ProcContext, pid: int, sig: int) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.signal_deliver_ns
        target = self.processes.get(pid)
        if target is None:
            return (yield from self.signal_remote(ctx, pid, sig))
        target.post_signal(sig)
        return True

    def signal_remote(self, ctx: ProcContext, pid: int, sig: int) -> Generator:
        raise FileError("ESRCH", f"no such process {pid}")
        yield  # pragma: no cover

    # -- syscall: file system ------------------------------------------------

    def fs_node_for(self, path: str) -> int:
        return self.namespace.node_for(path)

    def local_fs_for(self, path: str) -> Optional[DiskFileSystem]:
        node = self.fs_node_for(path)
        return self.filesystems.get(node)

    def sys_open(self, ctx: ProcContext, path: str, mode: str,
                 create: bool) -> Generator:
        yield self.costs.syscall_overhead_ns
        fs = self.local_fs_for(path)
        if fs is None:
            return (yield from self.open_remote(ctx, path, mode, create))
        yield self.costs.open_local_ns
        if create and not fs.exists(path):
            yield self.costs.create_ns
            fs.create(path)
        inode = fs.lookup(path)
        fd = ctx.process.install_fd(
            fs.fs_id, inode.ino, data_home=self.kernel_id, mode=mode,
            generation=inode.generation)
        self.metrics.counter("opens.local").add()
        return fd.fd

    def open_remote(self, ctx: ProcContext, path: str, mode: str,
                    create: bool) -> Generator:
        raise FileError("ENODEV",
                        f"{path}: served by node {self.fs_node_for(path)}, "
                        "not owned by this kernel")
        yield  # pragma: no cover

    def sys_close(self, ctx: ProcContext, fdnum: int) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.close_ns
        ctx.process.close_fd(fdnum)
        return None

    def sys_unlink(self, ctx: ProcContext, path: str) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.unlink_ns
        fs = self.local_fs_for(path)
        if fs is None:
            return (yield from self.unlink_remote(ctx, path))
        inode = fs.unlink(path)
        self._invalidate_file_cache(fs.fs_id, inode)
        return None

    def unlink_remote(self, ctx: ProcContext, path: str) -> Generator:
        raise FileError("ENODEV", f"{path}: remote unlink needs Hive")
        yield  # pragma: no cover

    def _invalidate_file_cache(self, fs_id: int, inode: Inode) -> None:
        tag = ("file", fs_id, inode.ino)
        for idx in range(inode.npages):
            pf = self.pfdats.lookup((tag, idx))
            if pf is not None and pf.refcount == 0:
                self.drop_frame(pf)

    # -- file page cache -------------------------------------------------------

    def _fd_inode(self, fd: FileDescriptor) -> Tuple[DiskFileSystem, Inode]:
        fs = self.filesystems.get(fd.fs_id)
        if fs is None:
            raise FileError("ESTALE", f"fs {fd.fs_id} not local")
        return fs, fs.inode(fd.ino)

    def _check_generation(self, fd: FileDescriptor, inode: Inode,
                          path: str = "") -> None:
        if fd.generation != inode.generation:
            raise StaleGenerationError(path or inode.path,
                                       fd.generation, inode.generation)

    def get_file_page(self, fs: DiskFileSystem, inode: Inode,
                      page_index: int, ctx: Optional[ProcContext] = None,
                      no_fill: bool = False) -> Generator:
        """Find-or-fill one file page in the local page cache.

        Returns the pfdat.  This is the Section 5.1 path: hash lookup,
        then vnode read (a disk access) on a miss.  ``no_fill`` skips the
        disk read for pages about to be fully overwritten or created by
        an extending write — there is nothing meaningful to fetch.
        """
        yield self.costs.pfdat_hash_lookup_ns
        return (yield from self._find_or_fill(
            (("file", fs.fs_id, inode.ino), page_index), ctx,
            disk=None if no_fill else (fs, inode)))

    def _find_or_fill(self, logical_id: tuple,
                      ctx: Optional[ProcContext] = None,
                      disk: Optional[Tuple[DiskFileSystem, Inode]] = None,
                      copy_of: Optional[Pfdat] = None) -> Generator:
        """Find one page in the page cache, or allocate, fill and hash it.

        The fill copies ``copy_of`` (a COW break), reads a file page from
        ``disk``, its ``(fs, inode)``, or restores a page the clock hand
        swapped out.  Anything else is zero-filled: an anonymous or task
        page at the zeroing cost, a file page about to be overwritten at
        no charge.  Returns the pfdat.

        The fill's waits can let a second fault on the page in; it finds
        the page marked in ``_filling``, waits for the first fill, then
        looks the page up again.  A fill that fails drops its frame.
        """
        pf = self.pfdats.lookup(logical_id)
        while pf is None and logical_id in self._filling:
            waiter = self._filling[logical_id]
            if waiter is None:
                waiter = self._filling[logical_id] = self.sim.event("fill")
            yield from self._wait(ctx, self._wait_on(waiter))
            pf = self.pfdats.lookup(logical_id)
        if pf is not None:
            return pf
        self._filling[logical_id] = None
        pf = None
        try:
            pf = yield from self.alloc_frame(ctx)
            memory = self.machine.memory
            if copy_of is not None:
                yield self.costs.page_copy_ns
                data = memory.read_page(copy_of.frame, cpu=ctx.cpu)
            elif disk is not None:
                fs, inode = disk
                data = yield from self._wait(
                    ctx, fs.read_page_from_disk(inode, logical_id[1]))
            elif self.swap.has(logical_id):
                data = yield from self._wait(
                    ctx, self.swap.swap_in(logical_id))
            else:
                data = None
                if logical_id[0][0] != "file":
                    yield self.costs.page_zero_ns
            if data is None:
                memory.zero_page(pf.frame, cpu=self._dma_cpu(pf.frame))
            else:
                memory.write_page(pf.frame, data,
                                  cpu=self._dma_cpu(pf.frame))
            self.pfdats.insert(pf, logical_id)
        finally:
            if pf is not None and pf.logical_id is None:
                self.drop_frame(pf)  # the fill failed
            waiter = self._filling.pop(logical_id)
            if waiter is not None:
                waiter.succeed()
        return pf

    @staticmethod
    def _wait(ctx: Optional[ProcContext], gen: Generator) -> Generator:
        """``gen``, with the CPU released while it blocks when a process
        waits on it (kernel daemons and RPC handlers have no ``ctx``)."""
        return gen if ctx is None else ctx.block(gen)

    def _dma_cpu(self, frame: int) -> int:
        """DMA writes are checked as if issued by the frame's home node."""
        node = self.machine.params.node_of_frame(frame)
        return node * self.machine.params.cpus_per_node

    def alloc_frame(self, ctx: Optional[ProcContext] = None,
                    preferred_cell: Optional[int] = None,
                    acceptable_cells: Optional[Set[int]] = None) -> Generator:
        """Allocate a page frame, evicting (with writeback) if needed.

        The ``preferred_cell`` / ``acceptable_cells`` constraint arguments
        are the Section 5.4 page-allocator extension; the local kernel
        ignores them (all frames are its own), Hive cells use them to
        decide when to borrow remotely.
        """
        try:
            return self.pfdats.alloc_frame()
        except NoFreeFrames:
            pass
        # The eviction's frame, or one another path freed during its
        # waits; NoFreeFrames if there is neither.
        yield from self._evict_one(ctx)
        return self.pfdats.alloc_frame()

    @staticmethod
    def reclaimable(pf: Pfdat) -> bool:
        """Whether this kernel may drop ``pf``'s page once nothing maps
        it: the page is its own, not imported, exported or loaned out."""
        return (pf.imported_from is None and not pf.exported_to
                and pf.loaned_to is None)

    def frees_local(self, pf: Pfdat) -> bool:
        """Whether dropping ``pf``'s page frees one of our own frames:
        local memory pressure evicts only these; a page on a borrowed
        frame goes when its memory home asks (``_release_foreign``)."""
        return pf.borrowed_from is None and self.reclaimable(pf)

    def _evict_one(self, ctx: Optional[ProcContext]) -> Generator:
        """Free one local frame: evict an unreferenced clean page first,
        then a dirty one, then steal a mapped page (unmap everywhere)."""
        candidates = sorted(
            (pf for pf in self.pfdats.hashed_pfdats() if self.frees_local(pf)),
            key=lambda pf: (pf.refcount > 0, pf.dirty, pf.frame))
        for pf in candidates:
            if pf.refcount > 0:
                # Nothing unreferenced: steal a mapped page.
                self._unmap_frame_everywhere(pf.frame)
                if pf.refcount > 0:
                    continue  # still referenced by a transient kernel hold
                yield self.costs.tlb_flush_ns
            if (yield from self.evict(pf, ctx)):
                return pf
        return None

    def evict(self, pf: Pfdat, ctx: Optional[ProcContext] = None) -> Generator:
        """Evict one cached page, the one rule of every pressure path:
        write it back if dirty (:meth:`writeback_page`), then drop it
        unless, during that wait, it was dropped, referenced, written,
        exported or loaned.  A page another evictor is writing back is
        left to it.  Returns whether the page went."""
        logical_id = pf.logical_id
        if logical_id is None or logical_id in self._evicting:
            return False
        self._evicting.add(logical_id)
        try:
            yield from self.writeback_page(pf, ctx)
        finally:
            self._evicting.discard(logical_id)
        if (pf.logical_id != logical_id or pf.refcount or pf.dirty
                or not self.reclaimable(pf)):
            return False
        self.drop_frame(pf)
        return True

    def _unmap_frame_everywhere(self, frame: int) -> None:
        """Drop every local mapping of a frame (page steal / discard)."""
        for proc in self.processes.values():
            if proc.exited:
                continue
            pmap = proc.aspace.ptes.get(self.kernel_id, {})
            stale = [vpn for vpn, pte in pmap.items()
                     if pte.frame == frame]
            for vpn in stale:
                pte = proc.aspace.unmap_page(self.kernel_id, vpn)
                if pte is not None and pte.pfdat is not None:
                    pte.pfdat.refcount = max(0, pte.pfdat.refcount - 1)

    def writeback_page(self, pf: Pfdat, ctx: Optional[ProcContext] = None) -> Generator:
        """Write one dirty page to its backing store.  It is marked clean
        before the wait, so a write during the wait marks it dirty again
        (and a failed write leaves it dirty)."""
        if not pf.dirty or pf.logical_id is None:
            return None
        logical_id = pf.logical_id
        tag, idx = logical_id
        pf.dirty = False
        try:
            if tag[0] == "file":
                fs = self.filesystems.get(tag[1])
                if fs is not None:
                    inode = fs.inode(tag[2])
                    data = self.machine.memory.read_page(pf.frame)
                    yield from self._wait(
                        ctx, fs.write_page_to_disk(inode, idx, data))
            # Anonymous (and task-shared) pages go to the swap partition
            # so their contents survive the frame being reused.
            else:
                data = self.machine.memory.read_page(pf.frame)
                yield from self._wait(ctx, self.swap.swap_out(logical_id,
                                                              data))
        except BaseException:
            if pf.logical_id == logical_id:
                pf.dirty = True
            raise
        return None

    def sync_all(self, ctx: Optional[ProcContext] = None) -> Generator:
        """Write back every dirty page (used by workload epilogues)."""
        for pf in list(self.pfdats.hashed_pfdats()):
            if pf.dirty and pf.imported_from is None:
                yield from self.writeback_page(pf, ctx)
        return None

    # -- syscall: read / write ---------------------------------------------

    def sys_read(self, ctx: ProcContext, fdnum: int, nbytes: int) -> Generator:
        yield self.costs.syscall_overhead_ns
        fd = ctx.process.fd(fdnum)
        if "r" not in fd.mode and "w" != fd.mode:
            raise FileError("EBADF", "fd not open for reading")
        if fd.fs_id not in self.filesystems:
            return (yield from self.read_remote(ctx, fd, nbytes))
        fs, inode = self._fd_inode(fd)
        self._check_generation(fd, inode)
        nbytes = min(nbytes, max(0, inode.size - fd.offset))
        out = bytearray()
        while len(out) < nbytes:
            page_index = fd.offset // PAGE
            page_off = fd.offset % PAGE
            chunk = min(PAGE - page_off, nbytes - len(out))
            pf = yield from self.get_file_page(fs, inode, page_index, ctx)
            yield self._read_page_cost(chunk)
            out += self.machine.memory.read_bytes(
                pf.frame, page_off, chunk, cpu=ctx.cpu)
            fd.offset += chunk
        self.metrics.counter("file.bytes_read").add(nbytes)
        return bytes(out)

    def _read_page_cost(self, chunk: int) -> int:
        return max(1, self.costs.file_read_per_page_ns * chunk // PAGE)

    def _write_page_cost(self, chunk: int) -> int:
        return max(1, self.costs.file_write_per_page_ns * chunk // PAGE)

    def read_remote(self, ctx: ProcContext, fd: FileDescriptor,
                    nbytes: int) -> Generator:
        raise FileError("ESTALE", "remote read needs Hive")
        yield  # pragma: no cover

    def sys_write(self, ctx: ProcContext, fdnum: int, data: bytes) -> Generator:
        yield self.costs.syscall_overhead_ns
        fd = ctx.process.fd(fdnum)
        if "w" not in fd.mode:
            raise FileError("EBADF", "fd not open for writing")
        if fd.fs_id not in self.filesystems:
            return (yield from self.write_remote(ctx, fd, data))
        fs, inode = self._fd_inode(fd)
        self._check_generation(fd, inode)
        written = 0
        while written < len(data):
            page_index = fd.offset // PAGE
            page_off = fd.offset % PAGE
            chunk = min(PAGE - page_off, len(data) - written)
            # No read-before-write when nothing on disk survives it: the
            # page starts at or past EOF, or the chunk covers it from its
            # first byte to its end or to EOF.
            no_fill = page_index >= inode.npages or page_off == 0 and (
                chunk == PAGE or fd.offset + chunk >= inode.size)
            pf = yield from self.get_file_page(fs, inode, page_index, ctx,
                                               no_fill=no_fill)
            yield self._write_page_cost(chunk)
            self.machine.memory.write_bytes(
                pf.frame, page_off, data[written:written + chunk],
                cpu=ctx.cpu)
            pf.dirty = True
            fd.offset += chunk
            written += chunk
            inode.size = max(inode.size, fd.offset)
        self.metrics.counter("file.bytes_written").add(written)
        return written

    def write_remote(self, ctx: ProcContext, fd: FileDescriptor,
                     data: bytes) -> Generator:
        raise FileError("ESTALE", "remote write needs Hive")
        yield  # pragma: no cover

    # -- syscall: mmap -------------------------------------------------------

    def sys_map_file(self, ctx: ProcContext, path: str, writable: bool,
                     shared: bool) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.map_page_ns
        node = self.fs_node_for(path)
        fs = self.filesystems.get(node)
        if fs is None:
            return (yield from self.map_file_remote(
                ctx, path, writable, shared))
        inode = fs.lookup(path)
        aspace = ctx.process.aspace
        npages = max(1, inode.npages)
        region = Region(aspace.allocate_range(npages), npages,
                        FILE_REGION, writable, shared)
        region.fs_id = fs.fs_id
        region.ino = inode.ino
        region.data_home = self.kernel_id
        region.generation = inode.generation
        self.heap.alloc(region, REGION_TAG)
        aspace.add_region(region)
        return region

    def map_file_remote(self, ctx: ProcContext, path: str, writable: bool,
                        shared: bool) -> Generator:
        raise FileError("ENODEV", f"{path}: remote map needs Hive")
        yield  # pragma: no cover

    def sys_map_anon(self, ctx: ProcContext, npages: int,
                     writable: bool) -> Generator:
        yield self.costs.syscall_overhead_ns + self.costs.map_page_ns
        proc = ctx.process
        aspace = proc.aspace
        region = Region(aspace.allocate_range(npages), npages,
                        ANON_REGION, writable)
        region.cow_leaf_addr = proc.cow_leaf_addr
        region.cow_leaf_cell = proc.cow_leaf_cell
        self.heap.alloc(region, REGION_TAG)
        aspace.add_region(region)
        return region

    # -- page faults -----------------------------------------------------------

    def sys_touch(self, ctx: ProcContext, region: Region, page_index: int,
                  write: bool) -> Generator:
        """One user-level memory access to ``region[page_index]``."""
        if not 0 <= page_index < region.npages:
            raise BadAddressError(region.start_vpn + page_index)
        if write and not region.writable:
            raise BadAddressError(region.start_vpn + page_index)
        vpn = region.start_vpn + page_index
        aspace = ctx.process.aspace
        pte = aspace.lookup_pte(self.kernel_id, vpn)
        if pte is not None and (pte.writable or not write):
            # TLB/page-table hit: just the memory reference.
            addr = pte.frame * self.machine.params.page_size
            try:
                if write:
                    latency = self.machine.coherence.write(ctx.cpu, addr)
                else:
                    latency = self.machine.coherence.read(ctx.cpu, addr)
            except BusError:
                # The backing frame died (its home node failed).  Remove
                # the mapping and refault so the fault path can recheck.
                aspace.unmap_page(self.kernel_id, vpn)
                self._drop_mapping(pte)
                return (yield from self.sys_touch(
                    ctx, region, page_index, write))
            yield latency
            return pte
        pte = yield from self.fault_page(ctx, region, vpn, write)
        return pte

    def sys_touch_many(self, ctx: ProcContext, region: Region,
                       start_index: int, count: Optional[int],
                       write: bool) -> Generator:
        """Touch ``count`` consecutive pages starting at ``start_index``
        (all pages from there on when ``count`` is None), one
        :meth:`sys_touch` each.  Returns the page-table entries
        touched."""
        if count is None:
            count = region.npages - start_index
        ptes: List[Pte] = []
        for idx in range(start_index, start_index + count):
            ptes.append((yield from self.sys_touch(ctx, region, idx, write)))
        return ptes

    def fault_page(self, ctx: ProcContext, region: Region, vpn: int,
                   write: bool) -> Generator:
        """The page-fault path (local kernel: everything is local)."""
        self.metrics.counter("faults").add()
        yield self.costs.local_fault_ns
        if region.kind == FILE_REGION:
            pte = yield from self._fault_file_local(ctx, region, vpn, write)
        else:
            pte = yield from self._fault_anon(ctx, region, vpn, write)
        return pte

    def _fault_file_local(self, ctx: ProcContext, region: Region, vpn: int,
                          write: bool) -> Generator:
        fs = self.filesystems[region.fs_id]
        inode = fs.inode(region.ino)
        if region.generation != inode.generation:
            raise StaleGenerationError(inode.path, region.generation,
                                       inode.generation)
        pf = yield from self.get_file_page(
            fs, inode, region.file_page_index(vpn), ctx)
        if write:
            pf.dirty = True
        return self._map(ctx, region, vpn, pf, write,
                         data_home=self.kernel_id)

    def _fault_anon(self, ctx: ProcContext, region: Region, vpn: int,
                    write: bool) -> Generator:
        """COW fault: map the page recorded at the nearest node of the
        leaf's ancestry, breaking COW on a write to an ancestor's page."""
        self.publish_phase("cow_search")
        page_index = vpn - region.start_vpn
        leaf = self.cow.resolve(region.cow_leaf_addr)
        if leaf is None:
            self.panic(
                f"corrupt COW leaf pointer {region.cow_leaf_addr:#x} in "
                f"address map of pid {ctx.process.pid}"
            )
            raise ProcessKilled(ctx.process.pid, "cell panic")
        owner = yield from self._cow_search(ctx, leaf, page_index)
        if owner is None:
            # First touch anywhere in the ancestry: zero-fill at the leaf
            # (or restore from swap if the clock hand evicted it).
            pf = yield from self._find_or_fill(
                (leaf.anon_tag(), page_index), ctx)
            self.cow.record_page(leaf, page_index)
            pf.dirty = True
            return self._map(ctx, region, vpn, pf, region.writable,
                             data_home=self.kernel_id)
        if owner.owner_cell != self.kernel_id:
            # Only a Hive cell's search leaves the cell (SharingMixin).
            src = yield from self._import_anon_page(ctx, owner, page_index)
        else:
            # In cache, or swapped out by the clock hand, or
            # (never-written corner) zero.
            logical_id = (owner.anon_tag(), page_index)
            src = yield from self._find_or_fill(logical_id, ctx)
            if logical_id in self.poisoned_anon:
                raise ProcessKilled(ctx.process.pid,
                                    "anonymous page was discarded")
        if write and owner is not leaf:
            # Copy-on-write break: private copy recorded at the leaf.
            pf = yield from self._find_or_fill(
                (leaf.anon_tag(), page_index), ctx, copy_of=src)
            self.cow.record_page(leaf, page_index)
            pf.dirty = True
            if src.refcount == 0 and src.imported_from is not None:
                # An import nothing maps any more goes back to its home.
                self.drop_frame(src)
            return self._map(ctx, region, vpn, pf, True,
                             data_home=self.kernel_id)
        if write:
            src.dirty = True
        return self._map(ctx, region, vpn, src, write,
                         data_home=owner.owner_cell)

    def _cow_search(self, ctx: ProcContext, leaf: CowNode,
                    page_index: int) -> Generator:
        """The COW node nearest ``leaf`` that records the page, or None.

        A single kernel's tree never leaves it; a Hive cell's walk
        crosses cells (``SharingMixin._cow_search``).
        """
        for node in self.cow.local_ancestry(leaf):
            yield self.costs.cow_tree_hop_ns
            if page_index in node.pages:
                return node
        return None

    def _map(self, ctx: ProcContext, region: Region, vpn: int, pf: Pfdat,
             writable: bool, data_home: int) -> Pte:
        pte = Pte(frame=pf.frame, writable=writable, pfdat=pf,
                  data_home=data_home)
        existing = ctx.process.aspace.lookup_pte(self.kernel_id, vpn)
        if existing is not None:
            self._drop_mapping(existing)
        ctx.process.aspace.map_page(self.kernel_id, vpn, pte)
        pf.refcount += 1
        return pte

    # -- introspection -----------------------------------------------------

    def warm_file(self, path: str) -> Generator:
        """Pull a whole file into the page cache (benchmark warm-up)."""
        fs = self.local_fs_for(path)
        if fs is None:
            raise FileError("ENODEV", f"{path} is not local")
        inode = fs.lookup(path)
        for idx in range(inode.npages):
            yield from self.get_file_page(fs, inode, idx)
        return None

    def live_process_count(self) -> int:
        return sum(1 for p in self.processes.values() if not p.exited)
