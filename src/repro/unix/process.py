"""Processes, threads, file descriptors, process groups, and signals.

The process abstraction follows SVR4: a process has an address space, a
file-descriptor table, a parent, a process group, and one or more threads
(sprocs, in IRIX terms).  Hive extends the abstraction across cells
(Section 3.2): a *spanning task* groups component processes on several
cells that share one address space; sequential processes can migrate.
The cross-cell machinery lives in :mod:`repro.core`; this module provides
the per-cell state it composes.

Signals are delivered at syscall boundaries (the classic UNIX model);
SIGKILL additionally interrupts a blocked thread immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.unix.address_space import AddressSpace
from repro.unix.errors import ProcessKilled
from repro.unix.kheap import KObject

SIGKILL = 9
SIGTERM = 15
SIGCHLD = 18
SIGUSR1 = 16


@dataclass
class FileDescriptor:
    """An open file handle.

    ``generation`` is copied from the file at open time; a mismatch after
    a discard produces :class:`~repro.unix.errors.StaleGenerationError`
    (Section 4.2).  ``imported_pfdats`` tracks remote pages imported on
    behalf of this descriptor's read()/write() traffic; they are released
    (and any write grants revoked) when the descriptor closes.
    """

    fd: int
    fs_id: int
    ino: int
    data_home: int
    mode: str            # "r", "w", or "rw"
    offset: int = 0
    generation: int = 0
    imported_pfdats: List[Any] = field(default_factory=list)


PROC_TAG = "proc"


class Process(KObject):
    """One process, resident on one cell."""

    def __init__(self, pid: int, cell_id: int, aspace: AddressSpace,
                 name: str = "proc", parent: Optional["Process"] = None):
        super().__init__()
        self.pid = pid
        self.cell_id = cell_id
        self.name = name
        self.aspace = aspace
        self.parent = parent
        self.children: List[Process] = []
        self.pgid = parent.pgid if parent else pid
        self.fds: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0/1/2 reserved for std streams
        self.threads: List["Thread"] = []
        self.exited = False
        self.exit_status: Optional[int] = None
        self.zombie = False
        self.pending_signals: List[int] = []
        #: spanning-task id if this is a component of one, else None
        self.task_id: Optional[int] = None
        #: cow leaf address for the anonymous regions created by this
        #: process (mirrors the leaf recorded in its anon regions).
        self.cow_leaf_addr = 0
        self.cow_leaf_cell = cell_id
        #: set of (cell_id) this process has page dependencies on;
        #: maintained by the sharing layer for the Section 5.6 analysis.
        self.dependencies: Set[int] = {cell_id}

    # -- file descriptors ---------------------------------------------

    def install_fd(self, fs_id: int, ino: int, data_home: int, mode: str,
                   generation: int) -> FileDescriptor:
        fd = FileDescriptor(
            fd=self._next_fd, fs_id=fs_id, ino=ino, data_home=data_home,
            mode=mode, generation=generation,
        )
        self._next_fd += 1
        self.fds[fd.fd] = fd
        return fd

    def fd(self, fdnum: int) -> FileDescriptor:
        fd = self.fds.get(fdnum)
        if fd is None:
            raise KeyError(f"bad file descriptor {fdnum} in pid {self.pid}")
        return fd

    def close_fd(self, fdnum: int) -> FileDescriptor:
        return self.fds.pop(fdnum)

    # -- signals ----------------------------------------------------------

    def post_signal(self, sig: int) -> None:
        self.pending_signals.append(sig)
        if sig == SIGKILL:
            for thread in list(self.threads):
                thread.kill(f"SIGKILL to pid {self.pid}")


class Thread:
    """One thread of control, executed as a simulation coroutine."""

    _next_tid = 1

    def __init__(self, process: Process, name: str = ""):
        self.tid = Thread._next_tid
        Thread._next_tid += 1
        self.process = process
        self.name = name or f"{process.name}.t{self.tid}"
        process.threads.append(self)
        #: the repro.sim Process driving this thread (set by the kernel)
        self.sim_process = None
        #: current CPU while running, else None
        self.cpu: Optional[int] = None
        self.killed = False
        self.kill_reason = ""

    def kill(self, reason: str) -> None:
        """Terminate the thread, interrupting it if blocked."""
        if self.killed:
            return
        self.killed = True
        self.kill_reason = reason
        if self.sim_process is not None and self.sim_process.is_alive:
            self.sim_process.interrupt(
                ProcessKilled(self.process.pid, reason)
            )

    def check_killed(self) -> None:
        if self.killed:
            raise ProcessKilled(self.process.pid, self.kill_reason)
