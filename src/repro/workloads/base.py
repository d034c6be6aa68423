"""Workload infrastructure: the platform adapter and result records.

A :class:`Platform` hides whether the workload runs on the IRIX baseline
(one :class:`LocalKernel` owning the machine) or a Hive configuration
(1/2/4 cells): workloads ask for "a kernel to place job *i* on" and the
adapter round-robins across cells, matching how the paper's workloads
spread over the machine.

Deterministic file contents let every run be verified: each output file's
bytes derive from its path, so the harness can diff what a workload wrote
against the expected pattern after a fault-injection run (the paper's
"compared to reference copies" check).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.hive import HiveSystem
from repro.hardware.errors import HardwareError
from repro.unix.fs import PAGE
from repro.unix.kernel import LocalKernel


def pattern_bytes(path: str, length: int) -> bytes:
    """Deterministic file contents derived from the path."""
    seed = hashlib.sha256(path.encode()).digest()
    reps = (length + len(seed) - 1) // len(seed)
    return (seed * reps)[:length]


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    started_ns: int
    finished_ns: int
    jobs_completed: int = 0
    jobs_failed: int = 0
    details: Dict[str, float] = field(default_factory=dict)
    output_errors: List[str] = field(default_factory=list)

    @property
    def elapsed_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1e9

    @property
    def outputs_ok(self) -> bool:
        return not self.output_errors


class Platform:
    """Adapter over IRIX (LocalKernel) or Hive (HiveSystem)."""

    def __init__(self, target: Union[LocalKernel, HiveSystem]):
        self.target = target
        if isinstance(target, HiveSystem):
            self.is_hive = True
            self.kernels = [target.cell(c)
                            for c in target.registry.all_cell_ids()]
            self.sim = target.sim
            self.machine = target.machine
        else:
            self.is_hive = False
            self.kernels = [target]
            self.sim = target.sim
            self.machine = target.machine

    @property
    def num_placements(self) -> int:
        """How many distinct placement domains jobs spread over."""
        return len(self.kernels)

    def kernel_for(self, index: int) -> LocalKernel:
        """Placement domain for job ``index`` (skips failed cells)."""
        preferred = self.kernels[index % len(self.kernels)]
        if preferred.alive:
            return preferred
        live = self.live_kernels()
        if not live:
            raise RuntimeError("no live kernels")
        return live[index % len(live)]

    def live_kernels(self) -> List[LocalKernel]:
        return [k for k in self.kernels if k.alive]

    def spawn_init(self, index: int, program, name: str):
        kernel = self.kernel_for(index)
        proc = kernel.create_process(name)
        thread = kernel.start_thread(proc, program)
        return proc, thread

    def run_driver(self, thread, deadline_ns: int, box: dict,
                   name: str) -> bool:
        """Run until a workload's driver thread ends or ``deadline_ns``.

        A driver that finishes records ``box["finished_ns"]``.  One still
        running at the deadline is a :class:`TimeoutError`; one that died
        first (out of memory) ends the run now: its end time is recorded
        and True returned, so the caller counts every job the driver did
        not see finish as failed.
        """
        self.sim.run_until_event(thread.sim_process, deadline=deadline_ns)
        if "finished_ns" in box:
            return False
        if thread.sim_process.is_alive:
            raise TimeoutError(f"{name} still running at {self.sim.now}")
        box["finished_ns"] = self.sim.now
        return True

    # -- placement-aware helpers ------------------------------------------

    def fs_owner_kernel(self, path: str) -> Optional[LocalKernel]:
        """The kernel serving a path (None if its cell is down)."""
        node = self.kernels[0].namespace.node_for(path)
        for kernel in self.kernels:
            if node in kernel.filesystems:
                return kernel if kernel.alive else None
        return None

    # -- output verification ---------------------------------------------------

    def verify_file(self, path: str, expected: bytes) -> List[str]:
        """Compare a file's bytes (page cache view + platter) to expected.

        Reads through the owning kernel's page cache first — what a
        process would see — falling back to the platter.  Used for the
        paper's post-run reference-copy comparison.
        """
        errors: List[str] = []
        kernel = self.fs_owner_kernel(path)
        if kernel is None:
            errors.append(f"{path}: file system unavailable (cell down)")
            return errors
        fs = kernel.local_fs_for(path)
        try:
            inode = fs.lookup(path)
        except Exception as exc:
            errors.append(f"{path}: {exc}")
            return errors
        if inode.size != len(expected):
            errors.append(
                f"{path}: size {inode.size} != expected {len(expected)}")
            return errors
        tag = ("file", fs.fs_id, inode.ino)
        memory = kernel.machine.memory
        for idx in range(inode.npages):
            # The resident page if it reads (its home may have failed),
            # else the platter copy.
            data = None
            pf = kernel.pfdats.lookup((tag, idx))
            if pf is not None and pf.valid:
                try:
                    data = memory.read_page(pf.frame)
                except HardwareError:
                    pass
            if data is None:
                data = fs.peek_disk_page(inode, idx)
            want = expected[idx * PAGE:(idx + 1) * PAGE]
            want = want + b"\x00" * (PAGE - len(want))
            if data != want:
                errors.append(f"{path}: page {idx} content mismatch")
        return errors
