"""The FLASH firewall: per-page write-permission bit-vectors.

Section 4.2 of the paper: "FLASH provides a separate firewall for each 4 KB
of memory, specified as a 64-bit vector where each bit grants write
permission to a processor. ... A write request to a page for which the
corresponding bit is not set fails with a bus error.  Only the local
processor can change the firewall bits for the memory of its node."

The firewall state for a node's memory lives in that node's coherence
controller, so it shares the fate of the node: when a node fails its
firewall state is unreachable, which is why preemptive discard cannot rely
on reading it after a failure (Section 4.2, "only one cell knows the
precise firewall status of that page").

This module also implements the two *rejected* design alternatives from
Section 4.2 — a single global-write bit per page, and a single processor
id per page — so the ablation benchmark can quantify why the bit-vector
was chosen.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.hardware.errors import FirewallViolation
from repro.hardware.params import HardwareParams


class NodeFirewall:
    """Firewall bit-vectors for the pages homed on one node.

    One instance per node, owned by that node's coherence controller.
    Permission vectors default to *local-only*: at reset, each page is
    writable by the processors of its home node and nobody else.
    """

    __slots__ = (
        "params", "node_id", "frames", "_cpu_group", "_local_mask",
        "_default_mask", "_vectors", "_remote_writable", "checks",
        "violations", "updates", "__dict__",
    )

    def __init__(self, params: HardwareParams, node_id: int):
        self.params = params
        self.node_id = node_id
        self.frames = params.node_frame_range(node_id)
        # CPU -> firewall bit is ``cpu // _cpu_group`` (Section 4.2's
        # grouping on machines wider than the vector).
        total, bits = params.total_cpus, params.firewall_bits
        self._cpu_group = 1 if total <= bits else (total + bits - 1) // bits
        self._local_mask = self._mask_for_node(node_id)
        #: reset value for pages with no explicit vector.  Starts as
        #: local-node-only; the owning kernel widens it at boot to cover
        #: every processor of its cell (all of a cell's CPUs may write
        #: the cell's own memory — the firewall defends *cell* borders).
        self._default_mask = self._local_mask
        # Sparse map frame -> bit vector; missing entries hold the
        # default.  Kept sparse because almost all pages are never
        # shared outside the cell.
        self._vectors: Dict[int, int] = {}
        # Index of frames whose vector reaches beyond the default mask,
        # in ``_vectors`` insertion order (a dict used as an ordered
        # set).  Maintained incrementally by ``_update`` so
        # ``remote_writable_frames`` is O(result), not O(#vectors).
        self._remote_writable: Dict[int, None] = {}
        self.checks = 0
        self.violations = 0
        self.updates = 0

    def set_default_mask_for_nodes(self, nodes, requester_node: int) -> None:
        """Boot-time configuration by the owning kernel: every processor
        of the given nodes (the cell) may write this node's pages."""
        if requester_node != self.node_id:
            raise PermissionError(
                "only the local processor configures its firewall")
        mask = self._local_mask
        for node in nodes:
            mask |= self._mask_for_node(node)
        self._default_mask = mask
        # The default defines what counts as "remote": rebuild the index
        # (boot-time only; the vector map is normally empty here).
        self._remote_writable = {
            frame: None for frame, vec in self._vectors.items()
            if vec & ~mask
        }

    # -- bit arithmetic ------------------------------------------------

    def _bit_for_cpu(self, cpu: int) -> int:
        # On machines larger than the vector width, each bit covers a
        # group of processors (Section 4.2).
        return cpu // self._cpu_group

    def _mask_for_node(self, node: int) -> int:
        mask = 0
        for local in range(self.params.cpus_per_node):
            cpu = node * self.params.cpus_per_node + local
            mask |= 1 << self._bit_for_cpu(cpu)
        return mask

    # -- queries --------------------------------------------------------

    def _check_frame(self, frame: int) -> None:
        if frame not in self.frames:
            raise ValueError(
                f"frame {frame} is not homed on node {self.node_id}"
            )

    def vector(self, frame: int) -> int:
        self._check_frame(frame)
        return self._vectors.get(frame, self._default_mask)

    def allows(self, frame: int, writer_cpu: int) -> bool:
        """Permission check performed on each ownership request."""
        self.checks += 1
        if frame not in self.frames:
            raise ValueError(
                f"frame {frame} is not homed on node {self.node_id}"
            )
        vec = self._vectors.get(frame, self._default_mask)
        return bool(vec & (1 << (writer_cpu // self._cpu_group)))

    def check_write(self, frame: int, writer_cpu: int) -> None:
        """Raise :class:`FirewallViolation` if the write is not permitted."""
        if not self.allows(frame, writer_cpu):
            self.violations += 1
            raise FirewallViolation(frame, writer_cpu)

    def remote_writable_frames(self) -> List[int]:
        """Frames whose vector grants write access beyond the owning cell.

        O(result): read straight off the incrementally-maintained index
        (same order as the old full scan of ``_vectors``).
        """
        return list(self._remote_writable)

    # -- updates (local processor only) ----------------------------------

    def _check_requester(self, requester_node: int) -> None:
        if requester_node != self.node_id:
            raise PermissionError(
                "only the local processor can change firewall bits "
                f"(node {requester_node} tried to update node {self.node_id})"
            )

    def _update(self, frame: int, requester_node: int, new_vector: int) -> None:
        self._check_requester(requester_node)
        self._check_frame(frame)
        self.updates += 1
        if new_vector == self._default_mask:
            self._vectors.pop(frame, None)
            self._remote_writable.pop(frame, None)
        else:
            self._vectors[frame] = new_vector
            if new_vector & ~self._default_mask:
                if frame not in self._remote_writable:
                    self._remote_writable[frame] = None
            else:
                self._remote_writable.pop(frame, None)

    def grant_node(self, frame: int, requester_node: int, grantee_node: int) -> None:
        """Grant write permission to every processor of ``grantee_node``.

        Hive's management policy grants access "to all processors of a cell
        as a group" so the cell can reschedule freely (Section 4.2); cells
        are node-aligned, so node-granularity grants compose into cell
        grants at the OS layer.
        """
        vec = self.vector(frame) | self._mask_for_node(grantee_node)
        self._update(frame, requester_node, vec)

    def revoke_node(self, frame: int, requester_node: int, revokee_node: int) -> None:
        vec = self.vector(frame) & ~self._mask_for_node(revokee_node)
        vec |= self._default_mask  # the owning cell always retains access
        self._update(frame, requester_node, vec)

    def revoke_all_remote(self, frames: Iterable[int],
                          requester_node: int) -> None:
        """Return every frame of ``frames`` to the default vector.

        All-or-nothing: the requester and every frame are checked
        before any vector changes.
        """
        self._check_requester(requester_node)
        frames = list(frames)
        for frame in frames:
            self._check_frame(frame)
        vectors = self._vectors
        remote = self._remote_writable
        for frame in frames:
            vectors.pop(frame, None)
            remote.pop(frame, None)
        self.updates += len(frames)

    def reset(self) -> None:
        """Return every page to the default vector (used on node reboot);
        the default itself returns to local-only until a kernel boots."""
        self._vectors.clear()
        self._remote_writable.clear()
        self._default_mask = self._local_mask


class SingleBitFirewall(NodeFirewall):
    """Rejected alternative: one *global write* bit per page.

    "A single bit per page, granting global write access, would provide no
    fault containment for processes that use any remote memory"
    (Section 4.2).  Granting any remote node makes the page writable by
    *everyone*; the ablation benchmark measures the blast radius this
    causes under preemptive discard.
    """

    def grant_node(self, frame: int, requester_node: int, grantee_node: int) -> None:
        if grantee_node == self.node_id:
            return
        all_mask = (1 << self.params.firewall_bits) - 1
        self._update(frame, requester_node, all_mask)

    def revoke_node(self, frame: int, requester_node: int, revokee_node: int) -> None:
        # With one bit there is no per-node revocation: permission returns
        # to local-only wholesale.
        self._update(frame, requester_node, self._local_mask)


class SingleProcessorFirewall(NodeFirewall):
    """Rejected alternative: a single processor id per page.

    "A byte or halfword per page, naming a processor with write access,
    would prevent the scheduler in each cell from balancing the load on
    its processors" (Section 4.2).  We model it as: a grant names exactly
    one remote *processor*; a second grant overwrites the first.  The
    ablation benchmark counts the forced firewall updates this creates
    when a cell reschedules a writing process onto another CPU.
    """

    def grant_cpu(self, frame: int, requester_node: int, grantee_cpu: int) -> None:
        vec = self._local_mask | (1 << self._bit_for_cpu(grantee_cpu))
        self._update(frame, requester_node, vec)

    def grant_node(self, frame: int, requester_node: int, grantee_node: int) -> None:
        # Node-wide grants are impossible; grant the node's first CPU and
        # let the OS discover the restriction.
        first_cpu = grantee_node * self.params.cpus_per_node
        self.grant_cpu(frame, requester_node, first_cpu)
