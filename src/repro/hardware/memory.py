"""Physical memory: page-frame storage plus the memory fault model.

The physical address space is the concatenation of the node memories
(Figure 3.1 of the paper: "Each cell controls a portion of the global
physical address space").  Frame numbers are global; frame ``f`` is homed
on node ``f // pages_per_node``.

Page contents are real bytes so the evaluation can do what the paper did:
compare every file written by a workload against a reference copy after a
fault-injection run to check for silent corruption.  Pages are stored
sparsely; untouched frames read as zeros.

The fault model (Section 2) is implemented here:

* accesses to the memory of a **failed node** raise :class:`BusError`
  rather than stalling forever;
* writes are checked against the node's **firewall** and raise
  :class:`FirewallViolation` (a bus error) when rejected;
* a node whose **memory cutoff** is engaged refuses all remote accesses —
  the cell panic path uses this to stop exporting potentially corrupt
  data (Table 8.1);
* only nodes *authorized by the firewall* can damage a line: on node
  failure, the set of potentially lost data is bounded (the recovery code
  relies on this to know what can be trusted).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.errors import BusError, InvalidPhysicalAddress
from repro.hardware.firewall import NodeFirewall
from repro.hardware.params import HardwareParams

ZERO_PAGE = b"\x00" * 4096


class PhysicalMemory:
    """All of main memory, with per-node failure state and firewalls."""

    __slots__ = (
        "params", "firewall_enabled", "firewalls", "_pages",
        "_total_pages", "_pages_per_node", "_cpus_per_node", "_any_faults",
        "_node_state", "fault_gen", "_zero",
    )

    def __init__(self, params: HardwareParams,
                 firewall_factory=NodeFirewall,
                 firewall_enabled: bool = True):
        self.params = params
        self.firewall_enabled = firewall_enabled
        self.firewalls: List[NodeFirewall] = [
            firewall_factory(params, node) for node in range(params.num_nodes)
        ]
        self._pages: Dict[int, bytes] = {}
        # Hot-path scalars: the dataclass properties behind these
        # recompute on every access, and the access-check path runs on
        # every simulated memory reference.
        self._total_pages = params.total_pages
        self._pages_per_node = params.pages_per_node
        self._cpus_per_node = params.cpus_per_node
        #: False while no node is failed or cut off (``any(_node_state)``)
        #: — the coherence fast path checks this one flag per access.
        self._any_faults = False
        #: monotone fault-topology generation: bumps on every node
        #: fail/revive/cutoff transition, so the parked chains' peek
        #: caches, keyed on (fault_gen, home-node directory
        #: generations), stay sound across runs where a failed node
        #: lingers in the topology.
        self.fault_gen = 0
        #: per-node fault state (0 healthy, 1 failed, 2 cutoff), the one
        #: record of it.  A failed node that is also cut off stays 1:
        #: failure takes precedence, and only a revive clears either.
        self._node_state = [0] * params.num_nodes
        if params.page_size != len(ZERO_PAGE):
            self._zero = b"\x00" * params.page_size
        else:
            self._zero = ZERO_PAGE

    # -- failure state -------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Fail-stop the memory of ``node`` (node halt or range failure)."""
        self._any_faults = True
        self._node_state[node] = 1
        self.fault_gen += 1

    def revive_node(self, node: int) -> None:
        """Bring a node's memory back after diagnostics pass (reintegration).

        The contents are cleared — the paper's recovery model treats the
        failed node's data as lost — and the firewall resets to local-only.
        """
        self._node_state[node] = 0
        self._any_faults = any(self._node_state)
        self.fault_gen += 1
        self.firewalls[node].reset()
        # Clear the node's resident pages: one scan of the sparse page
        # map, not a probe of all ``pages_per_node`` frames.
        frames = self.params.node_frame_range(node)
        for frame in [f for f in self._pages if f in frames]:
            del self._pages[frame]

    def node_failed(self, node: int) -> bool:
        return self._node_state[node] == 1

    def engage_cutoff(self, node: int) -> None:
        """Cut off all *remote* access to this node's memory (cell panic)."""
        self._any_faults = True
        self.fault_gen += 1
        # A node can be both failed and cut off; failed takes precedence.
        if self._node_state[node] == 0:
            self._node_state[node] = 2

    # -- access checks ---------------------------------------------------

    def _home_node(self, frame: int) -> int:
        if not 0 <= frame < self._total_pages:
            raise InvalidPhysicalAddress(frame * self.params.page_size)
        return frame // self._pages_per_node

    def _check_readable(self, frame: int, reader_cpu: Optional[int]) -> int:
        if not 0 <= frame < self._total_pages:
            raise InvalidPhysicalAddress(frame * self.params.page_size)
        home = frame // self._pages_per_node
        # Fast path: a healthy machine has no failed/cutoff nodes.
        if not self._any_faults:
            return home
        state = self._node_state[home]
        if state == 0:
            return home
        if state == 1:
            raise BusError(
                f"read of frame {frame}: node {home} failed",
                addr=frame * self.params.page_size, node=home,
            )
        if reader_cpu is not None:
            reader_node = reader_cpu // self._cpus_per_node
            if reader_node != home:
                raise BusError(
                    f"read of frame {frame}: node {home} cutoff engaged",
                    addr=frame * self.params.page_size, node=home,
                )
        return home

    def _check_writable(self, frame: int, writer_cpu: Optional[int]) -> int:
        home = self._check_readable(frame, writer_cpu)
        if writer_cpu is not None:
            writer_node = writer_cpu // self._cpus_per_node
            if self._node_state[writer_node] == 1:
                raise BusError(
                    f"write by cpu {writer_cpu}: its node has failed",
                    node=writer_node,
                )
            if self.firewall_enabled:
                self.firewalls[home].check_write(frame, writer_cpu)
        return home

    # -- data access -------------------------------------------------------
    #
    # ``cpu=None`` marks accesses by the simulation harness itself (e.g.
    # the post-run file comparison) which bypass permission checks but not
    # failure checks.

    def read_page(self, frame: int, cpu: Optional[int] = None) -> bytes:
        self._check_readable(frame, cpu)
        return self._pages.get(frame, self._zero)

    def write_page(self, frame: int, data: bytes, cpu: Optional[int] = None) -> None:
        if len(data) != self.params.page_size:
            raise ValueError(
                f"page write must be exactly {self.params.page_size} bytes"
            )
        self._check_writable(frame, cpu)
        if data == self._zero:
            self._pages.pop(frame, None)
        else:
            self._pages[frame] = bytes(data)

    def write_bytes(self, frame: int, offset: int, data: bytes,
                    cpu: Optional[int] = None) -> None:
        """Sub-page write (the granularity at which wild writes strike)."""
        if offset < 0 or offset + len(data) > self.params.page_size:
            raise ValueError("sub-page write out of bounds")
        self._check_writable(frame, cpu)
        page = bytearray(self._pages.get(frame, self._zero))
        page[offset:offset + len(data)] = data
        self._pages[frame] = bytes(page)

    def read_bytes(self, frame: int, offset: int, length: int,
                   cpu: Optional[int] = None) -> bytes:
        if offset < 0 or offset + length > self.params.page_size:
            raise ValueError("sub-page read out of bounds")
        self._check_readable(frame, cpu)
        return self._pages.get(frame, self._zero)[offset:offset + length]

    def zero_page(self, frame: int, cpu: Optional[int] = None) -> None:
        self._check_writable(frame, cpu)
        self._pages.pop(frame, None)

    # -- firewall convenience ----------------------------------------------

    def firewall_for_frame(self, frame: int) -> NodeFirewall:
        return self.firewalls[self._home_node(frame)]

    def write_allowed(self, frame: int, cpu: int) -> bool:
        """Would a write succeed?  (No latency, no side effects.)"""
        home = self._home_node(frame)
        if self._node_state[home] == 1:
            return False
        if not self.firewall_enabled:
            return True
        return self.firewalls[home].allows(frame, cpu)

    def frames_writable_by_node(self, writer_node: int) -> List[int]:
        """All frames (on live nodes) writable by CPUs of ``writer_node``.

        Used by tests and benchmarks to audit firewall state; the OS-level
        preemptive discard does *not* use this global view — it must work
        from each cell's own records (Section 4.2).
        """
        out: List[int] = []
        cpu0 = writer_node * self.params.cpus_per_node
        for node in range(self.params.num_nodes):
            if node == writer_node or self._node_state[node] == 1:
                continue
            for frame in self.firewalls[node].remote_writable_frames():
                if self.firewalls[node].allows(frame, cpu0):
                    out.append(frame)
        return out
