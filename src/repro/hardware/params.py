"""Hardware latency and geometry parameters.

Values are taken from Section 7.2 of the paper wherever it states them;
the remainder (marked *derived*) are chosen so that composed operation
latencies land on the paper's measured figures (e.g. the 1.16 us careful
reference round trip and the 7.2 us null RPC).

All times are integer nanoseconds; all sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


@dataclass
class HardwareParams:
    """Tunable description of the simulated FLASH machine."""

    # -- geometry ----------------------------------------------------
    num_nodes: int = 4
    cpus_per_node: int = 1
    memory_per_node: int = 32 * 1024 * 1024  # 32 MB (Section 7.2)
    page_size: int = 4096                    # firewall granularity (4.2)
    cache_line_size: int = 128               # secondary cache line
    firewall_bits: int = 64                  # write-permission vector width

    # -- processor ---------------------------------------------------
    #: 200 MHz, one instruction per cycle when not stalled (Section 7.2)
    ns_per_cycle: float = 5.0

    # -- memory ------------------------------------------------------
    mem_latency_ns: int = 700    # fixed FLASH average miss latency
    #: extra coherence-controller latency for a firewall permission check
    #: on a remote ownership request.  Derived: the paper measured a 4.4 to
    #: 6.3 percent increase in average remote *write* miss latency, i.e.
    #: about 31-44 ns on the 700 ns miss.
    firewall_check_ns: int = 40
    #: latency to flip firewall bits via uncached writes to the coherence
    #: controller (Section 7.2 models a status change as uncached writes).
    firewall_update_ns: int = 200
    #: extra cost when *revoking* write permission: the controller must
    #: ensure all pending valid writebacks have been delivered.  FLASH had
    #: not finalized this; we model a conservative network round trip.
    firewall_revoke_extra_ns: int = 1_400

    # -- interconnect ------------------------------------------------
    ipi_latency_ns: int = 700    # interprocessor interrupt delivery
    sips_extra_ns: int = 300     # SIPS data available IPI + 300 ns
    sips_payload: int = 128      # one cache line per SIPS message
    sips_queue_depth: int = 16   # short receive queues per node (derived)
    mesh_hop_ns: int = 50        # per-hop component of remote access (derived)

    # -- disk (HP 97560, from Kotz et al. model) -----------------------
    disk_rpm: int = 4002
    disk_sectors_per_track: int = 72
    disk_sector_size: int = 512
    disk_cylinders: int = 1962
    disk_tracks_per_cylinder: int = 19
    disk_seek_base_ns: int = 2_500_000    # short-seek constant ~2.5 ms
    disk_seek_per_cyl_ns: int = 8_000     # long-seek slope
    disk_head_switch_ns: int = 1_600_000
    disk_controller_overhead_ns: int = 1_100_000
    disk_transfer_ns_per_byte: float = 434.0 / 512 * 1000  # ~2.3 MB/s media rate
    dma_occupancy_ns_per_byte: float = 0.08  # memory controller occupancy

    # -- derived helpers ----------------------------------------------
    def cycles(self, n: float) -> int:
        """Latency of n CPU cycles in ns."""
        return int(round(n * self.ns_per_cycle))

    @property
    def total_memory(self) -> int:
        return self.num_nodes * self.memory_per_node

    @property
    def pages_per_node(self) -> int:
        return self.memory_per_node // self.page_size

    @property
    def total_pages(self) -> int:
        return self.num_nodes * self.pages_per_node

    @property
    def total_cpus(self) -> int:
        return self.num_nodes * self.cpus_per_node

    def node_of_frame(self, frame: int) -> int:
        """Home node of a physical page frame number."""
        if not 0 <= frame < self.total_pages:
            raise ValueError(f"frame {frame} out of range")
        return frame // self.pages_per_node

    def frame_of_addr(self, addr: int) -> int:
        return addr // self.page_size

    def node_frame_range(self, node: int) -> range:
        base = node * self.pages_per_node
        return range(base, base + self.pages_per_node)

    def sips_latency_ns(self) -> int:
        """End-to-end SIPS delivery: IPI plus data-access penalty."""
        return self.ipi_latency_ns + self.sips_extra_ns

    def min_intercell_latency_ns(self) -> int:
        """The fastest any hardware operation crosses a cell boundary.

        The floor the intercell channel recorder (``sim/channels.py``)
        and the RPC bench hold every op to: no intercell channel op —
        remote miss, SIPS delivery, or firewall flip — can take effect
        in another cell sooner than this.  Derived, never hard-coded:
        the minimum of the remote-miss latency, the end-to-end SIPS
        delivery, and the firewall status-change cost.
        """
        return min(self.mem_latency_ns, self.sips_latency_ns(),
                   self.firewall_update_ns)

    # -- validation ---------------------------------------------------
    def validate(self) -> "HardwareParams":
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.memory_per_node % self.page_size:
            raise ValueError("node memory must be page aligned")
        if self.page_size % self.cache_line_size:
            raise ValueError("page size must be a line multiple")
        if self.num_nodes > self.firewall_bits * self.cpus_per_node:
            # On machines above 64 processors each firewall bit covers a
            # group of processors (Section 4.2); we support that but the
            # default config never needs it.
            pass
        return self


DEFAULT_PARAMS = HardwareParams()
