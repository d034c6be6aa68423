"""HP 97560 disk model (per Kotz, Toh, and Radhakrishnan, 1994).

The paper computes disk latency "for each access using an experimentally-
validated model of an HP 97560 disk drive" and models "both DMA latency and
the memory controller occupancy required to transfer data from the disk
controller to main memory" (Section 7.2).

This module implements the standard published shape of that model:

* seek time: a square-root-ish short-seek region approximated by a base
  constant, plus a linear long-seek slope per cylinder;
* rotational delay: uniform in [0, one revolution), drawn deterministically
  from a named random stream;
* media transfer at the track rate, plus head/track switch costs;
* fixed controller overhead per request;
* DMA occupancy charged per byte moved to memory.

Requests on one spindle are serviced in FIFO order through a single-server
queue, so queueing delay emerges naturally under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hardware.params import HardwareParams, NS_PER_SEC
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams
from repro.sim.stats import Timer


@dataclass
class DiskRequest:
    block: int
    nbytes: int
    is_write: bool


class Disk:
    """One disk spindle attached to one node's I/O controller."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 rng: RandomStreams, node_id: int, disk_id: int = 0):
        self.sim = sim
        self.params = params
        self.rng = rng
        self.node_id = node_id
        self.name = f"disk{node_id}.{disk_id}"
        self._arm = Resource(sim, capacity=1, name=f"{self.name}.arm")
        self._head_cylinder = 0
        self.service_time = Timer(f"{self.name}.service")
        self.requests = 0
        self.bytes_moved = 0
        blocks_per_cyl = (params.disk_sectors_per_track
                          * params.disk_tracks_per_cylinder)
        self._blocks_per_cylinder = blocks_per_cyl
        self.capacity_blocks = params.disk_cylinders * blocks_per_cyl

    # -- latency model --------------------------------------------------

    def _cylinder_of(self, block: int) -> int:
        return (block // self._blocks_per_cylinder) % self.params.disk_cylinders

    def seek_ns(self, from_cyl: int, to_cyl: int) -> int:
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0
        return (self.params.disk_seek_base_ns
                + distance * self.params.disk_seek_per_cyl_ns)

    def rotation_ns(self) -> int:
        revolution = NS_PER_SEC * 60 // self.params.disk_rpm
        return int(self.rng.uniform(f"{self.name}.rot", 0, revolution))

    def transfer_ns(self, nbytes: int) -> int:
        media = int(nbytes * self.params.disk_transfer_ns_per_byte)
        tracks_crossed = nbytes // (self.params.disk_sectors_per_track
                                    * self.params.disk_sector_size)
        return media + tracks_crossed * self.params.disk_head_switch_ns

    def service_ns(self, req: DiskRequest) -> int:
        """Pure service time for one request (excludes queueing)."""
        target = self._cylinder_of(req.block)
        latency = (self.params.disk_controller_overhead_ns
                   + self.seek_ns(self._head_cylinder, target)
                   + self.rotation_ns()
                   + self.transfer_ns(req.nbytes))
        self._head_cylinder = target
        return latency

    def dma_occupancy_ns(self, nbytes: int) -> int:
        return int(nbytes * self.params.dma_occupancy_ns_per_byte)

    # -- the blocking I/O operation ----------------------------------------

    def io(self, req: DiskRequest) -> Generator[Event, None, int]:
        """Coroutine: perform one request; returns total elapsed ns."""
        start = self.sim.now
        yield self._arm.request()
        try:
            latency = self.service_ns(req)
            yield latency
            # DMA into memory also occupies the memory controller.
            yield self.dma_occupancy_ns(req.nbytes)
        finally:
            self._arm.release()
        elapsed = self.sim.now - start
        self.requests += 1
        self.bytes_moved += req.nbytes
        self.service_time.record(elapsed)
        return elapsed

    def read(self, block: int, nbytes: int):
        return self.io(DiskRequest(block, nbytes, is_write=False))

    def write(self, block: int, nbytes: int):
        return self.io(DiskRequest(block, nbytes, is_write=True))
