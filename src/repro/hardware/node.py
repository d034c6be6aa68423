"""Nodes: processor + caches + memory slice + local I/O devices.

Each FLASH node holds one (configurably more) processor, a slice of main
memory, and local devices — one disk, one ethernet, one console in the
paper's machine model.  The node is "an important unit of failure"
(Section 2): halting a node stops its processors and makes its memory
slice inaccessible.

The node also exposes the *remap region* from Table 8.1: a range of
physical addresses that every node maps to its own local memory, so each
cell can keep private trap vectors at the architecturally-fixed vector
addresses without sharing them machine-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hardware.disk import Disk
from repro.hardware.errors import NodeHalted
from repro.hardware.params import HardwareParams


@dataclass
class Cpu:
    """One processor.  Identity plus halt state; execution is scheduled
    by the owning kernel, not the hardware model."""

    cpu_id: int
    node_id: int
    halted: bool = False


#: Number of pages in the per-node remap region (trap vectors, utlbmiss
#: handlers, and the exception stack comfortably fit in a few pages).
REMAP_REGION_PAGES = 4


class Node:
    """One node of the machine."""

    def __init__(self, params: HardwareParams, node_id: int,
                 sim=None, rng=None):
        self.params = params
        self.node_id = node_id
        self.cpus: List[Cpu] = [
            Cpu(cpu_id=node_id * params.cpus_per_node + i, node_id=node_id)
            for i in range(params.cpus_per_node)
        ]
        self.disk: Optional[Disk] = None
        if sim is not None and rng is not None:
            self.disk = Disk(sim, params, rng, node_id)
        self.halted = False
        self.memory_failed = False

    def remap_frames(self) -> range:
        """The node-local frames backing the remap region.

        Every node resolves the remap region to the first few frames of
        its own memory slice, so the same virtual trap-vector addresses
        reach node-private storage on every node.
        """
        base = self.node_id * self.params.pages_per_node
        return range(base, base + REMAP_REGION_PAGES)

    def halt(self) -> None:
        """Fail-stop this node's processors."""
        self.halted = True
        for cpu in self.cpus:
            cpu.halted = True

    def revive(self) -> None:
        self.halted = False
        self.memory_failed = False
        for cpu in self.cpus:
            cpu.halted = False

    def check_running(self) -> None:
        if self.halted:
            raise NodeHalted(self.node_id)
