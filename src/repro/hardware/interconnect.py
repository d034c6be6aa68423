"""The mesh interconnect connecting FLASH nodes.

Nodes are laid out on a 2-D mesh and packets are dimension-order routed.
The paper's machine model fixes the second-level miss latency at the FLASH
*average* of 700 ns, so by default latency is distance-independent; a
hop-sensitive mode exists for NUMA-placement experiments.

The FLASH memory fault model "guarantees that the network remains fully
connected with high probability (i.e. the operating system need not work
around network partitions)" — node failures here remove the node's
endpoints but never partition the mesh, and :meth:`Interconnect.is_connected`
checks that invariant for the recovery master's hardware diagnostics
(:meth:`~repro.hardware.machine.Machine.run_diagnostics`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Tuple

from repro.hardware.params import HardwareParams


class Interconnect:
    """Mesh geometry, routing distance, and message latency."""

    def __init__(self, params: HardwareParams, hop_sensitive: bool = False):
        self.params = params
        self.hop_sensitive = hop_sensitive
        self.width = max(1, int(math.ceil(math.sqrt(params.num_nodes))))
        self._failed: set[int] = set()
        self.messages_sent = 0

    # -- geometry -------------------------------------------------------

    def coords(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.params.num_nodes:
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def hops(self, src: int, dst: int) -> int:
        """Dimension-order routing distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    # -- latency ----------------------------------------------------------

    def miss_latency_ns(self, src_node: int, home_node: int) -> int:
        """Latency of a cache miss serviced by ``home_node``'s memory."""
        base = self.params.mem_latency_ns
        if not self.hop_sensitive or src_node == home_node:
            return base
        return base + self.hops(src_node, home_node) * self.params.mesh_hop_ns

    def ipi_latency_ns(self, src_node: int, dst_node: int) -> int:
        base = self.params.ipi_latency_ns
        if not self.hop_sensitive or src_node == dst_node:
            return base
        return base + self.hops(src_node, dst_node) * self.params.mesh_hop_ns

    # -- failure / connectivity --------------------------------------------

    def fail_node(self, node: int) -> None:
        self._failed.add(node)

    def revive_node(self, node: int) -> None:
        self._failed.discard(node)

    def live_nodes(self) -> List[int]:
        return [n for n in range(self.params.num_nodes) if n not in self._failed]

    def is_connected(self) -> bool:
        """True if all live nodes can still reach each other.

        A failed node's *router* keeps forwarding in FLASH (the fault model
        rules out partitions), so the live set is connected whenever it is
        non-empty; modelled here with an explicit reachability check over
        the full mesh so the invariant is verifiable rather than assumed.
        """
        live = self.live_nodes()
        if len(live) <= 1:
            return True
        # Breadth-first from one live node; routers of failed nodes
        # still forward traffic, so the search walks every node.
        num_nodes = self.params.num_nodes
        reached = {live[0]}
        frontier = deque(reached)
        while frontier:
            x, y = self.coords(frontier.popleft())
            for nx_, ny_ in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                other = ny_ * self.width + nx_
                if (0 <= nx_ < self.width and 0 <= other < num_nodes
                        and other not in reached):
                    reached.add(other)
                    frontier.append(other)
        return all(node in reached for node in live)
