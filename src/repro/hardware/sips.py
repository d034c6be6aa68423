"""SIPS: the FLASH short interprocessor send facility.

Section 6 of the paper: "We combine the standard cache-line delivery
mechanism used by the cache-coherence protocol with the interprocessor
interrupt mechanism and a pair of short receive queues on each node.  Each
SIPS delivers one cache line of data (128 bytes) in about the latency of a
cache miss to remote memory, with the reliability and hardware flow control
characteristic of a cache miss.  Separate receive queues are provided on
each node for request and reply messages, making deadlock avoidance easy."

Model:

* a message carries at most 128 bytes of payload (larger data must be sent
  *by reference* and read through the careful reference protocol — the RPC
  layer enforces this);
* delivery takes the IPI latency plus 300 ns before the receiving
  processor can touch the data (Section 7.2);
* each node has a bounded *request* queue and a bounded *reply* queue; a
  send to a full queue fails synchronously at the sender with
  :class:`SipsQueueFull` (hardware flow control — never a silent drop);
* a send to a failed node raises :class:`BusError` (the fault model rules
  out indefinite stalls);
* on delivery an interrupt handler registered by the receiving kernel runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict

from repro.hardware.errors import BusError, SipsQueueFull
from repro.hardware.interconnect import Interconnect
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator

REQUEST = "request"
REPLY = "reply"


@dataclass(slots=True)
class SipsMessage:
    """One hardware message: a cache line of payload plus routing info.

    Slotted: the fabric creates one per send on the RPC hot path, and a
    per-message ``__dict__`` costs more than the message itself.
    """

    src_cpu: int
    dst_node: int
    kind: str                      # REQUEST or REPLY
    payload: Any
    payload_size: int
    send_time: int
    deliver_time: int = 0
    seq: int = 0


class SipsFabric:
    """All SIPS send/receive machinery for the machine."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 interconnect: Interconnect):
        self.sim = sim
        self.params = params
        self.interconnect = interconnect
        self._queues: Dict[tuple, Deque[SipsMessage]] = {}
        self._handlers: Dict[int, Callable[[SipsMessage], None]] = {}
        self._failed: set[int] = set()
        self._seq = 0
        self.sends = 0
        self.sends_by_kind: Dict[str, int] = {REQUEST: 0, REPLY: 0}
        self.flow_control_rejections = 0
        # Optional fault-provenance tracer (``attach_provenance`` sets
        # it).  A plain None slot, not a null object: the hardware layer
        # must not import the obs package.
        self.prov = None
        # Optional intercell channel recorder (``sim/channels.py``),
        # same None-slot idiom: every SIPS is potential intercell
        # traffic, published with its end-to-end delivery latency.
        self.channels = None
        for node in range(params.num_nodes):
            self._queues[(node, REQUEST)] = deque()
            self._queues[(node, REPLY)] = deque()

    # -- kernel registration ------------------------------------------

    def register_handler(self, node: int,
                         handler: Callable[[SipsMessage], None]) -> None:
        """Install the message-arrival interrupt handler for a node."""
        self._handlers[node] = handler

    def unregister_handler(self, node: int) -> None:
        self._handlers.pop(node, None)

    # -- failure state ----------------------------------------------------

    def fail_node(self, node: int) -> None:
        self._failed.add(node)
        self._handlers.pop(node, None)

    def revive_node(self, node: int) -> None:
        self._failed.discard(node)
        self._queues[(node, REQUEST)].clear()
        self._queues[(node, REPLY)].clear()

    # -- send path ----------------------------------------------------------

    def send(self, src_cpu: int, dst_node: int, payload: Any,
             payload_size: int, kind: str = REQUEST) -> SipsMessage:
        """Issue one SIPS.  Returns the in-flight message.

        Raises :class:`SipsQueueFull` under flow control and
        :class:`BusError` when the destination node has failed.
        """
        if kind not in (REQUEST, REPLY):
            raise ValueError(f"bad SIPS kind {kind!r}")
        if payload_size > self.params.sips_payload:
            raise ValueError(
                f"SIPS payload {payload_size} exceeds one cache line "
                f"({self.params.sips_payload} bytes); send by reference"
            )
        src_node = src_cpu // self.params.cpus_per_node
        if src_node in self._failed:
            raise BusError(f"SIPS send from failed node {src_node}",
                           node=src_node)
        if dst_node in self._failed:
            raise BusError(f"SIPS send to failed node {dst_node}",
                           node=dst_node)
        queue = self._queues[(dst_node, kind)]
        if len(queue) >= self.params.sips_queue_depth:
            self.flow_control_rejections += 1
            raise SipsQueueFull(dst_node, kind)
        self._seq += 1
        latency = (self.interconnect.ipi_latency_ns(src_node, dst_node)
                   + self.params.sips_extra_ns)
        msg = SipsMessage(
            src_cpu=src_cpu,
            dst_node=dst_node,
            kind=kind,
            payload=payload,
            payload_size=payload_size,
            send_time=self.sim.now,
            deliver_time=self.sim.now + latency,
            seq=self._seq,
        )
        queue.append(msg)  # slot reserved immediately: hardware flow control
        self.sends += 1
        self.sends_by_kind[kind] += 1
        prov = self.prov
        if prov is not None:
            prov.sips_sent(src_node, dst_node, kind)
        channels = self.channels
        if channels is not None:
            channels.sips(src_node, dst_node, kind, latency)
        self.interconnect.messages_sent += 1
        self.sim.schedule(latency, self._deliver, msg)
        return msg

    def _deliver(self, msg: SipsMessage) -> None:
        if msg.dst_node in self._failed:
            # The node died in flight; the message is lost with the node.
            queue = self._queues[(msg.dst_node, msg.kind)]
            if msg in queue:
                queue.remove(msg)
            return
        handler = self._handlers.get(msg.dst_node)
        queue = self._queues[(msg.dst_node, msg.kind)]
        # Deliveries complete in send order per (node, kind) queue, so
        # the message is almost always at the head; fall back to the
        # O(n) scan only for queues perturbed by a node failure/revival.
        if queue and queue[0] is msg:
            queue.popleft()
        elif msg in queue:
            queue.remove(msg)
        if handler is not None:
            handler(msg)
        # No handler (cell still booting): hardware would hold the message;
        # kernels install handlers before enabling intercell traffic, so
        # this models messages racing a reboot, which are dropped with a
        # timeout at the sender.
