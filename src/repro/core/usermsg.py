"""User-level messaging on direct SIPS access (Section 6).

"User-level RPCs are implemented at the library level using direct access
to the message send primitive."  This module is that library: processes
bind numbered *ports*; a send goes straight through the SIPS hardware
primitive to the destination cell, where a thin demultiplexer (the only
kernel involvement — the message-arrival interrupt) drops it into the
port's queue.  No kernel RPC stubs, no server pool.

Payloads are limited to one cache line like any SIPS; larger transfers
belong in shared memory, with the message carrying the reference — which
is exactly how Wax's threads coordinate.

The library also provides a user-level RPC veneer (`call`/`serve`) built
from two one-way messages, mirroring how the paper's user-level RPCs
composed the primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.hardware.errors import BusError, SipsQueueFull
from repro.hardware.sips import REQUEST
from repro.sim.resources import FifoStore

#: marker distinguishing user-level SIPS from kernel RPC traffic at the
#: receiving interrupt handler.
USER_CHANNEL = "user-msg"


@dataclass
class UserMessage:
    src_cell: int
    src_pid: int
    port: int
    payload: Any
    sent_at: int


class UserMsgService:
    """Per-cell demultiplexer for user-level SIPS traffic.

    Installed alongside the kernel RPC dispatcher; the message-arrival
    interrupt costs only the dispatch time before the payload lands in
    the destination port's queue (the receiving process reads it at user
    level with no further kernel involvement).
    """

    def __init__(self, cell):
        self.cell = cell
        self.sim = cell.sim
        self._ports: Dict[int, FifoStore] = {}
        self.delivered = 0
        self.dropped = 0

    # -- port management (user-level library calls) ---------------------

    def bind(self, port: int) -> FifoStore:
        if port in self._ports:
            raise ValueError(f"port {port} already bound on cell "
                             f"{self.cell.kernel_id}")
        queue = FifoStore(self.sim, capacity=64,
                          name=f"umsg.c{self.cell.kernel_id}.p{port}",
                          block_on_full=False)
        self._ports[port] = queue
        return queue

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    # -- wire protocol -----------------------------------------------------

    def deliver(self, payload: dict) -> None:
        """Called from the SIPS interrupt path for user-channel messages."""
        port = payload.get("port")
        queue = self._ports.get(port)
        if queue is None or not queue.try_put(UserMessage(
                src_cell=payload.get("src_cell", -1),
                src_pid=payload.get("src_pid", -1),
                port=port,
                payload=payload.get("data"),
                sent_at=payload.get("sent_at", 0))):
            # No listener / queue full: user-level messaging is
            # best-effort; senders needing reliability build acks on top
            # (as this module's call/serve veneer does).
            self.dropped += 1
            return
        self.delivered += 1

    # -- send path -----------------------------------------------------------

    def send(self, ctx, dst_cell: int, port: int, data: Any,
             data_bytes: int = 64) -> Generator:
        """One-way user-level message; costs one SIPS + library time."""
        sips = self.cell.machine.sips
        if data_bytes > sips.params.sips_payload - 32:
            raise ValueError("payload exceeds a SIPS line; pass a "
                             "shared-memory reference instead")
        registry = self.cell.registry
        if not registry.is_valid_cell(dst_cell):
            raise ValueError(f"bad destination cell {dst_cell}")
        dst_node = registry.first_node_of(dst_cell)
        payload = {"channel": USER_CHANNEL, "port": port, "data": data,
                   "src_cell": self.cell.kernel_id,
                   "src_pid": ctx.process.pid if ctx else 0,
                   "sent_at": self.sim.now}
        # Library-side marshalling: far leaner than kernel RPC stubs.
        yield self.cell.costs.careful_on_ns
        backoff = 2_000
        deadline = self.sim.now + self.cell.costs.rpc_timeout_ns
        while True:
            try:
                sips.send(self.cell.cpu_ids[0], dst_node, payload,
                          data_bytes + 32, kind=REQUEST)
                return True
            except SipsQueueFull:
                if self.sim.now >= deadline:
                    return False
                yield backoff
                backoff = min(backoff * 2, 100_000)
            except BusError:
                return False

    def recv(self, ctx, queue: FifoStore,
             timeout_ns: Optional[int] = None) -> Generator:
        """Block on a bound port; returns a UserMessage or None."""
        get_ev = queue.get()
        if timeout_ns is None:
            msg = yield from ctx.block(_wait(get_ev))
            return msg
        deadline = self.sim.timeout(timeout_ns)
        winner = yield from ctx.block(_wait_any(self.sim, get_ev, deadline))
        if winner is get_ev:
            return get_ev.value
        return None

    # -- user-level RPC veneer --------------------------------------------------

    def call(self, ctx, dst_cell: int, port: int, data: Any,
             reply_port: int, timeout_ns: int = 10_000_000) -> Generator:
        """Two one-way messages composed into a user-level RPC."""
        reply_queue = self.bind(reply_port)
        try:
            ok = yield from self.send(
                ctx, dst_cell, port,
                {"args": data, "reply_port": reply_port,
                 "reply_cell": self.cell.kernel_id})
            if not ok:
                return None
            return (yield from self.recv(ctx, reply_queue, timeout_ns))
        finally:
            self.unbind(reply_port)

    def serve(self, ctx, queue: FifoStore,
              handler: Callable[[Any], Any],
              requests: int) -> Generator:
        """Serve ``requests`` user-level RPCs from a bound port."""
        served = 0
        while served < requests:
            msg = yield from self.recv(ctx, queue)
            body = msg.payload
            result = handler(body.get("args"))
            yield from self.send(ctx, body["reply_cell"],
                                 body["reply_port"], result)
            served += 1
        return served


def _wait(ev) -> Generator:
    value = yield ev
    return value


def _wait_any(sim, *events) -> Generator:
    winner = yield sim.any_of(list(events))
    return winner
