"""Intercell RPC on SIPS (Section 6 of the paper).

Two service classes:

* **Interrupt-level RPCs** are serviced entirely in the message-arrival
  interrupt handler — no server process, no blocking locks.  The minimum
  end-to-end null RPC is 7.2 us; the client *spins* for the reply and only
  context-switches after 50 us, "which almost never occurs".
* **Queued RPCs** are handed to a server-process pool for requests that
  may block (disk I/O, lock acquisition).  A queued request is "an initial
  interrupt-level RPC which launches the operation, then a completion RPC
  sent from the server back to the client".  Minimum null latency 34 us,
  "in practice ... much higher because of scheduling delays".

Hive structures common services as "initial best-effort interrupt-level
service routines that fall back to queued service routines only if
required" — handlers here can return the sentinel :data:`MUST_QUEUE` from
their interrupt-level attempt to trigger exactly that fallback.

Marshalling costs follow Table 5.2: arguments beyond one cache line are
sent *by reference* and charged copy + alloc/free time.  "Each cell
sanity-checks all information received from other cells and sets timeouts
whenever waiting for a reply": handlers receive plain dict payloads and
validate them; the client raises :class:`RpcTimeout` — a failure hint —
when no reply arrives in time.

Coalesced dispatch
------------------
Every call, in-payload or by-reference, is three waits on the client:
the pre-send stub (plus the by-reference alloc/copy half), the reply,
the post-reply charges:

* the client waits on the reply event *directly* with a cancellable
  deadline entry — the losing deadline is revoked in place when the
  reply wins;
* the post-reply cost charges (interrupt dispatch, optional context
  switch, unmarshal stub, by-reference alloc/copy half) are a single
  sleep of their total;
* ``_Pending`` records and reply events are pooled and recycled;
* interrupt-level service runs on a pooled :class:`_ServiceTask`
  driver, not a full engine ``Process`` per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.hardware.errors import BusError, SipsQueueFull
from repro.hardware.sips import REPLY, REQUEST, SipsFabric, SipsMessage
from repro.sim.engine import Event, Interrupted, SimulationError, Simulator
from repro.sim.resources import FifoStore
from repro.sim.stats import MetricSet
from repro.unix.costs import KernelCosts
from repro.unix.errors import RpcTimeout

#: sentinel: an interrupt-level handler could not complete without
#: blocking; re-dispatch through the queued service path.
MUST_QUEUE = object()

#: handlers flagged interrupt-level must never yield blocking events; the
#: queued class may.
INTERRUPT_LEVEL = "interrupt"
QUEUED = "queued"


@dataclass
class RpcError:
    """A handler-raised error shipped back to the caller."""

    errno: str
    message: str


class _RpcDeadline(Exception):
    """Internal sentinel failing a reply event at its deadline.

    Distinct from :class:`RpcTimeout` so the client can tell its own
    deadline expiry apart from a peer's ``shutdown()`` failing the
    pending event (which delivers RpcTimeout directly).
    """


class _Pending:
    """Client-side record of an in-flight call.  Pooled and recycled."""

    __slots__ = ("op", "event", "sent_at")

    def __init__(self, op: str, event: Any, sent_at: int):
        self.op = op
        self.event = event
        self.sent_at = sent_at


class _ServiceTask:
    """Drives one interrupt-level ``_service`` generator to completion.

    A stripped-down stand-in for :class:`~repro.sim.engine.Process` on
    the server hot path: nobody joins an interrupt-service coroutine, so
    the full Event machinery (trigger bookkeeping, interrupt queue,
    join callbacks) is pure overhead.  Tasks are pooled per subsystem
    and the first generator step runs *inline* from the message-arrival
    interrupt — safe because ``_service`` performs no side effects
    before its first sleep, so simulated time and cost accounting are
    unchanged.
    """

    __slots__ = ("sub", "name", "gen", "_cb", "_wake_cb")

    def __init__(self, sub: "RpcSubsystem"):
        self.sub = sub
        #: the engine profile attributes wall time by owner name
        self.name = f"rpc{sub.cell.kernel_id}.int"
        self.gen = None
        self._cb = self._resume
        self._wake_cb = self._wake

    def start(self, gen: Generator) -> None:
        self.gen = gen
        self._advance(0, None)

    def _wake(self) -> None:
        # A sleep's entry fired; same-instant ordering and dispatch
        # count as Process._wake.
        sim = self.sub.sim
        queue = sim._queue
        if sim._nowq or (queue and queue[0][0] == sim.now):
            sim.schedule(0, self._advance, 1, None)
            return
        sim.events_processed += 1
        self._advance(1, None)

    def _resume(self, ev: Event) -> None:
        if ev._ok:
            self._advance(1, ev._value)
        else:
            self._advance(2, ev._value)

    def _advance(self, op: int, arg: Any) -> None:
        sim = self.sub.sim
        try:
            gen = self.gen
            if op == 1:
                target = gen.send(arg)
            elif op == 0:
                target = next(gen)
            else:
                target = gen.throw(arg)
        except StopIteration:
            self.gen = None
            self.sub._task_pool.append(self)
            return
        except Exception:
            self.gen = None
            self.sub._task_pool.append(self)
            if sim.crash_on_process_error:
                raise
            return
        if type(target) is int:
            if target < 0:
                self._advance(2, SimulationError(
                    f"rpc service yielded negative sleep {target!r}"))
            else:
                sim.schedule(target, self._wake_cb)
            return
        # Inlined target.add_callback(self._resume), as in Process._step.
        callbacks = target._callbacks
        if callbacks is None:
            sim.schedule(0, self._cb, target)
        else:
            callbacks.append(self._cb)


class RpcSubsystem:
    """One cell's RPC engine (client and server sides)."""

    def __init__(self, sim: Simulator, cell, sips: SipsFabric,
                 costs: KernelCosts, num_servers: int = 4):
        self.sim = sim
        self.cell = cell
        self.sips = sips
        self.costs = costs
        self.metrics = MetricSet(name=f"rpc{cell.kernel_id}")
        # Latency is recorded once, into the histogram; the legacy
        # "latency" timer name stays readable as a view over it.
        self.metrics.timer_view("latency",
                                self.metrics.histogram("latency_ns"))
        # Calls dispatched, for the profiler; a cached Counter object
        # so the hot path pays one attribute bump.
        self._fast_path_c = self.metrics.counter("fast_path")
        self._handlers: Dict[str, tuple] = {}
        # op -> the routine a server process runs for it.
        self._queued: Dict[str, Callable] = {}
        self._pending: Dict[int, _Pending] = {}
        self._pending_pool: list = []
        self._event_pool: list = []
        self._task_pool: list = []
        #: the cell's UserMsgService; wired by Cell.__init__ once the
        #: service exists (the RPC subsystem is built first), so the
        #: message-arrival interrupt doesn't getattr() per delivery.
        self.usermsg = None
        self._next_call = cell.kernel_id * 1_000_000 + 1
        self._queue = FifoStore(sim, name=f"rpc{cell.kernel_id}.queue")
        self._servers = [
            sim.process(self._server_loop(i),
                        name=f"rpc{cell.kernel_id}.srv{i}")
            for i in range(num_servers)
        ]
        for node in cell.node_ids:
            sips.register_handler(node, self._on_message)

    # -- registration ----------------------------------------------------

    def register(self, op: str, handler: Callable,
                 service_class: str = INTERRUPT_LEVEL,
                 queued: Optional[Callable] = None) -> None:
        """Install ``handler(src_cell, args) -> generator`` for ``op``.

        ``queued`` is the routine a server process runs when the
        interrupt-level ``handler`` returns :data:`MUST_QUEUE` (the
        handler itself, retried, when omitted).
        """
        if service_class not in (INTERRUPT_LEVEL, QUEUED):
            raise ValueError(f"bad service class {service_class}")
        self._handlers[op] = (handler, service_class)
        self._queued[op] = queued or handler

    # -- client side ---------------------------------------------------------

    def call(self, dst_cell_id: int, op: str, args: Optional[dict] = None,
             arg_bytes: int = 64, timeout_ns: Optional[int] = None) -> Generator:
        """Coroutine: invoke ``op`` on another cell and await the reply.

        Raises :class:`RpcTimeout` (a failure hint) if no reply arrives,
        and re-raises handler errors as :class:`RpcRemoteError`.
        """
        obs = self.cell.obs
        prov = self.cell.prov
        # Client side of provenance: calls *into* a tainted cell.  The
        # tainted cell's own outbound requests are classified by the
        # healthy server's handler instead (no double counting).
        track = prov is not None and prov.is_tainted(dst_cell_id)
        if obs is None and not track:
            result = yield from self._call_inner(dst_cell_id, op, args,
                                                 arg_bytes, timeout_ns, 0)
            return result
        span = None
        if obs is not None:
            span = obs.begin("rpc.call", "rpc", cell=self.cell.kernel_id,
                             op=op, dst=dst_cell_id)
        try:
            result = yield from self._call_inner(dst_cell_id, op, args,
                                                 arg_bytes, timeout_ns,
                                                 span.span_id
                                                 if span is not None else 0)
        except RpcTimeout:
            if span is not None:
                obs.end(span, outcome="timeout")
            if track:
                prov.rpc_blocked(self.cell.kernel_id, dst_cell_id, op,
                                 "rpc_timeout")
            raise
        except RpcRemoteError as exc:
            if span is not None:
                obs.end(span, outcome="remote_error", errno=exc.errno)
            if track:
                prov.rpc_blocked(self.cell.kernel_id, dst_cell_id, op,
                                 f"rpc_sanity:{exc.errno}")
            raise
        except BaseException:
            if span is not None:
                obs.end(span, outcome="error")
            raise
        if span is not None:
            obs.end(span, outcome="ok")
        if track:
            prov.rpc_reply(self.cell.kernel_id, dst_cell_id, op)
        return result

    def _call_inner(self, dst_cell_id: int, op: str, args: Optional[dict],
                    arg_bytes: int, timeout_ns: Optional[int],
                    span_id: int) -> Generator:
        if dst_cell_id == self.cell.kernel_id:
            raise ValueError("RPC to self")
        args = args or {}
        dst_node = self.cell.registry.first_node_of(dst_cell_id)
        call_id = self._next_call
        self._next_call += 1
        start = self.sim.now

        # Stub execution + marshalling (Table 5.2 costs): arguments
        # beyond one SIPS payload go by reference, which costs the bigger
        # stub plus alloc/copy, half before the send and half after the
        # reply.
        stub = self.costs.rpc_null_stub_ns
        marshal = 0
        oversize = arg_bytes > self.sips.params.sips_payload
        if oversize:
            stub = self.costs.rpc_stub_ns
            marshal = (self.costs.rpc_alloc_ns // 2
                       + self.costs.rpc_copy_ns // 2)
        yield marshal + stub // 2

        sim = self.sim
        self._fast_path_c.value += 1
        pool = self._event_pool
        if pool:
            reply_ev = pool.pop()
            reply_ev._callbacks = []
            reply_ev._triggered = False
            reply_ev._ok = True
            reply_ev._value = None
        else:
            reply_ev = Event(sim, "rpc.reply")
        ppool = self._pending_pool
        if ppool:
            pending = ppool.pop()
            pending.op = op
            pending.event = reply_ev
            pending.sent_at = sim.now
        else:
            pending = _Pending(op, reply_ev, sim.now)
        self._pending[call_id] = pending
        payload = {"call": call_id, "op": op, "args": args,
                   "src_cell": self.cell.kernel_id,
                   "reply_node": self.cell.node_ids[0],
                   "oversize": oversize}
        if span_id:
            # Parent link for the server-side span (cross-cell tracing).
            payload["span"] = span_id
        src_cpu = self.cell.cpu_ids[0]
        limit = timeout_ns if timeout_ns is not None else self.costs.rpc_timeout_ns
        send_deadline = self.sim.now + limit
        backoff = self.costs.rpc_null_stub_ns
        obs = self.cell.obs
        while True:
            try:
                self.sips.send(src_cpu, dst_node, payload,
                               min(arg_bytes, self.sips.params.sips_payload),
                               kind=REQUEST)
                break
            except SipsQueueFull:
                # Hardware flow control: the sender stalls and retries —
                # a SIPS is never dropped.  Only a peer that stays
                # unreceptive past the failure timeout becomes a hint.
                if obs is not None:
                    obs.event("rpc.flow_control", "rpc",
                              cell=self.cell.kernel_id, op=op,
                              dst=dst_cell_id, backoff_ns=backoff)
                self.metrics.counter("send_retries").add()
                if self.sim.now >= send_deadline:
                    self._drop_pending(call_id)
                    self._event_pool.append(reply_ev)
                    self.metrics.counter("timeouts").add()
                    self.cell.failure_hint(
                        dst_cell_id, f"RPC {op} flow-controlled past "
                        "timeout")
                    raise RpcTimeout(dst_cell_id, op)
                yield backoff
                backoff = min(backoff * 2, 100_000)
            except BusError as exc:
                self._drop_pending(call_id)
                self._event_pool.append(reply_ev)
                # Only hint about the *destination* — a bus error caused
                # by our own node failing is not evidence against anyone
                # else (a dying cell must not spray accusations).
                if exc.node is None or exc.node not in self.cell.node_ids:
                    self.cell.failure_hint(dst_cell_id,
                                           f"bus error on RPC {op}")
                raise RpcTimeout(dst_cell_id, op)

        # Wait on the reply event directly with a cancellable deadline
        # entry; the loser deadline is revoked in place when the reply
        # wins.
        dl_entry = sim.schedule(limit, self._fast_deadline, reply_ev)
        try:
            result = yield reply_ev
        except _RpcDeadline:
            # Our own deadline fired (the entry is consumed).
            self._drop_pending(call_id)
            self._event_pool.append(reply_ev)
            self.metrics.counter("timeouts").add()
            self.cell.failure_hint(dst_cell_id, f"RPC {op} timed out")
            raise RpcTimeout(dst_cell_id, op)
        except BaseException:
            # Peer shutdown failing the event with RpcTimeout, or a
            # process interrupt.  The deadline entry may still be
            # queued holding a reference to the event, so revoke it
            # and do not recycle the event.
            sim.cancel(dl_entry)
            raise
        sim.cancel(dl_entry)
        self._event_pool.append(reply_ev)
        # Client-side reply processing in one sleep: the reply-arrival
        # interrupt, spin vs context switch, then the unmarshalling
        # half of the stubs.
        waited = sim.now - start
        post = (self.costs.rpc_interrupt_dispatch_ns + stub // 2
                + marshal)
        if waited > self.costs.rpc_spin_timeout_ns:
            post += self.costs.context_switch_ns
            self.metrics.counter("spin_timeouts").add()
        yield post
        self.metrics.counter("calls").add()
        self.metrics.histogram("latency_ns").record(sim.now - start)
        if isinstance(result, RpcError):
            raise RpcRemoteError(dst_cell_id, op, result)
        return result

    def _fast_deadline(self, ev: Event) -> None:
        """Scheduled at the call deadline; fails the reply event unless
        the reply (or a shutdown) already triggered it."""
        if not ev._triggered:
            ev.fail(_RpcDeadline())

    def _drop_pending(self, call_id: int) -> None:
        p = self._pending.pop(call_id, None)
        if p is not None:
            p.event = None
            self._pending_pool.append(p)

    # -- server side -----------------------------------------------------------

    def _on_message(self, msg: SipsMessage) -> None:
        """Message-arrival interrupt handler."""
        if not self.cell.alive:
            return
        payload = msg.payload
        if isinstance(payload, dict) and payload.get("channel") == "user-msg":
            # User-level messaging (Section 6): the kernel only demuxes
            # to the destination port; everything else is library code.
            usermsg = self.usermsg
            if usermsg is not None:
                usermsg.deliver(payload)
                self.cell.note_cpu_steal(
                    self.costs.rpc_interrupt_dispatch_ns // 2)
            return
        if msg.kind == REPLY:
            self._complete(msg)
            return
        # No-allocation dispatch: a pooled driver runs the service
        # generator; the first step executes inline (no side effects
        # before _service's first yield, so timing is unchanged).
        pool = self._task_pool
        task = pool.pop() if pool else _ServiceTask(self)
        task.start(self._service(msg))

    def _complete(self, msg: SipsMessage) -> None:
        payload = msg.payload
        pending = self._pending.pop(payload.get("call"), None)
        if pending is None:
            return  # late reply after timeout; drop
        event = pending.event
        result = payload.get("result")
        pending.event = None
        self._pending_pool.append(pending)
        if not event._triggered:
            event.succeed(result)

    def _service(self, msg: SipsMessage) -> Generator:
        """Interrupt-level service attempt (falls back to the queue)."""
        service_start = self.sim.now
        yield self.costs.rpc_interrupt_dispatch_ns
        payload = msg.payload
        op = payload.get("op")
        obs = self.cell.obs
        span = None
        if obs is not None:
            span = obs.begin("rpc.serve_int", "rpc",
                             cell=self.cell.kernel_id, op=op,
                             parent=payload.get("span", 0))
        entry = self._handlers.get(op)
        if entry is None:
            if span is not None:
                obs.end(span, outcome="no_handler")
            self._reply(payload, RpcError("EOPNOTSUPP", f"no handler {op}"))
            return
        handler, service_class = entry
        if service_class == QUEUED:
            self.metrics.counter("queued").add()
            self.cell.note_cpu_steal(self.sim.now - service_start)
            if span is not None:
                obs.end(span, outcome="queued")
            yield self._queue.put(payload)
            return
        result = yield from self._run_handler(handler, payload)
        self.cell.note_cpu_steal(self.sim.now - service_start)
        if result is MUST_QUEUE:
            # Best-effort interrupt service hit a synchronization
            # condition; requeue for a server process (Section 6).
            self.metrics.counter("queued_fallback").add()
            if span is not None:
                obs.end(span, outcome="must_queue")
            yield self._queue.put(payload)
            return
        self.metrics.counter("served_interrupt").add()
        if span is not None:
            obs.end(span, outcome="ok")
        self._reply(payload, result)

    def _server_loop(self, idx: int) -> Generator:
        """A server process: takes queued requests, runs, replies."""
        try:
            yield from self._server_body(idx)
        except Interrupted:
            return

    def _server_body(self, idx: int) -> Generator:
        while True:
            payload = yield self._queue.get()
            if not self.cell.alive:
                return
            # Wakeup + synchronization overhead of the queued path.
            service_start = self.sim.now
            yield self.costs.rpc_queue_extra_ns
            obs = self.cell.obs
            span = None
            if obs is not None:
                span = obs.begin("rpc.serve_queued", "rpc",
                                 cell=self.cell.kernel_id,
                                 op=payload.get("op"),
                                 parent=payload.get("span", 0), server=idx)
            routine = self._queued.get(payload.get("op"))
            if routine is None:
                if span is not None:
                    obs.end(span, outcome="no_handler")
                self._reply(payload,
                            RpcError("EOPNOTSUPP", "no handler"))
                continue
            result = yield from self._run_handler(routine, payload)
            if result is MUST_QUEUE:
                result = RpcError("EDEADLK", "queued handler queued again")
            self.metrics.counter("served_queued").add()
            if span is not None:
                obs.end(span, outcome="error"
                        if isinstance(result, RpcError) else "ok")
            # Server processes run on this cell's CPUs: their service
            # time is stolen from user computation.  Time blocked on
            # disk is not CPU time, so the steal is capped at the
            # non-blocking service budget.
            self.cell.note_cpu_steal(
                min(self.sim.now - service_start, 200_000))
            self._reply(payload, result)

    def _run_handler(self, handler: Callable, payload: dict) -> Generator:
        # Server side of provenance: requests *from* a tainted cell
        # (``rpc_served`` no-ops unless the source is tainted).
        prov = self.cell.prov
        try:
            result = yield from handler(payload.get("src_cell"),
                                        payload.get("args") or {})
        except RpcHandlerError as exc:
            if prov is not None:
                prov.rpc_served(payload.get("src_cell"),
                                self.cell.kernel_id, payload.get("op"),
                                rejected=f"rpc_sanity:{exc.errno}")
            return RpcError(exc.errno, str(exc))
        except BusError as exc:
            if prov is not None:
                prov.rpc_served(payload.get("src_cell"),
                                self.cell.kernel_id, payload.get("op"),
                                rejected="bus_error")
            return RpcError("EIO", f"bus error in handler: {exc}")
        if prov is not None:
            prov.rpc_served(payload.get("src_cell"), self.cell.kernel_id,
                            payload.get("op"))
        return result

    def _reply(self, request_payload: dict, result: Any) -> None:
        if not self.cell.alive:
            return
        reply = {"call": request_payload.get("call"), "result": result}
        src_cpu = self.cell.cpu_ids[0]
        oversize = request_payload.get("oversize", False)
        size = 128 if oversize else 64
        dst = request_payload["reply_node"]
        try:
            self.sips.send(src_cpu, dst, reply, size, kind=REPLY)
        except SipsQueueFull:
            # Hardware flow control: stall-and-retry in the background
            # until the reply queue drains (a SIPS is never dropped).
            self.sim.process(self._retry_reply(dst, reply, size),
                             name=f"rpc{self.cell.kernel_id}.replyretry")
        except BusError:
            # The caller's node died; its timeout machinery handles it.
            self.metrics.counter("reply_failures").add()

    def _retry_reply(self, dst: int, reply: dict, size: int) -> Generator:
        backoff = self.costs.rpc_null_stub_ns
        deadline = self.sim.now + self.costs.rpc_timeout_ns
        src_cpu = self.cell.cpu_ids[0]
        while self.cell.alive and self.sim.now < deadline:
            yield backoff
            backoff = min(backoff * 2, 100_000)
            try:
                self.sips.send(src_cpu, dst, reply, size, kind=REPLY)
                return
            except SipsQueueFull:
                continue
            except BusError:
                break
        self.metrics.counter("reply_failures").add()

    # -- teardown -------------------------------------------------------------

    def shutdown(self) -> None:
        for srv in self._servers:
            if srv.is_alive:
                srv.interrupt("rpc shutdown")
        for node in self.cell.node_ids:
            self.sips.unregister_handler(node)
        for pending in self._pending.values():
            if not pending.event.triggered:
                pending.event.fail(
                    RpcTimeout(self.cell.kernel_id, pending.op))
        self._pending.clear()
        # Drop the recycled hot-path objects; a dead cell's subsystem
        # must not pin them (and none are safe to reuse after the
        # pending events were failed above).
        self._pending_pool.clear()
        self._event_pool.clear()
        self._task_pool.clear()


class RpcHandlerError(Exception):
    """Raised inside a handler to return an errno to the caller."""

    def __init__(self, errno: str, message: str = ""):
        super().__init__(message or errno)
        self.errno = errno


class RpcRemoteError(Exception):
    """The remote handler reported an error."""

    def __init__(self, cell_id: int, op: str, error: RpcError):
        super().__init__(f"RPC {op} to cell {cell_id}: "
                         f"[{error.errno}] {error.message}")
        self.cell_id = cell_id
        self.op = op
        self.errno = error.errno
