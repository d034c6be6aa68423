"""Tests for the intercell RPC subsystem."""

import pytest

from repro.core.rpc import (
    MUST_QUEUE,
    QUEUED,
    RpcHandlerError,
    RpcRemoteError,
)
from repro.unix.errors import RpcTimeout


def drive(system, gen, deadline=60_000_000_000):
    proc = system.sim.process(gen, name="rpctest")
    system.sim.run_until_event(proc, deadline=system.sim.now + deadline)
    assert proc.triggered
    if not proc.ok:
        raise proc._value
    return proc.value


class TestBasicRpc:
    def test_null_rpc_latency_is_paper_value(self, hive2):
        c0 = hive2.cell(0)

        def bench():
            t0 = c0.sim.now
            result = yield from c0.rpc.call(1, "ping", {})
            return result, c0.sim.now - t0

        result, latency = drive(hive2, bench())
        assert result == "alive"
        assert latency == 7_200  # Section 6: 7.2 us

    def test_queued_rpc_latency_is_paper_value(self, hive2):
        c0 = hive2.cell(0)

        def bench():
            t0 = c0.sim.now
            yield from c0.rpc.call(1, "ping_queued", {})
            return c0.sim.now - t0

        assert drive(hive2, bench()) == 34_000  # Section 6: 34 us

    def test_rpc_to_self_rejected(self, hive2):
        c0 = hive2.cell(0)
        with pytest.raises(ValueError):
            next(c0.rpc.call(0, "ping", {}))

    def test_unknown_op_returns_error(self, hive2):
        c0 = hive2.cell(0)

        def bench():
            try:
                yield from c0.rpc.call(1, "no_such_op", {})
            except RpcRemoteError as exc:
                return exc.errno

        assert drive(hive2, bench()) == "EOPNOTSUPP"

    def test_handler_error_propagates_errno(self, hive2):
        c0, c1 = hive2.cell(0), hive2.cell(1)

        def failing(src, args):
            raise RpcHandlerError("EPERM", "nope")
            yield  # pragma: no cover

        c1.rpc.register("always_fails", failing)

        def bench():
            try:
                yield from c0.rpc.call(1, "always_fails", {})
            except RpcRemoteError as exc:
                return exc.errno

        assert drive(hive2, bench()) == "EPERM"

    def test_oversize_args_charge_copy_costs(self, hive2):
        c0 = hive2.cell(0)

        def bench():
            t0 = c0.sim.now
            yield from c0.rpc.call(1, "ping", {}, arg_bytes=512)
            return c0.sim.now - t0

        latency = drive(hive2, bench())
        # stubs 4.9 + copy 3.9 + alloc 3.4 + hw 2.0 + dispatch 3.1 us
        assert latency == 17_300

    def test_must_queue_fallback(self, hive2):
        c0, c1 = hive2.cell(0), hive2.cell(1)
        calls = []

        def picky(src, args):
            calls.append("attempt")
            if len(calls) == 1:
                yield c1.sim.timeout(0)
                return MUST_QUEUE
            yield c1.sim.timeout(0)
            return "served-queued"

        c1.rpc.register("picky", picky)

        def bench():
            return (yield from c0.rpc.call(1, "picky", {}))

        assert drive(hive2, bench()) == "served-queued"
        assert len(calls) == 2
        assert c1.rpc.metrics.counter("queued_fallback").value == 1


class TestFailureBehaviour:
    def test_rpc_to_halted_cell_times_out_with_hint(self, hive2):
        c0 = hive2.cell(0)
        hive2.machine.halt_node(1)

        def bench():
            try:
                yield from c0.rpc.call(1, "ping", {},
                                       timeout_ns=5_000_000)
            except RpcTimeout:
                return "timeout"

        assert drive(hive2, bench()) == "timeout"
        assert any(h.suspect == 1 for h in c0.detector.hints)

    def test_flow_control_retries_until_delivered(self, hive2):
        """A burst larger than the SIPS queue depth must still deliver
        every message (hardware flow control, never drops)."""
        c0 = hive2.cell(0)
        n = hive2.params.sips_queue_depth * 3

        def one():
            return (yield from c0.rpc.call(1, "ping", {}))

        procs = [hive2.sim.process(one()) for _ in range(n)]
        hive2.sim.run_until_event(hive2.sim.all_of(procs),
                                  deadline=hive2.sim.now + 60_000_000_000)
        assert all(p.ok and p.value == "alive" for p in procs)

    def test_concurrent_queued_requests_all_served(self, hive2):
        c0 = hive2.cell(0)

        def one():
            return (yield from c0.rpc.call(1, "ping_queued", {}))

        procs = [hive2.sim.process(one()) for _ in range(12)]
        hive2.sim.run_until_event(hive2.sim.all_of(procs),
                                  deadline=hive2.sim.now + 60_000_000_000)
        assert all(p.value == "alive" for p in procs)

    def test_server_steals_cpu_from_user_threads(self, hive2):
        """RPC service time on the server cell stretches its user work."""
        c1 = hive2.cell(1)
        before = c1._stolen_ns
        c0 = hive2.cell(0)

        def storm():
            for _ in range(50):
                yield from c0.rpc.call(1, "ping", {})

        drive(hive2, storm())
        assert c1._stolen_ns > before

    def test_shutdown_fails_pending_calls(self, hive2):
        c0, c1 = hive2.cell(0), hive2.cell(1)

        def never(src, args):
            yield c1.sim.timeout(10_000_000_000)
            return "too late"

        c1.rpc.register("slow", never, QUEUED)

        def bench():
            try:
                yield from c0.rpc.call(1, "slow", {}, timeout_ns=2_000_000)
            except RpcTimeout:
                return "timed out"

        assert drive(hive2, bench()) == "timed out"


    def test_shutdown_fails_every_call_in_flight(self, hive2):
        c0, c1 = hive2.cell(0), hive2.cell(1)
        sim = hive2.sim

        def never(src, args):
            yield 10_000_000_000
            return "too late"

        c1.rpc.register("slow", never, QUEUED)

        def one():
            try:
                yield from c0.rpc.call(1, "slow", {},
                                       timeout_ns=60_000_000_000)
            except RpcTimeout:
                return "failed"

        procs = [sim.process(one()) for _ in range(3)]
        sim.run(until=sim.now + 1_000_000)
        assert len(c0.rpc._pending) == 3
        c0.rpc.shutdown()
        assert c0.rpc._pending == {}
        sim.run_until_event(sim.all_of(procs), deadline=sim.now + 1_000)
        assert [p.value for p in procs] == ["failed"] * 3
        assert c0.rpc.metrics.counter("timeouts").value == 0


class TestFlowControlBackoff:
    """The SipsQueueFull stall-and-retry path (hardware flow control)."""

    def _stuff_queue(self, system, dst_cell, kind="request"):
        """Fill the destination's ``kind`` queue with inert messages that
        no delivery will ever drain, so every send flow-controls."""
        from repro.hardware.sips import SipsMessage

        fabric = system.machine.sips
        dst_node = system.registry.first_node_of(dst_cell)
        queue = fabric._queues[(dst_node, kind)]
        while len(queue) < system.params.sips_queue_depth:
            queue.append(SipsMessage(src_cpu=0, dst_node=dst_node,
                                     kind=kind, payload=None,
                                     payload_size=0, send_time=0))
        return queue

    def test_reply_refused_by_full_queue_still_arrives(self, hive2):
        """A reply the caller's full reply queue refuses is retried in
        the background until it lands: a SIPS is never dropped."""
        from repro.hardware.sips import REPLY

        c0, c1 = hive2.cell(0), hive2.cell(1)
        queue = self._stuff_queue(hive2, 0, REPLY)

        def unclog():
            yield hive2.sim.timeout(50_000)
            queue.clear()

        hive2.sim.process(unclog())

        def bench():
            return (yield from c0.rpc.call(1, "ping", {}))

        assert drive(hive2, bench()) == "alive"
        assert hive2.sim.now >= 50_000
        assert hive2.machine.sips.flow_control_rejections >= 2
        assert c1.rpc.metrics.counter("reply_failures").value == 0
        assert c0.rpc.metrics.counter("send_retries").value == 0

    def test_send_retries_counter_counts_backoff_rounds(self, hive2):
        c0 = hive2.cell(0)
        queue = self._stuff_queue(hive2, 1)

        def unclog():
            # Drain the inert clog after a few backoff rounds so the
            # call eventually goes through.
            yield hive2.sim.timeout(30_000)
            queue.clear()

        hive2.sim.process(unclog())

        def bench():
            return (yield from c0.rpc.call(1, "ping", {}))

        assert drive(hive2, bench()) == "alive"
        retries = c0.rpc.metrics.counter("send_retries").value
        assert retries >= 3  # 2.1 + 4.2 + 8.4 us of doubling backoff
        assert c0.rpc.metrics.counter("timeouts").value == 0

    def test_flow_control_past_deadline_hints_and_raises(self, hive2):
        """A peer that stays unreceptive past the call deadline becomes
        a failure hint, exactly like a silent timeout."""
        c0 = hive2.cell(0)
        self._stuff_queue(hive2, 1)

        def bench():
            try:
                yield from c0.rpc.call(1, "ping", {},
                                       timeout_ns=2_000_000)
            except RpcTimeout:
                return "timeout"

        assert drive(hive2, bench()) == "timeout"
        assert c0.rpc.metrics.counter("send_retries").value > 0
        assert c0.rpc.metrics.counter("timeouts").value == 1
        assert c0.rpc.metrics.counter("calls").value == 0
        assert any(h.suspect == 1 for h in c0.detector.hints)

    def test_flow_control_burst_is_deterministic(self):
        """Two identically-seeded bursts through queue-full backoff must
        retry the same number of times and finish at the same instant."""
        from repro.core.hive import boot_hive
        from repro.hardware.machine import MachineConfig
        from repro.hardware.params import HardwareParams
        from repro.sim.engine import Simulator

        def run_burst():
            sim = Simulator()
            system = boot_hive(sim, num_cells=2,
                               machine_config=MachineConfig(
                                   params=HardwareParams(num_nodes=2)))
            c0 = system.cell(0)
            n = system.params.sips_queue_depth * 3

            def one():
                return (yield from c0.rpc.call(1, "ping", {}))

            procs = [sim.process(one()) for _ in range(n)]
            sim.run_until_event(sim.all_of(procs),
                                deadline=sim.now + 60_000_000_000)
            assert all(p.ok and p.value == "alive" for p in procs)
            return (sim.now,
                    c0.rpc.metrics.counter("send_retries").value,
                    c0.rpc.metrics.counter("calls").value,
                    system.machine.sips.flow_control_rejections)

        first = run_burst()
        assert first[1] > 0, "burst never hit flow control"
        assert first == run_burst()
