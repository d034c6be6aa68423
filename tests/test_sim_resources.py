"""Unit tests for synchronization primitives."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import FifoStore, Resource, StoreFull


class TestMutex:
    """A lock is a one-unit :class:`Resource` (``Mutex`` went in PR 21)."""

    def test_uncontended_acquire_is_immediate(self):
        sim = Simulator()
        m = Resource(sim, capacity=1)
        ev = m.request()
        assert ev.triggered and m.in_use == 1

    def test_fifo_handoff(self):
        sim = Simulator()
        m = Resource(sim, capacity=1)
        order = []

        def worker(tag, hold):
            yield m.request()
            order.append(tag)
            yield sim.timeout(hold)
            m.release()

        for i in range(3):
            sim.process(worker(i, 10))
        sim.run()
        assert order == [0, 1, 2]
        assert m.in_use == 0

    def test_try_acquire(self):
        # A caller that must not block asks first.
        sim = Simulator()
        m = Resource(sim, capacity=1)
        assert m.available == 1
        m.request()
        assert m.available == 0
        m.release()
        assert m.available == 1

    def test_release_unlocked_raises(self):
        sim = Simulator()
        m = Resource(sim, capacity=1)
        m.request()
        m.release()
        with pytest.raises(SimulationError):
            m.release()


class TestSemaphore:
    """A counting semaphore is an n-unit :class:`Resource`."""

    def test_down_consumes_value(self):
        sim = Simulator()
        s = Resource(sim, capacity=2)
        assert s.request().triggered
        assert s.request().triggered
        assert not s.request().triggered
        assert s.available == 0

    def test_up_wakes_waiter_fifo(self):
        sim = Simulator()
        s = Resource(sim, capacity=1)
        s.request()
        first, second = s.request(), s.request()
        s.release()
        assert first.triggered and not second.triggered

    def test_negative_initial_value_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=-1)


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        r = Resource(sim, capacity=2)
        a, b, c = r.request(), r.request(), r.request()
        assert a.triggered and b.triggered and not c.triggered
        assert r.in_use == 2 and r.available == 0
        r.release()
        assert c.triggered

    def test_release_idle_raises(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=1).release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)


class TestFifoStore:
    def test_put_then_get(self):
        sim = Simulator()
        st = FifoStore(sim)
        st.put("a")
        got = st.get()
        assert got.triggered and got.value == "a"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        st = FifoStore(sim)
        got = st.get()
        assert not got.triggered
        st.put("x")
        assert got.value == "x"

    def test_fifo_ordering(self):
        sim = Simulator()
        st = FifoStore(sim)
        for item in (1, 2, 3):
            st.put(item)
        assert [st.get().value for _ in range(3)] == [1, 2, 3]

    def test_capacity_nonblocking_rejects(self):
        sim = Simulator()
        st = FifoStore(sim, capacity=1, block_on_full=False)
        assert st.try_put("a")
        assert not st.try_put("b")
        assert st.rejected_puts == 1

    def test_capacity_blocking_put_waits(self):
        sim = Simulator()
        st = FifoStore(sim, capacity=1)
        st.put("a")
        pending = st.put("b")
        assert not pending.triggered
        got = st.get()
        assert got.value == "a"
        assert pending.triggered
        assert st.get().value == "b"

    def test_nonblocking_full_put_fails_event(self):
        sim = Simulator(crash_on_process_error=False)
        st = FifoStore(sim, capacity=1, block_on_full=False)
        st.put("a")

        def prog():
            try:
                yield st.put("b")
            except StoreFull:
                return "full"

        p = sim.process(prog())
        sim.run()
        assert p.value == "full"

    def test_drain(self):
        sim = Simulator()
        st = FifoStore(sim)
        st.put(1)
        st.put(2)
        assert st.drain() == [1, 2]
        assert len(st) == 0
