"""Unit tests for the discrete-event engine."""

import ast
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, seen.append, "a")
        sim.run()
        assert seen == ["a"]
        assert sim.now == 100

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for tag in "abcde":
            sim.schedule(50, seen.append, tag)
        sim.run()
        assert seen == list("abcde")

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until_stops_clock_at_deadline(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_processes_events_at_deadline(self):
        sim = Simulator()
        seen = []
        sim.schedule(500, seen.append, 1)
        sim.run(until=500)
        assert seen == [1]

    def test_event_budget_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    @pytest.mark.parametrize("loop", ["run", "run_until_event"])
    def test_event_budget_guard_under_run_ahead(self, loop):
        """A lone sleeper's wake is always the next event, so every
        sleep runs ahead; the budget still ends the livelock."""
        sim = Simulator()

        def spin():
            while True:
                yield 1

        sim.process(spin())
        with pytest.raises(SimulationError):
            if loop == "run":
                sim.run(max_events=100)
            else:
                sim.run_until_event(sim.event(), max_events=100)

    @pytest.mark.parametrize("loop", ["run", "run_until_event"])
    def test_past_stop_leaves_the_clock(self, loop):
        """A stop before ``now`` dispatches nothing, not even what is
        due at ``now``, and never moves the clock back."""
        sim = Simulator()
        seen = []
        sim.run(until=100)
        sim.schedule(0, seen.append, "now")
        sim.schedule(10, seen.append, "later")
        if loop == "run":
            sim.run(until=50)
        else:
            assert not sim.run_until_event(sim.event(), deadline=50)
        assert (sim.now, seen, sim.events_processed) == (100, [], 0)
        sim.run()
        assert (sim.now, seen) == (110, ["now", "later"])

    def test_run_until_event_stops_early(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(10, ev.succeed)
        # a perpetual background process
        ticks = []

        def ticker():
            while True:
                yield sim.timeout(5)
                ticks.append(sim.now)

        sim.process(ticker())
        assert sim.run_until_event(ev, deadline=1000)
        assert sim.now == 10
        assert len(ticks) <= 2

    def test_run_until_event_deadline_miss(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(2000, ev.succeed)
        assert not sim.run_until_event(ev, deadline=100)


class TestCoordinatorHooks:
    """``next_event_time`` and ``advance_to``: what the chain
    coordinator (``repro.sim.shard``) steers the clock with."""

    def test_next_event_time_empty_queue_is_none(self):
        assert Simulator().next_event_time() is None

    def test_next_event_time_is_now_while_nowq_nonempty(self):
        sim = Simulator()
        sim.schedule(700, lambda: None)
        sim.run(until=300)
        sim.schedule(0, lambda: None)
        assert sim.next_event_time() == 300
        sim.run(until=300)
        assert sim.next_event_time() == 700

    def test_next_event_time_pops_cancelled_heads(self):
        sim = Simulator()
        first = sim.schedule(100, lambda: None)
        second = sim.schedule(200, lambda: None)
        sim.schedule(300, lambda: None)
        sim.cancel(first)
        sim.cancel(second)
        assert sim.next_event_time() == 300
        assert len(sim._queue) == 1
        sim.run()
        assert sim.events_processed == 1

    def test_next_event_time_all_cancelled_is_none(self):
        sim = Simulator()
        sim.cancel(sim.schedule(100, lambda: None))
        assert sim.next_event_time() is None
        assert sim._queue == []

    def test_advance_to_moves_clock_without_dispatching(self):
        sim = Simulator()
        seen = []
        sim.schedule(1_000, seen.append, "due")
        sim.advance_to(400)
        assert (sim.now, seen, sim.events_processed) == (400, [], 0)
        sim.run()
        assert (sim.now, seen) == (1_000, ["due"])

    def test_advance_to_past_raises(self):
        sim = Simulator()
        sim.advance_to(500)
        with pytest.raises(SimulationError, match="backwards"):
            sim.advance_to(499)
        assert sim.now == 500


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self):
        ev = Simulator().event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        ev = Simulator().event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [1]

    def test_value_before_trigger_raises(self):
        ev = Simulator().event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_remove_callback(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        cb = lambda e: got.append(1)
        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert got == []


class TestTimeout:
    def test_timeout_fires_after_delay(self):
        sim = Simulator()
        t = sim.timeout(250, value="done")
        sim.run()
        assert t.triggered and t.value == "done"
        assert sim.now == 250

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-5)


class TestProcesses:
    def test_process_advances_time(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(10)
            yield sim.timeout(20)
            return "finished"

        p = sim.process(prog())
        sim.run()
        assert p.value == "finished"
        assert sim.now == 30

    def test_processes_wait_on_each_other(self):
        sim = Simulator()

        def child():
            yield sim.timeout(100)
            return 7

        def parent():
            result = yield sim.process(child())
            return result * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 14

    def test_failed_event_raises_inside_process(self):
        sim = Simulator(crash_on_process_error=False)
        ev = sim.event()

        def prog():
            try:
                yield ev
            except ValueError:
                return "caught"
            return "not caught"

        p = sim.process(prog())
        sim.schedule(5, ev.fail, ValueError("boom"))
        sim.run()
        assert p.value == "caught"

    def test_uncaught_exception_fails_process(self):
        sim = Simulator(crash_on_process_error=False)

        def prog():
            yield sim.timeout(1)
            raise RuntimeError("bad")

        p = sim.process(prog())
        sim.run()
        assert p.triggered and not p.ok

    def test_uncaught_exception_crashes_run_when_configured(self):
        sim = Simulator(crash_on_process_error=True)

        def prog():
            yield sim.timeout(1)
            raise RuntimeError("bad")

        sim.process(prog())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_yield_non_event_fails_process(self):
        # An int is a sleep; anything else that is not an Event is not.
        for junk in ("42", 4.2, None, [42]):
            sim = Simulator(crash_on_process_error=False)

            def prog():
                yield junk

            p = sim.process(prog())
            sim.run()
            assert not p.ok
            assert isinstance(p._value, SimulationError)
            assert repr(junk) in str(p._value)

    @pytest.mark.parametrize("bad", [-1, -42, True, False])
    def test_yield_negative_or_bool_fails_process(self, bad):
        sim = Simulator(crash_on_process_error=False)

        def prog():
            yield bad

        p = sim.process(prog())
        sim.run()
        assert not p.ok and sim.now == 0
        assert isinstance(p._value, SimulationError)
        assert repr(bad) in str(p._value)

    def test_interrupt_waiting_process(self):
        sim = Simulator()

        def prog():
            try:
                yield sim.timeout(1000)
            except Interrupted as exc:
                return f"interrupted:{exc.cause}@{sim.now}"
            return "ran out"

        p = sim.process(prog())
        sim.schedule(10, p.interrupt, "why")
        sim.run()
        # Delivered promptly at t=10, not when the abandoned timeout fires.
        assert p.value == "interrupted:why@10"

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(1)

        p = sim.process(prog())
        sim.run()
        p.interrupt("late")  # must not raise
        sim.run()

    def test_is_alive(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(5)

        p = sim.process(prog())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestCombinators:
    def test_any_of_returns_first(self):
        sim = Simulator()
        a, b = sim.timeout(100), sim.timeout(50)
        any_ev = sim.any_of([a, b])
        sim.run()
        assert any_ev.value is b

    def test_all_of_waits_for_all(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (30, 10, 20)]
        all_ev = sim.all_of(events)
        sim.run()
        assert all_ev.value == [30, 10, 20]
        assert sim.now == 30

    def test_all_of_empty_succeeds(self):
        sim = Simulator()
        all_ev = sim.all_of([])
        sim.run()
        assert all_ev.triggered

    def test_any_of_propagates_failure(self):
        sim = Simulator()
        bad = sim.event()
        any_ev = sim.any_of([sim.timeout(100), bad])
        sim.schedule(5, bad.fail, ValueError("x"))
        sim.run()
        assert any_ev.triggered and not any_ev.ok

    def test_any_of_requires_events(self):
        with pytest.raises(SimulationError):
            Simulator().any_of([])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag))

            for i in range(4):
                sim.process(worker(i, 7 + i))
            sim.run()
            return trace

        assert build() == build()


class TestCancellation:
    def test_cancel_revokes_scheduled_entry(self):
        sim = Simulator()
        seen = []
        entry = sim.schedule(100, seen.append, "x")
        assert sim.cancel(entry)
        sim.schedule(200, seen.append, "y")
        sim.run()
        assert seen == ["y"]

    def test_cancelled_entry_does_not_count_as_processed(self):
        sim = Simulator()
        entry = sim.schedule(100, lambda: None)
        sim.cancel(entry)
        sim.schedule(200, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_twice_returns_false(self):
        sim = Simulator()
        entry = sim.schedule(100, lambda: None)
        assert sim.cancel(entry)
        assert not sim.cancel(entry)

    def test_timeout_cancel_revokes_expiry(self):
        sim = Simulator()
        t = sim.timeout(500)
        assert t.cancel()
        sim.schedule(1000, lambda: None)
        sim.run()
        assert not t.triggered

    def test_timeout_cancel_refused_while_waited_on(self):
        sim = Simulator()
        t = sim.timeout(500)

        def waiter():
            yield t

        sim.process(waiter())
        sim.run(until=0)  # let the process reach its yield
        assert not t.cancel()
        sim.run()
        assert t.triggered

    def test_timeout_cancel_after_trigger_returns_false(self):
        sim = Simulator()
        t = sim.timeout(10)
        sim.run()
        assert t.triggered
        assert not t.cancel()

    def test_any_of_cancels_losing_timeout(self):
        """The RPC wait pattern: when the reply wins, the deadline
        timeout's queue entry must be revoked, not left to churn."""
        sim = Simulator()
        reply = sim.event("reply")
        deadline = sim.timeout(1_000_000)
        winner_box = []

        def waiter():
            winner = yield sim.any_of([reply, deadline])
            winner_box.append(winner)

        sim.process(waiter())
        sim.schedule(100, reply.succeed, "ok")
        sim.run()
        assert winner_box == [reply]
        assert not deadline.triggered
        assert deadline._entry is None or deadline._entry[2] is None

    def test_interrupt_cancels_abandoned_timeout(self):
        sim = Simulator()
        t = sim.timeout(1_000_000)

        def sleeper():
            try:
                yield t
            except Interrupted:
                return "interrupted"

        proc = sim.process(sleeper())
        sim.schedule(10, proc.interrupt, "wake")
        sim.run()
        assert proc.value == "interrupted"
        assert not t.triggered
        assert t._entry is None or t._entry[2] is None


def _dispatch_trace():
    """A mixed schedule exercising the same-instant deque and the heap."""
    sim = Simulator()
    trace = []

    def note(tag):
        trace.append((sim.now, tag))

    # zero-delay entries and timed ones on both sides of the old timer
    # wheel's slot (65,536 ns) and horizon (4096 slots) boundaries
    delays = [0, 1, 100, 65_535, 65_536, 70_000, 1_000_000,
              300_000_000, 500_000_000]
    for i, d in enumerate(delays):
        sim.schedule(d, note, f"d{i}")
    # same-instant ties scheduled later must fire after earlier ones
    sim.schedule(100, note, "tie")

    def proc(tag, gap, n):
        for _ in range(n):
            yield sim.timeout(gap)
            note(tag)

    for i in range(3):
        sim.process(proc(f"p{i}", 40_000 + i * 13_000, 8))
    cancelled = sim.schedule(200_000, note, "never")
    sim.cancel(cancelled)
    sim.run()
    return trace, sim.events_processed, sim.now


#: what the classic single binary heap (``Simulator(wheel=False)``,
#: deleted in PR 18) printed for ``_dispatch_trace`` at c371ead
HEAP_DISPATCH_TRACE = (
    [(0, "d0"), (1, "d1"), (100, "d2"), (100, "tie"), (40000, "p0"),
     (53000, "p1"), (65535, "d3"), (65536, "d4"), (66000, "p2"),
     (70000, "d5"), (80000, "p0"), (106000, "p1"), (120000, "p0"),
     (132000, "p2"), (159000, "p1"), (160000, "p0"), (198000, "p2"),
     (200000, "p0"), (212000, "p1"), (240000, "p0"), (264000, "p2"),
     (265000, "p1"), (280000, "p0"), (318000, "p1"), (320000, "p0"),
     (330000, "p2"), (371000, "p1"), (396000, "p2"), (424000, "p1"),
     (462000, "p2"), (528000, "p2"), (1000000, "d6"), (300000000, "d7"),
     (500000000, "d8")],
    61, 500000000)


class _Ledger:
    """Schedules through ``sim.schedule`` and keeps every entry's key,
    so a test can state the queue's contract without a second queue to
    compare against: every live entry dispatches once, at its own time,
    and dispatches are strictly increasing in ``(time, schedule seq)``."""

    def __init__(self, sim):
        self.sim = sim
        self.keys = {}
        self.fired = []

    def schedule(self, delay, tag, then=None):
        def fire():
            assert self.sim.now == self.keys[tag][0]
            self.fired.append(tag)
            if then is not None:
                then()

        entry = self.sim.schedule(delay, fire)
        self.keys[tag] = (entry[0], entry[1])
        return entry

    def check(self, cancelled=()):
        order = [self.keys[tag] for tag in self.fired]
        assert all(a < b for a, b in zip(order, order[1:])), order
        assert sorted(self.fired) == sorted(set(self.keys) - set(cancelled))


#: zero delays (the same-instant deque) and positive ones (the heap),
#: on both sides of every boundary of the timer wheel the heap replaced:
#: its near slots, its slots of 65,536 ns and its 4096-slot horizon
_TIER_DELAYS = st.sampled_from([
    0, 0, 1, 100, 65_535, 65_536, 131_071, 196_608, 196_609, 262_144,
    1_000_000, 268_435_455, 268_435_456, 268_500_000, 300_000_000])


#: the deleted timer wheel's slot width and horizon, kept as the
#: boundaries the heap must order across
_SLOT_NS = 65_536
_HORIZON_NS = 4096 * _SLOT_NS


class TestTimerWheel:
    """The one heap behind the same-instant deque, pinned where the
    timer wheel it replaced kept its tier boundaries."""

    def test_wheel_and_heap_dispatch_identically(self):
        assert _dispatch_trace() == HEAP_DISPATCH_TRACE

    @settings(max_examples=150, deadline=None)
    @given(plan=st.lists(st.tuples(_TIER_DELAYS,
                                   st.lists(_TIER_DELAYS, max_size=3),
                                   st.booleans()), max_size=30),
           stops=st.lists(st.integers(0, 600_000_000), max_size=3))
    def test_dispatch_order_is_time_then_schedule_seq(self, plan, stops):
        """The ordering contract, stated on the one queue: entries land
        in the deque or the heap, some schedule more from inside their
        callback, some are cancelled, and ``run(until=)`` stops and
        resumes the clock in between."""
        sim = Simulator()
        ledger = _Ledger(sim)
        cancelled = []
        for i, (delay, children, cancel) in enumerate(plan):
            def spawn(i=i, children=children):
                for j, d in enumerate(children):
                    ledger.schedule(d, (i, j))

            entry = ledger.schedule(delay, (i, -1), then=spawn)
            if cancel:
                assert sim.cancel(entry)
                cancelled.append((i, -1))
        for until in sorted(stops):
            sim.run(until=until)
            assert sim.now == until
        sim.run()
        ledger.check(cancelled)
        assert sim.events_processed == len(ledger.fired)

    def test_far_future_timer_beyond_horizon_fires(self):
        sim = Simulator()
        seen = []
        # ~500 ms: past the old wheel horizon, still one heap entry.
        sim.schedule(500_000_000, seen.append, "far")
        sim.run()
        assert seen == ["far"] and sim.now == 500_000_000

    def test_run_until_fast_forwards_wheel_cursor(self):
        sim = Simulator()
        seen = []
        sim.schedule(10_000_000, seen.append, "late")
        sim.run(until=5_000_000)
        assert seen == [] and sim.now == 5_000_000
        sim.run()
        assert seen == ["late"] and sim.now == 10_000_000

    def test_wheel_env_escape_hatch(self, monkeypatch):
        """The hatch is closed: ``HIVE_WHEEL=0`` selects nothing."""
        monkeypatch.setenv("HIVE_WHEEL", "0")
        assert _dispatch_trace() == HEAP_DISPATCH_TRACE

    def test_slot_boundary_entries_dispatch_in_order(self):
        """Entries landing exactly on a slot boundary (t a multiple of
        the old wheel's slot width) neither fire early nor are skipped."""
        width = _SLOT_NS
        sim = Simulator()
        ledger = _Ledger(sim)
        # exactly on the boundary, one before, one after — across
        # several consecutive slots
        for k in range(3, 8):
            ledger.schedule(k * width - 1, (k, "pre"))
            ledger.schedule(k * width, (k, "on"))
            ledger.schedule(k * width + 1, (k, "post"))
        sim.run()
        ledger.check()
        # what the single heap gave at c371ead
        assert ledger.fired == [(k, where) for k in range(3, 8)
                                for where in ("pre", "on", "post")]
        assert (sim.now, sim.events_processed) == (458_753, 15)

    def test_cursor_wrap_at_wheel_slots(self):
        """Timers a full old-wheel revolution apart (which shared one
        physical slot) fire in two epochs, not one."""
        width = _SLOT_NS
        horizon = _HORIZON_NS
        sim = Simulator()
        ledger = _Ledger(sim)
        slot_t = 100 * width + 7
        # First epoch: inside the old horizon.
        ledger.schedule(slot_t, "epoch0")
        # Scheduled from t=slot_t: one full revolution later, same slot
        # index modulo 4096.
        ledger.schedule(slot_t, "reschedule",
                        then=lambda: ledger.schedule(horizon, "epoch1"))
        # A sentinel between the epochs proves epoch1 did not fire
        # with epoch0's slot flush.
        ledger.schedule(slot_t + horizon // 2, "mid")
        sim.run()
        ledger.check()
        # what the single heap gave at c371ead
        assert ledger.fired == ["epoch0", "reschedule", "mid", "epoch1"]
        assert (sim.now, sim.events_processed) == (274_989_063, 4)

    def test_heap_compaction_at_exact_threshold(self):
        """Crossing ``_COMPACT_MIN_DEAD`` cancelled entries (while dead
        entries outnumber half the heap) compacts the queue in place —
        and the survivors still dispatch correctly."""
        from repro.sim.engine import _COMPACT_MIN_DEAD

        sim = Simulator()
        seen = []
        # Every positive-delay entry sits in the heap.
        doomed = [sim.schedule(500_000_000 + i, seen.append, f"dead{i}")
                  for i in range(_COMPACT_MIN_DEAD + 1)]
        keep = [sim.schedule(600_000_000 + i, seen.append, f"keep{i}")
                for i in range(10)]
        # Cancel up to the threshold: entries are cleared in place but
        # stay in the heap (compaction requires dead > _COMPACT_MIN_DEAD
        # *and* dead majority).
        for entry in doomed[:_COMPACT_MIN_DEAD]:
            assert sim.cancel(entry)
        assert sim._dead == _COMPACT_MIN_DEAD
        assert len(sim._queue) == _COMPACT_MIN_DEAD + 1 + len(keep)
        # One more cancellation crosses the threshold -> compaction.
        assert sim.cancel(doomed[_COMPACT_MIN_DEAD])
        assert sim._dead == 0
        assert len(sim._queue) == len(keep)
        assert all(e[2] is not None for e in sim._queue)
        # Cancelling an already-cancelled entry is a no-op.
        assert not sim.cancel(doomed[0])
        sim.run()
        assert seen == [f"keep{i}" for i in range(10)]
        assert sim.events_processed == len(keep)

    def test_run_until_event_equivalent_across_modes(self):
        sim = Simulator()
        done = sim.event("done")

        def ticker():
            for _ in range(50):
                yield sim.timeout(30_000)

        def finisher():
            yield sim.timeout(400_000)
            done.succeed("yes")

        sim.process(ticker())
        sim.process(finisher())
        fired = sim.run_until_event(done, deadline=sim.now + 10_000_000)
        # what _run_until_event_heap gave at c371ead
        assert (fired, sim.now, sim.events_processed) == (True, 400_000, 30)


# -- sleeps: ``yield <int ns>`` ---------------------------------------------

#: delays and instants picked to collide: same-instant ties between
#: wakeups, triggers and interrupts are where the two spellings of a
#: sleep could come apart (the last two are past the old wheel's near
#: slots)
_DELAYS = st.sampled_from([0, 1, 5, 5, 10, 100, 1_000, 70_000, 300_000])
_INSTANTS = st.sampled_from([0, 1, 5, 10, 15, 20, 100, 105, 1_000, 70_005])
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    # interrupt process `target` after `delay`: an entry queued behind a
    # sleep that ends at the same instant lands between the sleeper's
    # wakeup and its resume
    st.tuples(st.just("poke"), st.tuples(_DELAYS, st.integers(0, 4)))),
    max_size=8)


def _run_program(programs, interrupts, as_event, stops=()):
    """Run processes made of sleeps, event waits, triggers and
    interrupts of each other, with more interrupts thrown in from
    outside; ``as_event`` spells every sleep ``yield sim.timeout(n)``
    instead of ``yield n``.  Each of ``stops`` is a ``run(until=)``
    before the final ``run()``, noted with the clock it left."""
    sim = Simulator(crash_on_process_error=False)
    events = [sim.event(f"e{k}") for k in range(3)]
    resumes = []

    def body(i, steps):
        for j, (kind, arg) in enumerate(steps):
            try:
                if kind == "sleep":
                    yield sim.timeout(arg) if as_event else arg
                elif kind == "wait":
                    yield events[arg]
                elif kind == "poke":
                    delay, target = arg
                    sim.schedule(delay, procs[target % len(procs)].interrupt,
                                 (i, j))
                elif not events[arg].triggered:
                    events[arg].succeed()
            except Interrupted as exc:
                resumes.append((i, j, sim.now, "interrupted", exc.cause))
            else:
                resumes.append((i, j, sim.now, kind))

    procs = [sim.process(body(i, steps), name=f"p{i}")
             for i, steps in enumerate(programs)]
    for k, (at, target) in enumerate(interrupts):
        sim.schedule(at, procs[target % len(procs)].interrupt, k)
    for until in stops:
        sim.run(until=until)
        resumes.append(("stop", until, sim.now))
    sim.run()
    return sim, (sim.now, resumes, sim.events_processed)


#: programs in which a second interrupt, queued in the same instant as
#: the first, is delivered into the wait the first one's handler began.
#: Until PR 20 the delivery left that wait armed, and what it had armed
#: then ended a *later* wait early.  Each is (programs, interrupts):
#: the wait's target fired before the interrupts; the wait's target had
#: fired before the process even yielded it, twice over; the wait's
#: target fires between the two deliveries.
_SECOND_DELIVERY_PROGRAMS = [
    ([[("wait", 2), ("sleep", 100), ("sleep", 1_000)], [("fire", 2)]],
     [(0, 0), (0, 0)]),
    ([[], [], [], [("fire", 0)],
      [("wait", 0), ("wait", 0), ("sleep", 0), ("sleep", 0)]],
     [(0, 4), (0, 4)]),
    ([[("wait", 0), ("wait", 1), ("sleep", 100), ("sleep", 1_000)],
      [("fire", 0)], [("sleep", 5), ("fire", 1)]],
     [(0, 0), (0, 2), (0, 0)]),
]


#: the shortest program hypothesis found on which a sleep that checked
#: for a pending interrupt only at its wake ran ahead of it
_SELF_POKED_TWICE = [("poke", (0, 0)), ("poke", (0, 0)), ("sleep", 0),
                     ("sleep", 0)]


class TestSleep:
    def test_sleep_resumes_after_delay_with_none(self):
        sim = Simulator()

        def prog():
            got = yield 250
            return got, sim.now

        p = sim.process(prog())
        sim.run()
        assert p.value == (None, 250)
        # start, the sleep's entry, the resume: what a timeout costs
        assert sim.events_processed == 3

    def test_interrupt_mid_sleep(self):
        sim = Simulator()

        def prog():
            try:
                yield 1_000
            except Interrupted as exc:
                return exc.cause, sim.now
            return "slept through"

        p = sim.process(prog())
        sim.schedule(10, p.interrupt, "why")
        sim.run()
        assert p.value == ("why", 10)
        # The revoked entry neither fired nor moved the clock nor counted:
        # start, the interrupt call, its delivery.
        assert sim.now == 10
        assert sim.events_processed == 3

    def test_interrupted_sleeper_can_sleep_again(self):
        sim = Simulator()

        def prog():
            try:
                yield 1_000
            except Interrupted:
                yield 30
            return sim.now

        p = sim.process(prog())
        sim.schedule(10, p.interrupt)
        sim.run()
        assert p.value == 40 and sim.now == 40

    def test_dead_process_pending_sleep_is_a_no_op(self):
        sim = Simulator()
        ran = []

        def prog():
            yield 100
            ran.append(sim.now)

        p = sim.process(prog())
        sim.run(until=0)  # reach the sleep
        p.succeed("killed")
        sim.run()
        assert ran == [] and p.value == "killed"
        p.interrupt("late")  # dead: nothing scheduled
        sim.run()
        assert sim.now == 100

    @settings(max_examples=120, deadline=None)
    @given(programs=st.lists(_STEPS, min_size=1, max_size=5),
           interrupts=st.lists(st.tuples(_INSTANTS, st.integers(0, 4)),
                               max_size=6),
           stops=st.lists(_INSTANTS, max_size=3))
    @example(*_SECOND_DELIVERY_PROGRAMS[0], [])
    @example(*_SECOND_DELIVERY_PROGRAMS[1], [])
    @example(*_SECOND_DELIVERY_PROGRAMS[2], [])
    @example([_SELF_POKED_TWICE], [], [])
    @example([[("sleep", 100)] * 3], [], [150, 100, 300])
    def test_sleep_is_a_timeout_event_for_event(self, programs, interrupts,
                                                stops):
        """``yield n`` and ``yield sim.timeout(n)`` give the same clock,
        the same order of resumes and the same ``events_processed``,
        also across ``run(until=)`` stops (in any order: a past one
        does nothing).  A timeout never runs ahead, so it is the
        oracle for a sleep that does."""
        _, slept = _run_program(programs, interrupts, False, stops)
        _, waited = _run_program(programs, interrupts, True, stops)
        assert slept == waited

    def test_self_interrupted_twice_then_sleep_zero(self):
        """A process with an interrupt pending is interrupted at its next
        sleep, even one whose wake would be the next event."""
        sim = Simulator()
        got = []

        def prog():
            me.interrupt("a")
            me.interrupt("b")
            for _ in range(3):
                try:
                    yield 0
                except Interrupted as exc:
                    got.append((sim.now, exc.cause))
                else:
                    got.append((sim.now, "slept"))

        me = sim.process(prog())
        sim.run()
        assert got == [(0, "a"), (0, "b"), (0, "slept")]

    def test_run_until_ends_at_the_stop_with_a_lone_sleeper(self):
        sim = Simulator()
        wakes = []

        def sleeper():
            while True:
                yield 100
                wakes.append(sim.now)

        sim.process(sleeper())
        sim.run(until=1_050)
        assert sim.now == 1_050
        assert wakes == list(range(100, 1_001, 100))
        sim.run(until=1_100)
        assert sim.now == 1_100 and wakes[-1] == 1_100
        # the start, then an entry and a resume per wake
        assert sim.events_processed == 1 + 2 * 11

    def test_run_until_event_returns_when_the_runner_triggers_it(self):
        """The target has no callbacks, so its trigger queues nothing;
        the loop must still stop at the instant the process that is
        running triggered it, not at that process's next wake."""
        sim = Simulator()
        done = sim.event("done")

        def prog():
            yield 10
            done.succeed()
            yield 100
            yield 100

        p = sim.process(prog())
        assert sim.run_until_event(done)
        assert sim.now == 10 and p.is_alive
        sim.run()
        assert sim.now == 210

    @pytest.mark.parametrize("as_event", [False, True],
                             ids=["yield_ns", "yield_timeout"])
    def test_second_interrupt_ends_the_wait_it_lands_in(self, as_event):
        """At 094e03b the first program's 1,000 ns sleep returned at
        t = 100 and the third's 100 ns sleep at t = 0."""
        for index, tail in ((0, [(0, 2, 1_000, "sleep")]),
                            (2, [(0, 2, 100, "sleep"),
                                 (0, 3, 1_100, "sleep")])):
            sim, (now, resumes, _) = _run_program(
                *_SECOND_DELIVERY_PROGRAMS[index], as_event)
            assert resumes[-len(tail):] == tail
            assert now == tail[-1][2]
            # nothing left armed for the finished processes
            assert sim.next_event_time() is None

    def test_heap_env_escape_runs_the_same_program(self, monkeypatch):
        programs = [[("sleep", 5), ("wait", 0), ("sleep", 70_000)],
                    [("sleep", 5), ("fire", 0), ("sleep", 0)]]
        interrupts = [(5, 0), (70_005, 0)]
        monkeypatch.setenv("HIVE_WHEEL", "0")
        _, outcome = _run_program(programs, interrupts, False)
        # what the heap (which that variable used to select) gave at
        # c371ead; the variable selects nothing now
        assert outcome == (70_005, [
            (0, 0, 5, "interrupted", 0), (1, 0, 5, "sleep"),
            (1, 1, 5, "fire"), (0, 1, 5, "wait"), (1, 2, 5, "sleep"),
            (0, 2, 70_005, "interrupted", 1)], 11)

    def test_one_idiom_for_a_sleep_in_src(self):
        """No statement-level ``yield <x>.timeout(...)`` in src/repro:
        ``sim.timeout`` is for the places that need an Event."""
        pattern = re.compile(r"^\s*yield .*\.timeout\(", re.M)
        root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        hits = [f"{path.relative_to(root)}:{text.count(chr(10), 0, m.start()) + 1}"
                for path in sorted(root.rglob("*.py"))
                for text in [path.read_text()]
                for m in pattern.finditer(text)]
        assert hits == []


class TestInlineStart:
    def test_runs_to_its_first_yield_inside_the_call(self):
        sim = Simulator()
        log = []

        def prog():
            log.append(sim.now)
            yield 5

        sim.process(prog(), inline=True)
        assert log == [0]
        sim.process(prog())
        assert log == [0]

    def test_costs_one_event_fewer_than_a_deferred_start(self):
        def run(inline):
            sim = Simulator()

            def prog():
                yield 5
                yield sim.timeout(7)
                return sim.now

            p = sim.process(prog(), inline=inline)
            queued = sim.next_event_time()
            sim.run()
            return p.value, queued, sim.events_processed

        assert run(True) == (12, 5, run(False)[2] - 1)
        assert run(False)[:2] == (12, 0)

    def test_first_sleep_runs_ahead_inside_a_loop(self):
        sim = Simulator()
        seen = []

        def prog():
            yield 5
            seen.append(sim.now)

        def start():
            sim.process(prog(), inline=True)
            seen.append(("returned", sim.now))

        sim.schedule(10, start)
        sim.run()
        assert seen == [15, ("returned", 15)]
        # the entry's dispatch, plus the two the sleep's entry would have
        assert sim.events_processed == 3

    def test_a_finished_process_is_freed_without_the_collector(self):
        """Nothing of a finished process forms a reference cycle, so a
        per-message process leaves no garbage for the cyclic collector."""
        import gc

        def prog():
            yield 5
            yield sim.event().succeed()

        def processes():
            return sum(type(o) is Process for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = processes()
            sim = Simulator()
            for inline in (True, False):
                sim.process(prog(), inline=inline)
            sim.run()
            del sim
            left = processes() - before
        finally:
            gc.enable()
        assert left == 0

    def test_error_before_the_first_yield(self):
        def prog():
            raise RuntimeError("bad")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            Simulator().process(prog(), inline=True)
        sim = Simulator(crash_on_process_error=False)
        p = sim.process(prog(), inline=True)
        assert p.triggered and not p.ok
        assert isinstance(p.value, RuntimeError)
        assert sim.next_event_time() is None


#: engine internals no module of src/repro but sim/engine.py touches
_ENGINE_PRIVATE = frozenset({
    "_nowq", "_run_ahead", "_ahead_to", "_ahead_stop", "_ahead_cap",
    "_callbacks", "_triggered", "_ok"})


def _engine_private_uses(rel, text):
    """``rel:line`` of each generator step (``.throw(``) and each read
    or store of an engine internal in one module's source."""
    lines = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute):
            if node.attr in _ENGINE_PRIVATE:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "throw":
                lines.append(node.lineno)
            elif (isinstance(func, ast.Name)
                  and func.id in ("getattr", "setattr", "hasattr")
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in _ENGINE_PRIVATE):
                lines.append(node.lineno)
    return [f"{rel}:{n}" for n in sorted(lines)]


class TestEngineOwnsInternals:
    def test_only_the_engine_drives_generators_and_events(self):
        """Outside ``sim/engine.py`` no module of src/repro throws into
        a generator or touches an event's or the queue's internals: the
        engine's ``Process`` is the one coroutine driver."""
        root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        hits = []
        engine = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            found = _engine_private_uses(rel, path.read_text())
            (engine if rel == "sim/engine.py" else hits).extend(found)
        assert engine and hits == [], hits

    def test_self_test_catches_each_kind(self):
        planted = "\n".join([
            "gen.throw(exc)",
            "ev._callbacks = []",
            "ok = ev._ok",
            "if sim._nowq: pass",
            "sim._run_ahead(5)",
            "x = getattr(ev, '_triggered')",
            "setattr(sim, '_ahead_to', -1)",
            "ev.triggered",
            "gen.send(None)",
        ])
        assert _engine_private_uses("m.py", planted) == [
            f"m.py:{n}" for n in range(1, 8)]


class TestClockOwner:
    def test_only_the_engine_sets_the_clock(self):
        """Inside src/repro only ``sim/engine.py`` stores to a ``.now``
        attribute, so the rule for moving the clock (a dispatch, a
        run-ahead, ``advance_to``) stays in one module."""
        root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        hits = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "setattr"
                      and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)
                      and node.args[1].value == "now"):
                    hits.append(f"{rel}:{node.lineno}")
                    continue
                else:
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if (isinstance(sub, ast.Attribute)
                                and sub.attr == "now"
                                and isinstance(sub.ctx, ast.Store)):
                            hits.append(f"{rel}:{node.lineno}")
        assert hits and all(h.startswith("sim/engine.py:") for h in hits), \
            hits
