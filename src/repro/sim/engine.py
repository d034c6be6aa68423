"""Core discrete-event engine: simulator clock, events, and processes.

Time is an integer number of nanoseconds.  The engine is a classic
event-queue design; coroutine processes are Python generators that yield
:class:`Event` objects and are resumed when those events trigger, or
yield a plain ``int`` number of nanoseconds to sleep that long.

The queue has two tiers:

* a **same-instant batch** (``_nowq``): zero-delay entries — mostly
  event-trigger callback dispatches — go to a FIFO deque instead of the
  heap, since they fire at the current instant anyway;
* a **binary heap** (``_queue``) for every positive-delay entry, keyed
  by ``(time, seq)``.

Entries are mutable ``[time, seq, fn, args]`` lists so they can be
*cancelled* in place (:meth:`Simulator.cancel`, :meth:`Timeout.cancel`):
a cancelled entry has its callback slot cleared and is skipped — without
counting as a processed event — when it surfaces.  When many cancelled
entries accumulate in the heap it is compacted in place.

Determinism guarantees
----------------------
* Events scheduled for the same instant fire in the order they were
  scheduled: dispatch is keyed by ``(time, seq)`` across both tiers, so
  a heap entry due now fires before any deque entry scheduled after it.
  :meth:`Simulator.schedule` is the one place a timed entry gets its
  key.
* **Run-ahead.** A sleep whose wake is the next event runs inline
  (:meth:`Simulator._run_ahead`): when the same-instant deque is empty,
  the heap's head is strictly later than the wake, the wake is within
  the running loop's stop, the ``run_until_event`` target has not
  triggered and the sleeper has no interrupt pending, the clock moves
  to the wake and the sleeper resumes in the same call, with no queue
  entry.  The wake takes the ``seq`` and counts the two dispatches its
  entry would have, and draws on the loop's ``max_events`` budget, so
  dispatch order, keys, ``events_processed`` and the clock are what
  the queue gives; only host work goes.  A loop's cached clock goes
  stale across such a callback, but a run-ahead leaves no heap entry at
  or before the clock it moved to, so the loop's same-instant test
  answers alike.
* The clock never moves backwards: a ``run`` / ``run_until_event`` stop
  already past dispatches nothing.
* Nothing in the engine consults wall-clock time or global randomness.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

#: compact the heap when more than this many cancelled entries exist and
#: they outnumber the live ones.
_COMPACT_MIN_DEAD = 256

#: a run loop's run-ahead bound when it has no stop time
_NEVER = 1 << 62


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. double-triggering an event)."""


class Interrupted(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either successfully (with a
    ``value``) or as a failure (with an exception that is re-raised inside
    every waiting process).  Callbacks added after triggering fire
    immediately at the current simulation time.
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_ok", "_value")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: Optional[list] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as a failure; ``exc`` is raised in waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._trigger(ok=False, value=exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        # Inlined sim.schedule(0, cb, self): triggering is the hottest
        # scheduling site and the delay is a constant zero.
        sim = self.sim
        now = sim.now
        seq = sim._seq
        args = (self,)
        nowq = sim._nowq
        for cb in callbacks:
            seq += 1
            nowq.append([now, seq, cb, args])
        sim._seq = seq

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._callbacks is None:
            # Already triggered: deliver asynchronously at the current time
            # so callers observe a consistent (always-deferred) ordering.
            self.sim.schedule(0, cb, self)
        else:
            self._callbacks.append(cb)

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._callbacks is not None and cb in self._callbacks:
            self._callbacks.remove(cb)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    For the places that need an Event (``any_of`` children, a stored
    deadline); a process that only sleeps yields the delay itself.

    A pending timeout with no remaining waiters can be :meth:`cancel`\\ ed
    — its queue entry is cleared in place and never fires.  ``AnyOf``
    cancels losing timeout children automatically so an RPC reply that
    wins the race against its deadline no longer leaves a dead entry
    churning the heap for the rest of the deadline window.
    """

    __slots__ = ("_entry",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim, name="timeout")
        self._entry = sim.schedule(delay, self._expire, value)

    def cancel(self) -> bool:
        """Cancel a pending timeout nobody waits on.

        Returns True if the scheduled expiry was revoked.  A timeout that
        already triggered, or that still has registered callbacks, is
        left alone (someone is waiting on it).
        """
        if self._triggered or self._callbacks:
            return False
        entry = self._entry
        if entry is None or entry[2] is None:
            return False
        self._entry = None
        return self.sim.cancel(entry)

    def _expire(self, value: Any) -> None:
        # Someone may have triggered it by hand before the deadline.
        if not self._triggered:
            self._trigger(True, value)


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is the event that won.  A failing child fails the AnyOf.
    On trigger, the AnyOf detaches from the losing children and cancels
    loser timeouts outright — a pattern like ``any_of([reply, deadline])``
    no longer leaves the deadline's entry dead in the queue.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed(ev)
        else:
            self.fail(ev._value)
        for child in self._children:
            if child is not ev and not child._triggered:
                child.remove_callback(self._child_done)
                if type(child) is Timeout and not child._callbacks:
                    child.cancel()


class AllOf(Event):
    """Triggers when all of several events have triggered successfully."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            sim.schedule(0, lambda _ev=None: self.succeed([]))
            return
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


ProcessGen = Generator[Union[Event, int], Any, Any]


class Process(Event):
    """A coroutine process driven by the simulator.

    The wrapped generator yields :class:`Event` instances; the process
    resumes (with the event's value) when each triggers.  The Process is
    itself an Event that triggers with the generator's return value, so
    processes can wait on each other (*join*).

    ``yield <int ns>`` is a sleep: one queue entry pointing at the
    process's own :meth:`_wake`, no :class:`Timeout` object.  It orders
    against same-instant entries exactly as ``yield sim.timeout(ns)``
    does and counts the same two dispatches (the entry, the resume), so
    the two spellings are interchangeable event for event; use
    ``sim.timeout`` only where an Event is needed (``any_of`` children,
    a stored deadline).  A sleep whose wake is the next event takes no
    entry at all: ``_step`` runs it ahead (module docstring).

    ``inline=True`` runs the first step inside the call, with no start
    entry and so no event: only for a generator with no side effect
    before its first yield (an interrupt handler's service routine).
    """

    __slots__ = ("gen", "_waiting_on", "_interrupts", "_resume_cb",
                 "_sleep", "_wake_cb", "_resume_s_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "",
                 inline: bool = False):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        self._interrupts: list = []
        # Cached bound methods: _step registers one of these on every
        # yield, and building the bound method fresh each time was a
        # measurable allocation.
        self._resume_cb = self._resume
        # Queue entry of the sleep in progress.  It stays set, marked
        # fired, while a woken process waits its turn behind other
        # same-instant entries.
        self._sleep: Optional[list] = None
        self._wake_cb = self._wake
        self._resume_s_cb = self._resume_s
        if inline:
            self._step(Process._OP_NEXT, None)
        else:
            sim.schedule(0, self._resume_cb, None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _trigger(self, ok: bool, value: Any) -> None:
        super()._trigger(ok, value)
        # A finished process is never resumed.  Each cached bound method
        # is a reference cycle, so drop them: refcounting then frees the
        # process instead of the cyclic collector.
        self._resume_cb = self._wake_cb = self._resume_s_cb = None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process.

        If the process is waiting on an event or sleeping, it stops
        waiting and the interrupt is delivered at the current time.
        Interrupting a dead process is a no-op.
        """
        if self._triggered:
            return
        self._interrupts.append(Interrupted(cause))
        if self._sleep is not None or self._waiting_on is not None:
            self._detach()
            self.sim.schedule(0, self._deliver_interrupt)

    def _detach(self) -> None:
        """Stop waiting: nothing this wait armed may resume the process.

        A wait that already fired has its resume queued where it cannot
        be revoked; ``_resume`` / ``_resume_s`` recognize it as stale.
        """
        sleep = self._sleep
        if sleep is not None:
            # Revoked in place: the entry never fires or counts (a no-op
            # if it fired already and only the resume is outstanding).
            self._sleep = None
            self.sim.cancel(sleep)
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            waiting.remove_callback(self._resume_cb)
            if type(waiting) is Timeout and not waiting._callbacks:
                # The abandoned wait target would otherwise fire into the
                # void much later; drop its queue entry now.
                waiting.cancel()

    # ``_step`` op codes: resume the generator with next/send/throw.
    _OP_NEXT, _OP_SEND, _OP_THROW = 0, 1, 2

    def _deliver_interrupt(self, _ev: Any = None) -> None:
        if self._triggered or not self._interrupts:
            return
        # A second delivery queued in one instant lands in the wait the
        # first one's handler began: end that wait, or what it armed
        # fires into a later one.
        self._detach()
        exc = self._interrupts.pop(0)
        self._step(Process._OP_THROW, exc)

    def _resume(self, ev: Optional[Event]) -> None:
        if self._triggered:
            return
        if self._interrupts:
            # An interrupt raced with the event; the interrupt wins.
            self.sim.schedule(0, self._deliver_interrupt)
            return
        if ev is not self._waiting_on:
            # The resume of a wait an interrupt has since ended.
            return
        self._waiting_on = None
        if ev is None:
            self._step(Process._OP_NEXT, None)
        elif ev._ok:
            self._step(Process._OP_SEND, ev._value)
        else:
            self._step(Process._OP_THROW, ev._value)

    def _wake(self) -> None:
        # A sleep's queue entry fired: Timeout._expire for a sleeper.
        sim = self.sim
        queue = sim._queue
        # A fired entry reads as cancelled, so an interrupt landing
        # before the resume revokes nothing.
        sleep = self._sleep
        sleep[2] = None
        if sim._nowq or (queue and queue[0][0] == sim.now):
            # Other entries are queued for this instant, all scheduled
            # before this wakeup: resume behind them, as a timeout's
            # waiter would.
            sim.schedule(0, self._resume_s_cb, sleep)
            return
        # Nothing else is due now, so the resume is what the loop would
        # pop next; run it here, counted as the dispatch it replaces.
        sim.events_processed += 1
        self._resume_s(sleep)

    def _resume_s(self, sleep: list) -> None:
        if self._triggered:
            return
        if self._interrupts:
            self.sim.schedule(0, self._deliver_interrupt)
        elif sleep is self._sleep:
            # (else: the resume of a sleep an interrupt has since ended)
            self._sleep = None
            self._step(Process._OP_SEND, None)

    def _step(self, op: int, arg: Any) -> None:
        gen = self.gen
        sim = self.sim
        while True:
            try:
                if op == 1:
                    target = gen.send(arg)
                elif op == 0:
                    target = next(gen)
                else:
                    target = gen.throw(arg)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupted as exc:
                # An interrupt the process chose not to catch terminates
                # it; that is normal cancellation, never a simulation
                # error.
                self.fail(exc)
                return
            except Exception as exc:
                if sim.crash_on_process_error:
                    raise
                self.fail(exc)
                return
            if type(target) is not int:
                break
            # A bare delay (bool is not a delay).
            if target < 0:
                self.fail(SimulationError(
                    f"process {self.name!r} yielded negative sleep "
                    f"{target!r}"))
                return
            if self._interrupts or not sim._run_ahead(target):
                self._sleep = sim.schedule(target, self._wake_cb)
                return
            op, arg = 1, None
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        self._waiting_on = target
        # Inlined target.add_callback(self._resume): every yield of an
        # Event lands here and no subclass customizes registration.
        callbacks = target._callbacks
        if callbacks is None:
            sim.schedule(0, self._resume_cb, target)
        else:
            callbacks.append(self._resume_cb)


class Simulator:
    """The event loop.  ``now`` is the current time in nanoseconds."""

    __slots__ = ("now", "_queue", "_seq", "crash_on_process_error",
                 "events_processed", "_nowq", "_dead", "_ahead_to",
                 "_ahead_stop", "_ahead_cap")

    def __init__(self, crash_on_process_error: bool = True):
        self.now: int = 0
        self._queue: list = []
        self._seq = 0
        #: If True (the default), an uncaught exception inside a process
        #: aborts the whole simulation run.  Fault-injection experiments
        #: set this False so a crashing cell fails only its own processes.
        self.crash_on_process_error = crash_on_process_error
        #: total events dispatched over the simulator's lifetime, across
        #: all run calls (the throughput benchmark's events/sec numerator).
        #: Cancelled entries never count.
        self.events_processed: int = 0
        # Same-instant FIFO of [time, seq, fn, args] entries for `now`.
        self._nowq: deque = deque()
        # Cancelled entries still sitting in the queue tiers.
        self._dead = 0
        # The running loop's run-ahead bounds (:meth:`_run_ahead`): the
        # latest instant a sleep may reach inline (-1 outside a loop),
        # the run_until_event target, and the events_processed past
        # which no sleep runs ahead (the loop's event budget).
        self._ahead_to = -1
        self._ahead_stop: Optional[Event] = None
        self._ahead_cap = 0

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` nanoseconds.

        Returns the queue entry, which can be revoked with
        :meth:`cancel` as long as it has not fired.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        t = self.now + int(delay)
        entry = [t, seq, fn, args]
        if delay == 0:
            self._nowq.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """Revoke an entry returned by :meth:`schedule`.

        The entry is cleared in place and skipped when it surfaces; it
        never counts as a processed event.  Returns False if the entry
        already fired or was already cancelled.
        """
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = None
        self._dead += 1
        queue = self._queue
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(queue):
            # In-place compaction (run loops alias self._queue).
            queue[:] = [e for e in queue if e[2] is not None]
            heapq.heapify(queue)
            self._dead = 0
        return True

    def _run_ahead(self, ns: int) -> bool:
        """Resume a sleep of ``ns`` inline if its wake is the next event.

        True when nothing can run between the sleep and its wake: no
        same-instant entry, the heap's head strictly later than
        ``now + ns``, that instant within the running loop's stop, and
        the loop's ``run_until_event`` target not triggered.  The clock
        then moves to the wake, which takes the ``seq`` and counts the
        two dispatches (the entry, the resume) its queue entry would
        have, and the caller resumes its generator itself.  The caller
        checks anything of its own first (a process's pending
        interrupt).
        """
        t = self.now + ns
        if t > self._ahead_to or self._nowq:
            return False
        queue = self._queue
        if queue and queue[0][0] <= t:
            return False
        stop = self._ahead_stop
        if stop is not None and stop._triggered:
            return False
        events = self.events_processed
        if events >= self._ahead_cap:
            return False
        self.events_processed = events + 2
        self._seq += 1
        self.now = t
        return True

    # -- chain-coordinator support ------------------------------------

    def next_event_time(self) -> Optional[int]:
        """Earliest pending entry's time, or None when the queue is empty.

        The chain coordinator (:mod:`repro.sim.shard`) uses this as the
        conservative horizon for chain replay: parked chain wakeups live
        *outside* the queue tiers, so the answer is exactly "when does
        the next engine-scheduled event fire".  Cancelled heads are
        popped (they would be skipped by the run loops anyway).
        """
        if self._nowq:
            return self.now
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def advance_to(self, t: int) -> None:
        """Jump the clock forward to ``t`` without dispatching.

        Only the chain coordinator calls this, and only for times it
        has proven quiescent (strictly before :meth:`next_event_time`).
        """
        if t < self.now:
            raise SimulationError(
                f"advance_to({t}) would move time backwards "
                f"(now={self.now})")
        self.now = t

    # -- dispatch -----------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: int = 200_000_000) -> None:
        """Process events until the queue drains or ``until`` is reached.

        A stop already past dispatches nothing and leaves the clock
        where it is.
        """
        if until is not None and until < self.now:
            return
        self._ahead_to = _NEVER if until is None else until
        self._ahead_stop = None
        self._ahead_cap = self.events_processed + 2 * max_events
        processed = 0
        queue = self._queue
        nowq = self._nowq
        heappop = heapq.heappop
        popleft = nowq.popleft
        # A callback that ran ahead leaves this stale, but no heap entry
        # at or before the clock it moved to, so the same-instant test
        # below answers alike either way (module docstring).
        now = self.now
        try:
            while True:
                if nowq:
                    # Same-instant batch: interleave with heap entries at
                    # the same instant by seq (an entry scheduled earlier
                    # with a positive delay for this exact time must fire
                    # first).
                    e0 = nowq[0]
                    if queue and queue[0][0] == now and queue[0][1] < e0[1]:
                        entry = heappop(queue)
                    else:
                        entry = popleft()
                    fn = entry[2]
                    if fn is None:
                        continue
                    fn(*entry[3])
                    processed += 1
                    if processed > max_events:
                        self.events_processed += processed
                        raise SimulationError(
                            "event budget exhausted; likely livelock")
                    continue
                if not queue:
                    break
                # Pop first, push back on overshoot: the push-back happens
                # at most once per run() call, while peek-then-pop paid an
                # extra queue[0] index on every event.
                entry = heappop(queue)
                t = entry[0]
                if until is not None and t > until:
                    heapq.heappush(queue, entry)
                    break
                fn = entry[2]
                if fn is None:
                    continue
                self.now = now = t
                fn(*entry[3])
                processed += 1
                if processed > max_events:
                    self.events_processed += processed
                    raise SimulationError(
                        "event budget exhausted; likely livelock")
        finally:
            self._ahead_to = -1
        self.events_processed += processed
        if until is not None:
            self.now = until

    def run_until_event(self, event: "Event",
                        deadline: Optional[int] = None,
                        max_events: int = 200_000_000) -> bool:
        """Process events until ``event`` triggers; returns True if it did.

        Unlike :meth:`run`, this stops as soon as the condition is met,
        which matters when perpetual background processes (clock ticks,
        monitors) would otherwise keep the queue busy to the deadline.
        A deadline already past dispatches nothing.
        """
        # Not folded into run()'s loop: each is the hot loop of a
        # different benchmark workload (run() under ChainCoordinator
        # carries coherence_storm, this one carries the paper workloads
        # and the fault trials), so a shared loop would put the other's
        # stop test on every event of one of them.
        if deadline is not None and deadline < self.now:
            return event._triggered
        self._ahead_to = _NEVER if deadline is None else deadline
        self._ahead_stop = event
        self._ahead_cap = self.events_processed + 2 * max_events
        processed = 0
        queue = self._queue
        nowq = self._nowq
        heappop = heapq.heappop
        popleft = nowq.popleft
        now = self.now
        try:
            while not event._triggered:
                if nowq:
                    e0 = nowq[0]
                    if queue and queue[0][0] == now and queue[0][1] < e0[1]:
                        entry = heappop(queue)
                    else:
                        entry = popleft()
                    fn = entry[2]
                    if fn is None:
                        continue
                    fn(*entry[3])
                    processed += 1
                    if processed > max_events:
                        self.events_processed += processed
                        raise SimulationError(
                            "event budget exhausted; likely livelock")
                    continue
                if not queue:
                    break
                entry = heappop(queue)
                t = entry[0]
                if deadline is not None and t > deadline:
                    heapq.heappush(queue, entry)
                    self.now = deadline
                    break
                fn = entry[2]
                if fn is None:
                    continue
                self.now = now = t
                fn(*entry[3])
                processed += 1
                if processed > max_events:
                    self.events_processed += processed
                    raise SimulationError(
                        "event budget exhausted; likely livelock")
        finally:
            self._ahead_to = -1
            self._ahead_stop = None
        self.events_processed += processed
        return event._triggered

    # -- factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "",
                inline: bool = False) -> Process:
        return Process(self, gen, name, inline)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)
