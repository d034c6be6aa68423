"""Parked driver chains: memoized workload wakeups advanced arithmetically.

A bench traffic driver wakes every few tens of microseconds, issues one
prepared batch of coherence accesses, and sleeps again.  Run through the
engine queue that costs one timeout, one expiry and one generator resume
per wakeup — almost a million dispatches per ``large`` repetition, nearly
all of them replaying a batch memo that nothing has invalidated.

Instead every driver registers as a :class:`ParkedChain` with one
:class:`ChainCoordinator`, which owns the run loop:

* **control events** (kernel clock ticks, detector reads, recovery,
  fault injection, samplers — everything scheduled in the engine queue)
  dispatch exactly as ``Simulator.run`` dispatches them, in the same
  order;
* **chains** park *outside* the engine queue.  Between two queue events
  only the chains themselves run, and a chain's accesses touch only
  lines on its own home nodes.  So a chain that shares no home node
  with another, and whose next accesses are memoized cache hits
  (``CoherenceController.peek_memo``), is advanced arithmetically
  (:meth:`ParkedChain.credit`) up to the *horizon*, the next queue
  event.  One park then stands for a whole run of wakeups, and every
  simulated counter moves exactly as per-wakeup execution would move
  it.
* a chain that **shares a home node** with another never credits: the
  other chain may take a real miss on that node at any of its wakeups.
  It runs one wakeup per park, exactly like the per-wakeup oracle.

Per-wakeup execution survives in one form: a per-wakeup run
(``run_throughput(per_wakeup=True)``) never calls ``credit``, so it
parks once per wakeup.  It is the oracle the parked
runs are diffed against (``bench.throughput.compare_parked``), down to
``events_processed`` — each wakeup is accounted as the two dispatches
(expiry pop plus callback) a ``sim.timeout`` would have cost.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.sim.engine import Event, Simulator


class ParkedChain:
    """One workload chain (a traffic driver) parked outside the queue.

    The chain's driver stays an ordinary simulator process; the chain
    object answers two questions for it: *how many of my next wakeups
    are provably replayable before the horizon* (:meth:`credit`) and
    *park me until my next wakeup* (:meth:`park`).  A park representing
    ``k`` wakeups contributes ``2k - 2`` dispatched events at creation
    and ``2`` when it fires.
    """

    __slots__ = ("coord", "coh", "cpu", "cycle", "gap", "period",
                 "parks", "replayed_wakeups", "index", "home_nodes",
                 "shares_home", "_peek_key", "_peek_lats", "_peek_clean",
                 "_period_ns")

    def __init__(self, coord: "ChainCoordinator", coh, cpu: int,
                 cycle: list, gap: int):
        self.coord = coord
        self.coh = coh
        self.cpu = cpu
        self.cycle = cycle
        self.gap = gap
        self.period = len(cycle)
        self.parks = 0
        self.replayed_wakeups = 0
        #: registration order; parks due at one instant fire in it, so
        #: the order never depends on how many wakeups each one stood for
        self.index = -1
        #: every home node this chain's accesses can touch, sorted.  A
        #: real access only mutates directory state on the home nodes
        #: of its own lines, so two chains with disjoint home-node sets
        #: can never change each other's memo answers.
        homes = set()
        for batch in cycle:
            homes.update(batch.home_nodes)
        self.home_nodes = tuple(sorted(homes))
        #: set by the coordinator when another chain registers with a
        #: home node in common; such a chain never credits.
        self.shares_home = False
        self._peek_key: Optional[tuple] = None
        self._peek_lats: List[int] = []
        self._peek_clean = False
        self._period_ns = 0

    def cycle_peek_lats(self) -> List[int]:
        """Per-slot memo latencies (-1 = stale), cached on the fault
        generation and the directory generations of the chain's home
        nodes.

        Sound because no ``peek_memo`` answer can change while the key
        stands still: every directory mutation bumps the home node of
        the mutated line, every node fail / revive / cutoff bumps
        ``PhysicalMemory.fault_gen``.  The one exception is this
        chain's own live access, which rebuilds an all-hit memo without
        a directory mutation — the driver calls :meth:`invalidate_peeks`
        after it.
        """
        coh = self.coh
        key = (coh.memory.fault_gen, coh.memo_gen_key(self.home_nodes))
        if key != self._peek_key:
            cpu = self.cpu
            peek = coh.peek_memo
            lats = []
            for batch in self.cycle:
                p = peek(cpu, batch)
                lats.append(-1 if p is None else p[0])
            self._peek_lats = lats
            self._peek_clean = -1 not in lats
            self._period_ns = sum(lats) + self.gap * self.period
            self._peek_key = key
        return self._peek_lats

    def invalidate_peeks(self) -> None:
        """Drop the peek cache after this chain takes the live path."""
        self._peek_key = None

    def credit(self, j: int, stop_ns: int):
        """Replay as many wakeups as the horizon allows, starting at
        cycle position ``j`` with the first access issued *now*.

        Returns ``(k, sleep_ns, next_j)``: ``k`` wakeups' worth of
        stats committed (0 when the chain shares a home node or the next
        batch is not a provable memo replay — the caller then takes the
        real access path), and the single sleep that replaces their
        individual timeouts.  All
        collapsed access times land strictly before the next engine
        event and strictly before ``stop_ns``, which is exactly the
        span per-wakeup execution would have run them in with no
        interleaved state mutation.
        """
        if self.shares_home:
            return 0, 0, j
        lats = self.cycle_peek_lats()
        lat = lats[j]
        if lat < 0:
            return 0, 0, j
        coord = self.coord
        gap = self.gap
        period = self.period
        t0 = coord.sim.now
        cap = coord.cap_for(stop_ns)
        counts = [0] * period
        counts[j] = 1
        k = 1
        sleep = lat + gap
        # The first access is always valid: the driver is mid-dispatch,
        # exactly as a per-wakeup run.  Extend while the *next* access
        # would still land strictly before the horizon.
        if t0 + sleep < cap:
            if self._peek_clean:
                # Whole-period fast path: q more full periods fit when
                # their sleeps still end at or before cap-1 (every
                # access inside them then lands strictly earlier).
                span = cap - 1 - t0
                if span > sleep:
                    q = (span - sleep) // self._period_ns
                    if q:
                        k += q * period
                        sleep += q * self._period_ns
                        counts = [c + q for c in counts]
            # Stepwise remainder (also the only path when some batch
            # memo is stale: replay up to it, then let the driver take
            # the real access path which rebuilds that memo).
            while t0 + sleep < cap:
                jn = (j + k) % period
                lat = lats[jn]
                if lat < 0:
                    break
                k += 1
                counts[jn] += 1
                sleep += lat + gap
        self.coh.replay_memo_cycle(self.cycle, counts)
        return k, sleep, (j + k) % period

    def park(self, sleep_ns: int, wakeups: int) -> Event:
        """Park until ``sim.now + sleep_ns``; the event the driver
        yields in place of the ``wakeups`` timeouts it represents."""
        coord = self.coord
        sim = coord.sim
        if wakeups > 1:
            # The collapsed wakeups' dispatches (two each: expiry pop +
            # callback), minus the pair the park itself accounts for
            # when it fires.
            sim.events_processed += 2 * (wakeups - 1)
            self.replayed_wakeups += wakeups - 1
        self.parks += 1
        ev = Event(sim)
        heapq.heappush(coord._parked, (sim.now + sleep_ns, self.index, ev))
        return ev


class ChainCoordinator:
    """Drives one simulator in (control-event, parked-chain) order.

    Engine events keep the dispatch order ``Simulator.run`` gives them;
    parked chains fire at their due times through
    :meth:`Simulator.advance_to`.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.chains: List[ParkedChain] = []
        self._parked: list = []
        #: next *queue* event time, cached while dispatching a batch of
        #: parked-chain resumes (their pending siblings sit in the
        #: now-queue and would otherwise hide the real horizon)
        self._qt_cache: Optional[int] = None
        self._qt_valid = False

    def register_chain(self, coh, cpu: int, cycle: list,
                       gap: int) -> ParkedChain:
        chain = ParkedChain(self, coh, cpu, cycle, gap)
        homes = set(chain.home_nodes)
        for other in self.chains:
            if not homes.isdisjoint(other.home_nodes):
                chain.shares_home = other.shares_home = True
        chain.index = len(self.chains)
        self.chains.append(chain)
        return chain

    # -- replay horizon ------------------------------------------------

    def cap_for(self, stop_ns: int) -> int:
        """The instant replayed accesses must land strictly before: the
        horizon (the next queue event) or the run's stop.

        While a batch of parked resumes is being dispatched the horizon
        is the cached one (chain resumes schedule no queue events, so it
        cannot move); outside a batch the live ``next_event_time`` —
        which conservatively returns ``now`` when other now-queue
        callbacks are pending.
        """
        qt = (self._qt_cache if self._qt_valid
              else self.sim.next_event_time())
        return stop_ns if qt is None or qt > stop_ns else qt

    # -- the run loop --------------------------------------------------

    def run(self, until: int) -> None:
        """Advance simulation to ``until`` (``sim.run`` plus the parks)."""
        sim = self.sim
        parked = self._parked
        while True:
            qt = sim.next_event_time()
            pt = parked[0][0] if parked else None
            if pt is None or pt > until:
                if qt is None or qt > until:
                    break
            elif qt is None or pt < qt:
                sim.advance_to(pt)
                self._resume_batch(pt)
                continue
            # Engine events first on ties: a control event was
            # scheduled before the chain parked, so its seq is
            # lower — a sim.timeout would have expired after it.
            sim.run(until=qt)
            if pt == qt:
                self._resume_batch(pt)
        sim.run(until=until)

    def _resume_batch(self, pt: int) -> None:
        """Fire every park due at ``pt`` and dispatch the resumes.

        The queue horizon is cached across the batch: the pending
        sibling resumes sit in the now-queue (which would make
        ``next_event_time`` report ``now``), but chain resumes cannot
        schedule queue events, so the true horizon is fixed.
        """
        sim = self.sim
        parked = self._parked
        self._qt_cache = sim.next_event_time()
        self._qt_valid = True
        try:
            fired = 0
            while parked and parked[0][0] == pt:
                heapq.heappop(parked)[2].succeed()
                fired += 1
            # The expiry dispatch each timeout would have cost; the
            # succeed callbacks' dispatches are counted by the run loop.
            sim.events_processed += fired
            sim.run(until=pt)
        finally:
            self._qt_valid = False
            self._qt_cache = None

    def snapshot(self) -> Dict:
        """Deterministic summary for the bench row."""
        return {
            "chains": len(self.chains),
            "parks": sum(c.parks for c in self.chains),
            "replayed_wakeups": sum(c.replayed_wakeups
                                    for c in self.chains),
        }
