"""Trace-driven replay: feed a recorded op stream back as array passes.

A recorded throughput run (:mod:`repro.sim.oplog`) knows, for every
driver wakeup, when it fired, which cycle slot it issued, whether it
resolved as a pure batch-memo replay, and what latency it saw.  On a
replay trial with identical traffic, that record *is* the driver's
future — so instead of stepping the Python generator per wakeup, a
:class:`ReplayChain` commits whole replay-identical segments at once:

* ``searchsorted`` over the recorded time column finds how many wakeups
  fit under the conservative horizon (next engine event, overlapping
  dirty chain, stop time — the same caps live parked chains honor);
* ``bincount`` over the slot column turns the segment into per-batch
  replay counts, committed through the PR4 memo tier
  (:meth:`CoherenceController.replay_memo`) so every simulated counter
  moves exactly as the live engine would move it;
* the segment's park carries the parked-chain event accounting
  (two dispatches per collapsed wakeup), keeping ``events_processed``
  byte-identical to per-wakeup execution.

The record is *validated, never trusted*: each distinct batch in a
segment must pass :meth:`CoherenceController.peek_memo` against the
**current** run's state before any of it commits.  At any divergence —
a moved fault injection, a recovery that revoked a grant, a firewall
flip, a recorded wakeup whose time no longer matches — the chain falls
back to live execution (the :class:`ParkedChain` path, itself
golden-gated against per-wakeup execution), and re-locks onto the
recorded stream at a time offset once the disturbance settles — the
steady-state stream is periodic, so any later recorded occurrence of
the chain's slot is a resync candidate, and every candidate is fully
validated before a single counter moves.  ``HIVE_REPLAY=0`` disables
the tier outright; replay runs answer to the same byte-identical-counter
golden contract as snapshot forks (``EQUIV_KEYS``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from repro.sim.oplog import OP_MEMO, OpLog
from repro.sim.shard import ChainCoordinator, ParkedChain


def replay_from_env() -> bool:
    """The ``HIVE_REPLAY`` escape (default on; 0 forces live runs)."""
    return os.environ.get("HIVE_REPLAY", "1") != "0"


class ReplayChain(ParkedChain):
    """A parked chain whose credits are guided by a recorded stream.

    Behaves exactly like :class:`ParkedChain` — same horizon caps,
    same commit primitives, same park accounting — except that segment
    extents come from the trace columns instead of stepwise peeks, and
    a recorded non-memo wakeup (the driver went to the real access
    path, or retired) is executed live at its recorded instant.
    """

    __slots__ = ("_times", "_slots", "_kinds", "_lats", "_seg_end",
                 "_slot_rows", "_i", "_n", "_offset", "_resync_from",
                 "trace_wakeups", "fallback_wakeups", "desyncs",
                 "resyncs", "desynced")

    def __init__(self, coord: ChainCoordinator, coh, cpu: int,
                 cycle: list, gap: int, stream: Dict[str, np.ndarray]):
        super().__init__(coord, coh, cpu, cycle, gap)
        self._times = stream["time_ns"]
        self._slots = stream["slot"]
        self._kinds = stream["kind"]
        self._lats = stream["latency_ns"]
        n = int(self._times.shape[0])
        self._n = n
        # seg_end[i]: first row at or after i that is NOT a memo replay
        # (n when the tail is all memo) — the recorded extent of the
        # collapsible segment starting at i, computed once per chain.
        idx = np.arange(n, dtype=np.int64)
        nonmemo = np.where(self._kinds != OP_MEMO, idx, n)
        self._seg_end = np.minimum.accumulate(nonmemo[::-1])[::-1] \
            if n else idx
        # Per-slot memo-row index, for resync candidate lookup: the
        # recorded steady state is periodic, so after a divergence the
        # live chain can re-lock onto any later recorded occurrence of
        # its current slot (validation happens before commit).
        memo_rows = np.flatnonzero(self._kinds == OP_MEMO)
        self._slot_rows = [
            memo_rows[self._slots[memo_rows] == s]
            for s in range(self.period)
        ]
        self._i = 0
        #: live-time minus recorded-time for the locked region; zero
        #: while replaying from the start, nonzero after a resync.
        self._offset = 0
        self._resync_from = 0
        self.trace_wakeups = 0
        self.fallback_wakeups = 0
        self.desyncs = 0
        self.resyncs = 0
        self.desynced = False

    def credit(self, j: int, stop_ns: int):
        i = self._i
        if not self.desynced and i < self._n:
            now = self.coord.sim.now
            if int(self._times[i]) + self._offset != now \
                    or int(self._slots[i]) != j:
                # This chain's timeline left the recorded one (a real
                # access resolved differently, or the driver restarted
                # a position the record never saw).
                self.desynced = True
                self.desyncs += 1
                self._resync_from = i
            elif int(self._kinds[i]) != OP_MEMO:
                # The record took the live path at this very wakeup
                # (real access or retirement).  Execute it live: with an
                # identical prefix the outcome is identical, and if it
                # is not, the time check above desyncs us next wakeup.
                self._i = i + 1
                self.fallback_wakeups += 1
                return 0, 0, j
            else:
                out = self._trace_credit(i, j, stop_ns)
                if out is not None:
                    return out
                # Recorded as a memo replay, but current state refuses
                # it (fault schedule moved, grant revoked earlier):
                # divergence point — go live.
                self.desynced = True
                self.desyncs += 1
                self._resync_from = i
        elif self.desynced:
            # Divergences are transient: the fault window perturbs the
            # timeline, but once recovery settles the chain cycles the
            # same periodic stream the record captured.  Try to re-lock
            # onto the next recorded occurrence of the current slot at
            # a time offset; _trace_credit validates every distinct
            # batch against current state before anything commits, so a
            # wrong candidate costs one probe and nothing else.
            out = self._try_resync(j, stop_ns)
            if out is not None:
                return out
        # Fallback: exactly the live parked chain.
        k, sleep, j2 = ParkedChain.credit(self, j, stop_ns)
        self.fallback_wakeups += k if k else 1
        return k, sleep, j2

    def _try_resync(self, j: int, stop_ns: int):
        rows = self._slot_rows[j]
        pos = int(np.searchsorted(rows, self._resync_from))
        if pos >= rows.shape[0]:
            return None
        r = int(rows[pos])
        self._offset = self.coord.sim.now - int(self._times[r])
        out = self._trace_credit(r, j, stop_ns)
        if out is None:
            # Candidate refused (still inside the recorded or the live
            # fault window); skip it for good and stay live this wakeup.
            self._resync_from = r + 1
            return None
        self.desynced = False
        self.resyncs += 1
        return out

    def _trace_credit(self, i: int, j: int, stop_ns: int):
        """Commit the recorded memo segment at ``i`` as one array pass.

        Returns ``(k, sleep_ns, next_j)`` or None when current state
        contradicts the record before a single wakeup can commit.
        """
        coh = self.coh
        cycle = self.cycle
        lats = self._lats
        # First-row validation prefers the generation-keyed cache (one
        # array index on a hit); a conservative -1 entry falls back to
        # the live peek, which can still rescue a stale-looking memo.
        if self.cycle_peek_lats()[j] != lats[i]:
            peek = coh.peek_memo(self.cpu, cycle[j])
            if peek is None or peek[0] != int(lats[i]):
                return None
            # The peek rescued (and re-keyed) a memo the cache had
            # conservatively marked stale; drop the cache so the next
            # rebuild sees the rescue instead of truncating here again.
            self.invalidate_peeks()
        coord = self.coord
        t0 = coord.sim.now
        cap = coord.cap_for(self, stop_ns)
        times = self._times
        offset = self._offset
        seg = int(self._seg_end[i])
        period = self.period
        # The first wakeup is always valid (the driver is mid-dispatch,
        # as in a per-wakeup run); later recorded wakeups join the
        # run while their times land strictly before the horizon — the
        # span per-wakeup execution would have run them in with
        # no interleaved state mutation.  On busy configs the next
        # queue event usually lands before the second recorded wakeup,
        # so probe that row directly before paying for a searchsorted.
        if i + 1 >= seg or int(times[i + 1]) + offset >= cap:
            # Single-wakeup segment: commit without the array machinery.
            coh.replay_memo(cycle[j], 1)
            nxt = i + 1
            if nxt < self._n:
                sleep = int(times[nxt]) + offset - t0
            else:
                sleep = int(times[i]) + int(self._lats[i]) \
                    + self.gap + offset - t0
            self._i = nxt
            self.trace_wakeups += 1
            return 1, sleep, (j + 1) % period
        k = int(times.searchsorted(cap - offset, "left"))
        if k > seg:
            k = seg
        k -= i
        if k < 1:
            k = 1
        # The record proves memo validity at *record* time only; every
        # row in the run must also price identically against the
        # current run's state.  Short runs validate slot by slot with
        # an early exit (slots advance sequentially mod period, so the
        # wakeup touching slot (j + step) % period is `step` ahead);
        # period-plus runs validate every row in one vectorized compare
        # against the generation-keyed per-slot latency cache.  A stale
        # or repriced row truncates the run right before it.
        cpu = self.cpu
        if k < period:
            for step in range(1, k):
                p = coh.peek_memo(cpu, cycle[(j + step) % period])
                if p is None or p[0] != int(lats[i + step]):
                    k = step
                    break
        else:
            ok = np.asarray(self.cycle_peek_lats())[self._slots[i:i + k]] \
                == lats[i:i + k]
            if not ok.all():
                k = max(1, int(np.argmin(ok)))
        # Slots advance sequentially mod period (that is what makes
        # (j + k) % period the resume position), so the per-slot counts
        # are arithmetic: k // period everywhere plus one for the first
        # k % period slots starting at j.
        q = k // period
        counts = [q] * period
        for m in range(k - q * period):
            counts[(j + m) % period] += 1
        coh.replay_memo_cycle(cycle, counts)
        nxt = i + k
        if nxt < self._n:
            sleep = int(times[nxt]) + offset - t0
        else:
            # Trace exhausted: the last recorded wakeup's own sleep.
            sleep = int(times[nxt - 1]) + int(lats[nxt - 1]) \
                + self.gap + offset - t0
        self._i = nxt
        self.trace_wakeups += k
        return k, sleep, (j + k) % period


class ReplaySession:
    """One replay run's chain registry + hit/fallback accounting.

    Built from a finalized :class:`OpLog`; ``register_chain`` hands
    each traffic driver its recorded per-cell stream.  The session
    hangs off the booted system (``system.replay_session``) so
    :func:`repro.obs.profile.tier_snapshot` can report the counters.
    """

    def __init__(self, oplog: OpLog, config: Optional[str] = None):
        self.oplog = oplog.finalize()
        meta_config = self.oplog.meta.get("config")
        if config is not None and meta_config not in (None, config):
            raise ValueError(
                f"oplog was recorded for config {meta_config!r}, "
                f"not {config!r}")
        self.config = config
        self.chains: List[ReplayChain] = []

    def register_chain(self, coord: ChainCoordinator, coh, cell_id: int,
                       cpu: int, cycle: list, gap: int) -> ReplayChain:
        chain = ReplayChain(coord, coh, cpu, cycle, gap,
                            self.oplog.stream(cell_id))
        coord.add_chain(chain)
        self.chains.append(chain)
        return chain

    def snapshot(self) -> Dict:
        """Deterministic replay counters for tier snapshots/bench rows."""
        return {
            "enabled": True,
            "trace_rows": len(self.oplog),
            "chains": len(self.chains),
            "replayed_from_trace": sum(c.trace_wakeups
                                       for c in self.chains),
            "fallback_wakeups": sum(c.fallback_wakeups
                                    for c in self.chains),
            "desyncs": sum(c.desyncs for c in self.chains),
            "resyncs": sum(c.resyncs for c in self.chains),
        }
