"""Failure recovery: the double global barrier, preemptive discard,
recovery-master election, diagnostics, and reintegration (Sections 4.2-4.3).

Flow after a confirmed failure:

1. All user-level processes on surviving cells are suspended (kernel-level
   processes keep running so recovery can take kernel locks).
2. Each cell flushes its TLBs and removes every remote mapping — so a
   future access to a discarded page "will fault and send an RPC to the
   owner of the page, where it can be checked" — then joins **barrier 1**.
   Page faults arriving after a cell joined barrier 1 are held up on the
   client side.
3. After barrier 1, no valid remote accesses are pending, so each cell
   revokes the firewall write permission it granted to other cells and
   cleans its virtual memory structures.  "It is during this operation
   that the virtual memory subsystem detects pages that were writable by
   a failed cell and notifies the file system, which increments its
   generation count on the file to record the loss" — **preemptive
   discard**: every page writable by a failed cell is dropped,
   pessimistically assumed corrupt.
4. Each cell joins **barrier 2** after VM cleanup; cells that exit it
   resume normal operation.
5. A recovery master is elected from the new live set, runs hardware
   diagnostics on the failed nodes, and — if they pass — reboots and
   reintegrates the failed cells.

Because the page-fault server side never takes blocking locks against
recovery, faults that hit in the file cache stay serviceable at interrupt
level (the property Section 5.2's latency depends on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.core.failure import Hint
from repro.obs.recorder import OBS_RECOVERY
from repro.sim.engine import Event, Simulator


class BarrierService:
    """Named global barriers over a fixed participant set.

    Models the tree-barrier the recovery algorithms use; participants are
    the live cells of one recovery round.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._rounds: Dict[tuple, dict] = {}

    def join(self, key: tuple, cell_id: int,
             participants: Set[int]) -> Event:
        state = self._rounds.get(key)
        if state is None:
            state = {"joined": set(), "event": self.sim.event(f"bar{key}"),
                     "participants": set(participants)}
            self._rounds[key] = state
        if state["participants"] != set(participants):
            raise ValueError(f"barrier {key}: participant set mismatch")
        state["joined"].add(cell_id)
        if state["joined"] >= state["participants"]:
            if not state["event"].triggered:
                state["event"].succeed()
        return state["event"]

    def forget(self, key: tuple) -> None:
        self._rounds.pop(key, None)


@dataclass
class RecoveryRecord:
    """Everything measured about one failure-recovery round."""

    round_id: int
    dead_cells: Set[int]
    hint_time_ns: int
    detection_reason: str
    #: per-cell time it *entered* recovery (Table 7.4's metric)
    entry_times: Dict[int, int] = field(default_factory=dict)
    agreement_ns: int = 0
    recovery_done_ns: int = 0
    discarded_pages: int = 0
    files_lost: int = 0
    killed_processes: int = 0
    #: processes still alive on surviving cells when the round completed
    #: (the availability report's killed-vs-survived denominator)
    surviving_processes: int = 0
    rebooted: bool = False

    @property
    def last_entry_ns(self) -> int:
        return max(self.entry_times.values()) if self.entry_times else 0


class RecoveryCoordinator:
    """System-wide orchestration of hint → agreement → recovery rounds.

    The coordinator object is a modelling convenience: it sequences the
    same broadcast/vote/barrier traffic the cells would exchange, charging
    the corresponding SIPS and barrier latencies, while keeping rounds
    deterministic.
    """

    def __init__(self, registry, agreement, strike_book,
                 reintegrate: bool = True):
        self.registry = registry
        self.agreement = agreement
        self.strike_book = strike_book
        self.reintegrate = reintegrate
        self.barriers = BarrierService(registry.sim)
        self.records: List[RecoveryRecord] = []
        self._round_counter = 0
        self._active_round: Optional[int] = None
        self._pending_suspects: Set[int] = set()
        #: observers notified with each finished RecoveryRecord
        self.observers: List = []
        #: flight recorder handle; set by attach_flight_recorder
        self.obs = None

    # -- hint entry --------------------------------------------------------

    def report_hint(self, hint) -> None:
        """A cell broadcast a failure alert."""
        self._start_round(hint, forced=False)

    def force_round(self, suspect: int, reason: str) -> None:
        """Two-strike rule: peers reboot a corrupt accuser without a vote."""
        self._start_round(Hint(-1, suspect, reason, self.registry.sim.now),
                          forced=True)

    def _start_round(self, hint, forced: bool) -> None:
        """Start a round on ``hint``, or queue its suspect for the next
        one if a round is under way.  A suspect a round has already
        confirmed dead (and that has not rebooted since) needs no round:
        the hint is dropped."""
        if self.registry.confirmed_dead(hint.suspect):
            return
        if self._active_round is not None:
            self._pending_suspects.add(hint.suspect)
            return
        self._round_counter += 1
        self._active_round = self._round_counter
        self.registry.sim.process(
            self._round(self._round_counter, hint, forced),
            name=f"recovery.round{self._round_counter}")

    # -- the round ------------------------------------------------------------

    def _round(self, round_id: int, hint, forced: bool) -> Generator:
        sim = self.registry.sim
        record = RecoveryRecord(
            round_id=round_id,
            dead_cells=set(),
            hint_time_ns=hint.time_ns,
            detection_reason=hint.reason,
        )
        obs = self.obs
        round_span = None
        if obs is not None:
            round_span = obs.begin("recovery.round", OBS_RECOVERY,
                                   round=round_id, suspect=hint.suspect,
                                   reason=hint.reason, forced=forced)
        outcome = "aborted"
        try:
            # 1. Suspend user level everywhere.  Threads park at their
            # next kernel entry or quantum boundary, so quiescing the
            # machine costs up to one scheduler quantum.
            live = self.registry.live_cell_ids()
            quantum = 10_000_000
            for cell_id in live:
                cell = self.registry.cell_object(cell_id)
                if cell is not None and cell.alive:
                    cell.suspend_user()
                    quantum = cell.costs.scheduler_quantum_ns
            yield quantum
            # 2. Agreement.
            t0 = sim.now
            suspects = {hint.suspect} | self._pending_suspects
            self._pending_suspects.clear()
            agree_span = None
            if obs is not None:
                agree_span = obs.begin("recovery.agreement", OBS_RECOVERY,
                                       parent=round_span, round=round_id,
                                       suspects=sorted(suspects))
            if forced:
                dead = set(suspects)
                yield self.registry.params.sips_latency_ns()
                rounds = 0
            else:
                result = yield from self.agreement.run(hint.reporter,
                                                       suspects)
                dead = set(result.confirmed_dead)
                rounds = getattr(result, "rounds", 0)
            if agree_span is not None:
                obs.end(agree_span, dead=sorted(dead), rounds=rounds)
            record.agreement_ns = sim.now - t0
            if not dead:
                outcome = "voted_down"
                # Voted down: resume, and strike the accuser.
                self._resume_all()
                if hint.reporter >= 0 and self.strike_book.voted_down(
                        hint.reporter, hint.suspect):
                    self._active_round = None
                    self.force_round(
                        hint.reporter,
                        f"voted down twice accusing {hint.suspect}")
                    return
                self._active_round = None
                self._drain_pending()
                return
            record.dead_cells = dead
            # 3. Declare the dead cells down.
            for cell_id in dead:
                self.registry.mark_dead(cell_id, "confirmed by agreement")
            # Wax uses resources from all cells, so it dies with any cell.
            self.registry.kill_wax("cell failure")
            # 4. Per-cell recovery with the double barrier.
            survivors = [c for c in self.registry.live_cell_ids()
                         if c not in dead]
            procs = []
            for cell_id in survivors:
                cell = self.registry.cell_object(cell_id)
                if cell is None or not cell.alive:
                    continue
                record.entry_times[cell_id] = sim.now
                procs.append(sim.process(
                    cell.run_recovery(round_id, dead, set(survivors),
                                      self.barriers, record,
                                      parent_span=round_span or 0),
                    name=f"recover.c{cell_id}.r{round_id}"))
            if procs:
                yield sim.all_of(procs)
            record.recovery_done_ns = sim.now
            for cell_id in survivors:
                cell = self.registry.cell_object(cell_id)
                if cell is None or not cell.alive:
                    continue
                record.surviving_processes += sum(
                    1 for proc in cell.processes.values()
                    if not proc.exited)
            outcome = "recovered"
            self.barriers.forget((round_id, 1))
            self.barriers.forget((round_id, 2))
            # 5. Resume user level; the round is complete at this point
            # (diagnostics/reboot are follow-on master activity).
            self._resume_all()
            self.records.append(record)
            for callback in list(self.observers):
                callback(record)
            # A fresh Wax incarnation forks to the surviving cells and
            # rebuilds its view from scratch (Section 3.2).
            self.registry.restart_wax()
            # 6. Recovery master: diagnostics and reboot.
            if survivors:
                master = min(survivors)
                master_cell = self.registry.cell_object(master)
                if master_cell is not None and master_cell.alive:
                    yield from self._master_phase(master_cell, dead, record)
        finally:
            if round_span is not None:
                obs.end(round_span, outcome=outcome,
                        dead=sorted(record.dead_cells))
            self._active_round = None
            self._drain_pending()

    def _drain_pending(self) -> None:
        """Start a round for the lowest queued suspect, skipping those a
        round has confirmed dead since they were queued."""
        while self._pending_suspects and self._active_round is None:
            suspect = min(self._pending_suspects)
            self._pending_suspects.discard(suspect)
            self.report_hint(Hint(-1, suspect, "queued during previous round",
                                  self.registry.sim.now))

    def _resume_all(self) -> None:
        for cell_id in self.registry.live_cell_ids():
            cell = self.registry.cell_object(cell_id)
            if cell is not None and cell.alive:
                cell.resume_user()

    def _master_phase(self, master_cell, dead: Set[int],
                      record: RecoveryRecord) -> Generator:
        """Diagnostics on failed nodes; reboot + reintegrate on success."""
        costs = master_cell.costs
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("recovery.master", OBS_RECOVERY,
                             cell=master_cell.kernel_id,
                             round=record.round_id, dead=sorted(dead))
        yield costs.diagnostics_ns
        ok = all(
            master_cell.machine.run_diagnostics(node)
            for cell_id in dead
            for node in self.registry.nodes_of(cell_id)
        )
        if not ok or not self.reintegrate:
            if span is not None:
                obs.end(span, rebooted=False, diagnostics_ok=ok)
            return
        yield costs.reboot_ns
        for cell_id in sorted(dead):
            self.registry.reboot_cell(cell_id)
            self.strike_book.clear_cell(cell_id)
        record.rebooted = True
        if span is not None:
            obs.end(span, rebooted=True, diagnostics_ok=True)
        # A fresh Wax incarnation forks to all cells and rebuilds its
        # picture of the system state from scratch (Section 3.2).
        self.registry.restart_wax()
