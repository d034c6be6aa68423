"""The Hive cell: one independent kernel cooperating in the multicell.

``Cell`` composes the UNIX substrate with the sharing and SSI mixins and
adds the fault-containment machinery: the RPC subsystem, the careful
reader, the failure detector (with ring clock monitoring), panic wiring,
and the per-cell recovery algorithm with its double global barrier.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Set

from repro.core.careful import CarefulReader
from repro.core.failure import FailureDetector
from repro.core.rpc import RpcSubsystem
from repro.core.sharing import SharingMixin
from repro.core.ssi import SsiMixin
from repro.core.wildwrite import FirewallManager
from repro.obs.recorder import OBS_RECOVERY
from repro.sim.stats import MetricSet
from repro.unix.cow import CowTreeCorrupt
from repro.unix.kernel import GlobalNamespace, LocalKernel
from repro.unix.process import SIGKILL


class Cell(SharingMixin, SsiMixin, LocalKernel):
    """One cell of a Hive system."""

    def __init__(self, sim, machine, cell_id: int, node_ids: List[int],
                 namespace: GlobalNamespace, registry, costs=None,
                 filesystems=None, incarnation: int = 0):
        self.registry = registry
        self.incarnation = incarnation
        # Per-subsystem metric registries, aggregated system-wide by
        # repro.obs.metrics.snapshot_system.  Created before the kernel
        # substrate so early RPC/detector wiring can record into them.
        self.sharing_metrics = MetricSet(name=f"sharing{cell_id}")
        self.firewall_metrics = MetricSet(name=f"firewall{cell_id}")
        self.recovery_metrics = MetricSet(name=f"recovery{cell_id}")
        self.detection_metrics = MetricSet(name=f"detect{cell_id}")
        super().__init__(sim, machine, cell_id, node_ids, namespace,
                         costs=costs)
        if filesystems is not None:
            # Reintegration: the platters survive the reboot.
            self.filesystems = filesystems
        self.rpc = RpcSubsystem(sim, self, machine.sips, self.costs)
        from repro.core.usermsg import UserMsgService

        self.usermsg = UserMsgService(self)
        self.rpc.usermsg = self.usermsg
        self.careful = CarefulReader(self)
        self.detector = FailureDetector(self)
        self.firewall_mgr = FirewallManager(self)
        #: fault-provenance tracer handle; ``attach_provenance`` sets
        #: it (None when untraced, the same discipline as ``obs``).
        self.prov = None
        #: hints pushed by Wax (sanity-checked on use, Section 3.2)
        self.wax_hints: Dict[str, object] = {}
        self.in_recovery = False
        self.recovery_done_event = sim.event(f"c{cell_id}.recovered")
        self.recovery_entries: List[int] = []
        self._init_sharing()
        self._init_ssi()

    # ------------------------------------------------------------------
    # detection wiring
    # ------------------------------------------------------------------

    def failure_hint(self, suspect_cell: int, reason: str) -> None:
        self.detector.hint(suspect_cell, reason)

    def validate_wax_hints(self, hints: dict) -> bool:
        """Sanity-check policy input from Wax (Section 3.2).

        "Each cell protects itself by sanity-checking the inputs it
        receives from Wax" — a damaged Wax can cost performance but not
        correctness, so anything suspicious is simply rejected.
        """
        if not isinstance(hints, dict):
            return False
        for key in ("borrow_target", "clockhand_target"):
            value = hints.get(key)
            if value is None:
                continue
            if (not isinstance(value, int)
                    or not self.registry.is_valid_cell(value)
                    or value == self.kernel_id
                    or not self.registry.is_live(value)):
                return False
        gang = hints.get("gang_task")
        if gang is not None:
            if not isinstance(gang, int) or self.registry.task(gang) is None:
                return False
        return True

    def clock_tick_hook(self) -> None:
        """Every tick: run the clock-monitoring heuristic (Section 4.3)."""
        self.detector.clock_check()

    def apply_wax_hints(self) -> None:
        """Act on freshly-pushed Wax hints that need kernel action.

        Gang scheduling / space sharing (Table 3.4): grant this cell's
        processors exclusively to the local components of the hinted
        spanning task; revoke the grant when the hint goes away.  The
        reservation dies automatically with the process.
        """
        gang_task = self.wax_hints.get("gang_task")
        current = getattr(self, "_gang_reserved_pids", set())
        wanted = set()
        if isinstance(gang_task, int):
            task = self.registry.task(gang_task)
            if task is not None and not task.dead:
                wanted = {pid for pid, cell in task.components.items()
                          if cell == self.kernel_id
                          and pid in self.processes
                          and not self.processes[pid].exited}
        for pid in current - wanted:
            self.sched.release_reservation(pid)
        for pid in wanted - current:
            self.sched.reserve_cpus(pid, set(self.cpu_ids))
        self._gang_reserved_pids = wanted

    def clockhand_preferred_source(self):
        """Wax's clock-hand hint: free the pressured cell's memory first
        (Section 5.7).  Sanity-checked like all Wax input."""
        target = self.wax_hints.get("clockhand_target")
        if (isinstance(target, int) and target != self.kernel_id
                and self.registry.is_live(target)):
            return target
        return None

    def panic(self, reason: str) -> None:
        if not self.alive:
            return
        super().panic(reason)
        self.rpc.shutdown()
        if not self.recovery_done_event.triggered:
            self.recovery_done_event.fail(
                RuntimeError(f"cell {self.kernel_id} panicked"))

    def die_confirmed(self, reason: str) -> None:
        """Agreement confirmed this cell failed: finish it off.

        For a software fault the cell has usually already panicked; for a
        hardware fault its node is halted and threads are frozen mid-run —
        they are killed here so the simulation drains.
        """
        if self.alive:
            self.alive = False
            self.panic_reason = reason
            for proc in list(self.processes.values()):
                for thread in list(proc.threads):
                    thread.kill(f"cell declared failed: {reason}")
            self.rpc.shutdown()
            if not self.recovery_done_event.triggered:
                self.recovery_done_event.fail(RuntimeError(reason))

    # ------------------------------------------------------------------
    # recovery (Sections 4.2/4.3)
    # ------------------------------------------------------------------

    def run_recovery(self, round_id: int, dead: Set[int],
                     survivors: Set[int], barriers, record,
                     parent_span: int = 0) -> Generator:
        """This cell's half of the double-barrier recovery round."""
        self.in_recovery = True
        if self.recovery_done_event.triggered:
            self.recovery_done_event = self.sim.event(
                f"c{self.kernel_id}.recovered")
        entered_ns = self.sim.now
        self.recovery_entries.append(entered_ns)
        obs = self.obs
        cell_span = obs.begin("recovery.cell", OBS_RECOVERY,
                              cell=self.kernel_id, parent=parent_span,
                              round=round_id) if obs is not None else None

        # -- pre-barrier-1: flush TLBs, remove remote mappings ----------
        phase = obs.begin("recovery.flush", OBS_RECOVERY,
                          cell=self.kernel_id, parent=cell_span,
                          round=round_id) if obs is not None else None
        yield self.costs.tlb_flush_ns * len(self.cpu_ids)
        unmapped = 0
        for proc in list(self.processes.values()):
            if proc.exited:
                continue
            for vpn, pte in proc.aspace.remote_mappings(self.kernel_id):
                proc.aspace.unmap_page(self.kernel_id, vpn)
                if pte.pfdat is not None:
                    pte.pfdat.refcount = max(0, pte.pfdat.refcount - 1)
                unmapped += 1
        # Drop every logical import: the binding must be re-established
        # through a checked RPC after recovery.
        prov = self.prov
        for pf in list(self.pfdats.all_pfdats()):
            if pf.imported_from is not None:
                if prov is not None:
                    prov.import_dropped(self.kernel_id, pf.frame,
                                        pf.imported_from)
                pf.imported_from = None
                self.drop_frame(pf)
                unmapped += 1
        yield self.costs.unmap_page_ns * unmapped
        if phase is not None:
            obs.end(phase, unmapped=unmapped)

        phase = obs.begin("recovery.barrier1", OBS_RECOVERY,
                          cell=self.kernel_id, parent=cell_span,
                          round=round_id) if obs is not None else None
        ev = barriers.join((round_id, 1), self.kernel_id, survivors)
        yield ev
        yield self.costs.barrier_round_ns
        if phase is not None:
            obs.end(phase)

        phase = obs.begin("recovery.cleanup", OBS_RECOVERY,
                          cell=self.kernel_id, parent=cell_span,
                          round=round_id) if obs is not None else None
        # -- post-barrier-1: firewall revocation + preemptive discard ----
        # No further valid page faults or remote accesses are pending.
        # The VM cleanup walks the whole pfdat table twice (detecting
        # pages writable by failed cells, then revoking grants) — the
        # bulk of the paper's 40-80 ms recovery latency.
        npfdats = self.pfdats.owned_count
        yield 2 * npfdats * self.costs.recovery_scan_per_pfdat_ns
        discarded = yield from self._preemptive_discard(dead, record)
        yield from self.firewall_mgr.revoke_all()
        killed = self._kill_dependent_processes(dead)
        if not self.alive:
            # The ancestry check panicked this cell: it completes no
            # round, but the other survivors still wait on barrier 2.
            barriers.join((round_id, 2), self.kernel_id, survivors)
            if phase is not None:
                obs.end(phase, outcome="panic")
                obs.end(cell_span, outcome="panic")
            return None
        record.killed_processes += killed
        record.discarded_pages += discarded
        self._resolve_dead_children(dead)
        yield self.costs.recovery_fixed_ns
        if phase is not None:
            obs.end(phase, discarded=discarded, killed=killed)

        phase = obs.begin("recovery.barrier2", OBS_RECOVERY,
                          cell=self.kernel_id, parent=cell_span,
                          round=round_id) if obs is not None else None
        ev = barriers.join((round_id, 2), self.kernel_id, survivors)
        yield ev
        yield self.costs.barrier_round_ns
        if phase is not None:
            obs.end(phase)

        self.in_recovery = False
        if not self.recovery_done_event.triggered:
            self.recovery_done_event.succeed()
        self.metrics.counter("recoveries").add()
        self.recovery_metrics.counter("rounds").add()
        self.recovery_metrics.counter("pages_discarded").add(discarded)
        self.recovery_metrics.counter("procs_killed").add(killed)
        self.recovery_metrics.histogram("duration_ns").record(
            self.sim.now - entered_ns)
        if cell_span is not None:
            obs.end(cell_span, discarded=discarded, killed=killed)
        return None

    def _preemptive_discard(self, dead: Set[int], record) -> Generator:
        """Discard every page the failed cells could have written.

        "Hive makes the pessimistic assumption that all potentially
        damaged pages have been corrupted.  When a cell failure is
        detected, all pages writable by the failed cell are preemptively
        discarded" (Section 3.1).
        """
        discarded = 0
        lost_files: Set[tuple] = set()
        for dead_cell in dead:
            # the pages granted to it, and the frames loaned to it: a
            # loan is a write grant
            working_set = self.pfdats.writable_by(dead_cell)
            # Batch the cache-line invalidations for the whole discard
            # set; the per-page bookkeeping follows.
            self.machine.coherence.invalidate_frames(
                [pf.frame for pf in working_set])
            for pf in working_set:
                discarded += self._discard_page(pf, dead_cell, lost_files,
                                                invalidate=False)
        # Frames we borrowed from a dead memory home died with it, along
        # with whatever we cached in them.
        for pf in self.pfdats.all_pfdats():
            if pf.borrowed_from in dead:
                discarded += self._discard_page(pf, pf.borrowed_from,
                                                lost_files)
        record.files_lost += len(lost_files)
        yield self.costs.discard_per_page_ns * discarded
        return discarded

    def _discard_page(self, pf, dead_cell: int, lost_files: Set[tuple],
                      invalidate: bool = True) -> int:
        """Discard one potentially-corrupt page."""
        prov = self.prov
        if prov is not None:
            prov.page_discarded(self.kernel_id, pf.frame, dead_cell)
        if invalidate:
            self.machine.coherence.invalidate_frames((pf.frame,))
        logical_id = pf.logical_id
        if logical_id is not None:
            tag, idx = logical_id
            if pf.dirty and tag[0] == "file":
                fs = self.filesystems.get(tag[1])
                if fs is not None:
                    try:
                        inode = fs.inode(tag[2])
                        if (tag[1], tag[2]) not in lost_files:
                            fs.bump_generation(inode)
                            lost_files.add((tag[1], tag[2]))
                    except Exception:
                        pass
            elif tag[0] in ("anon", "task"):
                # Anonymous data has no backing store: it is simply gone.
                self.poisoned_anon.add(logical_id)
            self.pfdats.remove(pf)
        self._unmap_frame_everywhere(pf.frame)
        pf.drop_exports()
        pf.dirty = False
        pf.refcount = 0
        if pf.loaned_to == dead_cell:
            self.pfdats.reclaim(pf.frame)
        else:
            self.drop_frame(pf)
        return 1

    def _resolve_dead_children(self, dead: Set[int]) -> None:
        """Dangling-reference cleanup: waits on children that lived on a
        failed cell complete with an error status (the exit notification
        will never come)."""
        for pid, ev in list(self._remote_children.items()):
            if self.registry.cell_of_pid(pid) in dead:
                self._remote_child_status[pid] = -1
                if not ev.triggered:
                    ev.succeed(-1)

    def _kill_dependent_processes(self, dead: Set[int]) -> int:
        """Kill processes whose irreplaceable state lived on a dead cell.

        Processes that merely *read files* served by a dead cell are kept
        (they get I/O errors later, per the generation-number design);
        processes whose anonymous memory ancestry or spanning task touched
        the dead cell cannot make progress and are killed.
        """
        killed = 0
        for proc in list(self.processes.values()):
            if proc.exited:
                continue
            reason = None
            if proc.task_id is not None:
                task = self.registry.task(proc.task_id)
                if task is not None and (task.dead
                                         or set(task.cells()) & dead):
                    reason = "spanning task lost a cell"
            if reason is None and self._cow_ancestry_touches(proc, dead):
                reason = "anonymous memory lost with failed cell"
            if not self.alive:
                break  # the ancestry check found our own tree corrupt
            if reason is None:
                mapped = proc.aspace.ptes.get(self.kernel_id, {})
                for pte in mapped.values():
                    pf = pte.pfdat
                    if pf is not None and pf.logical_id in self.poisoned_anon:
                        reason = "mapped page was discarded"
                        break
            if reason:
                if self.prov is not None:
                    self.prov.process_killed(self.kernel_id, proc.pid,
                                             reason)
                proc.post_signal(SIGKILL)
                killed += 1
        return killed

    def _cow_ancestry_touches(self, proc, dead: Set[int]) -> bool:
        """Whether ``proc``'s COW ancestry leaves this cell for a dead one.

        A corrupt tree is judged as the fault search judges it
        (:meth:`_judge_cow_corruption`) and reads as no dead ancestor.
        """
        leaf = self.cow.resolve(proc.cow_leaf_addr)
        if leaf is None:
            return False
        try:
            *_, top = self.cow.local_ancestry(leaf)
        except CowTreeCorrupt as exc:
            self._judge_cow_corruption(exc)
            return False
        return top.parent_addr != 0 and top.parent_cell in dead
