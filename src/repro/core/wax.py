"""Wax: the user-level intercell resource-management process (Section 3.2).

Wax centralizes the allocation decisions that need a global view (Table
3.4: which cells to allocate memory from, clock-hand targeting, gang
scheduling / space sharing, swap victims) while each cell stays
responsible only for its internal correctness.

Architecture as in the paper:

* Wax runs as a spanning task with one thread per cell; the threads
  *read* state from every cell through shared memory and synchronize
  through ordinary user-level locks (modelled here as a shared snapshot
  dictionary refreshed by each thread);
* it pushes *hints*; every cell sanity-checks inputs received from Wax,
  so a damaged Wax "can hurt system performance but not correctness";
* it "uses resources from all cells, so its pages are discarded and it
  exits whenever any cell fails.  The recovery process starts a new
  incarnation of Wax which forks to all cells and rebuilds its picture of
  the system state from scratch."
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.hardware.params import NS_PER_MS


#: how often each Wax thread refreshes its cell's slice of the snapshot.
WAX_PERIOD_NS = 50 * NS_PER_MS


class Wax:
    """One (restartable) incarnation manager for the Wax process."""

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self.incarnation = 0
        self._threads: List = []
        self._alive = False
        #: the shared-memory state snapshot Wax threads maintain:
        #: cell_id -> {"free_frames": int, "load": int, ...}
        self.snapshot: Dict[int, Dict[str, int]] = {}
        self.hints_pushed = 0
        self.restarts = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Fork Wax threads to every live cell."""
        if self._alive:
            return
        self._alive = True
        self.incarnation += 1
        self.snapshot = {}
        self._threads = []
        for cell_id in self.system.registry.live_cell_ids():
            proc = self.sim.process(
                self._wax_thread(cell_id, self.incarnation),
                name=f"wax.{self.incarnation}.c{cell_id}")
            self._threads.append(proc)

    def kill(self, reason: str) -> None:
        """Wax exits whenever any cell fails (its pages were discarded)."""
        if not self._alive:
            return
        self._alive = False
        for proc in self._threads:
            if proc.is_alive:
                proc.interrupt(reason)
        self._threads = []
        # Hints die with the incarnation: cells fall back to defaults.
        for cell in self.system.cells:
            if cell.alive:
                cell.wax_hints.clear()

    def restart(self) -> None:
        """New incarnation after recovery (rebuilds state from scratch)."""
        self.kill("restart")
        self.restarts += 1
        self.start()

    # -- the per-cell thread ----------------------------------------------

    def _wax_thread(self, cell_id: int, incarnation: int) -> Generator:
        """Read local state, synchronize via the shared snapshot, push
        hints derived from the global view."""
        try:
            while self._alive and incarnation == self.incarnation:
                cell = self.system.registry.cell_object(cell_id)
                if cell is None or not cell.alive:
                    return
                # Read local cell state (the "State" arrows of Fig. 3.3).
                self.snapshot[cell_id] = {
                    "free_frames": cell.pfdats.free_count,
                    "load": cell.live_process_count(),
                    "borrowed": len(cell.pfdats.stock),
                }
                self._push_hints(cell)
                yield WAX_PERIOD_NS
        except Exception:
            return  # a dying Wax thread must never take a cell with it

    def _push_hints(self, cell) -> None:
        """Derive policy hints from the global snapshot (Table 3.4)."""
        live = self.system.registry.live_cell_ids()
        view = {c: self.snapshot.get(c) for c in live
                if self.snapshot.get(c) is not None and c != cell.kernel_id}
        if not view:
            return
        # Page-allocator hint: borrow from the cell with the most free
        # memory.  The receiving cell sanity-checks the value.
        target = max(view, key=lambda c: view[c]["free_frames"])
        hints = {
            "borrow_target": target,
            # Clock-hand hint: preferentially free pages whose memory
            # home is the most pressured cell (Section 5.7).
            "clockhand_target": min(view,
                                    key=lambda c: view[c]["free_frames"]),
            "incarnation": self.incarnation,
        }
        # Gang scheduling / space sharing (Table 3.4): when one spanning
        # task dominates the machine, grant its components their cells'
        # processors exclusively so the gang runs in lockstep.
        gang = self._pick_gang_task(live)
        if gang is not None:
            hints["gang_task"] = gang
        # Cells sanity-check Wax input (Section 3.2); feed it through the
        # same validation they would apply.
        if cell.validate_wax_hints(hints):
            cell.wax_hints.update(hints)
            if gang is None:
                cell.wax_hints.pop("gang_task", None)
            cell.apply_wax_hints()
            self.hints_pushed += 1

    def _pick_gang_task(self, live) -> Optional[int]:
        registry = self.system.registry
        for task_id, task in sorted(registry._tasks.items()):
            if task.dead or not task.components:
                continue
            if len(task.cells()) * 2 >= len(live):
                return task_id
        return None
