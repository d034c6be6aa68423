"""System-wide consistency invariants, checkable at any quiescent point.

These encode the correctness conditions the paper's mechanisms maintain;
the property-based tests drive random fault/workload sequences and assert
them after every recovery round:

* **free list**: no owned frame is on the free list twice, or both
  free and on the reserved list, and no refcount is negative;
* **frame ledger** (machine-wide, DESIGN.md §3m): no owned frame is
  free and also cached, loaned or referenced; a lender's reserved list
  and its live borrowers' tables agree frame by frame; and every
  extended pfdat is hashed, imported, in the borrowed stock or
  returning, apart from fills in progress on borrowed frames;
* **no dangling intercell references**: no pfdat imports from or exports
  to a dead cell; no frames loaned to dead cells;
* **firewall consistency**: a cell's record of who can write its pages
  agrees with the hardware firewall vectors;
* **heap accounting**: live kernel objects equal allocations minus frees;
* **membership**: live cells agree with ground truth (no live cell marked
  dead, no dead cell serving RPCs).
"""

from __future__ import annotations

from typing import List


def check_cell(cell) -> List[str]:
    """All single-cell invariants; returns a list of violations."""
    problems: List[str] = []
    if not cell.alive:
        return problems
    problems += _check_frame_states(cell)
    problems += _check_firewall_agreement(cell)
    if cell.heap.live_objects != cell.heap.allocs - cell.heap.frees:
        problems.append(
            f"cell {cell.kernel_id}: heap accounting mismatch "
            f"({cell.heap.live_objects} live, "
            f"{cell.heap.allocs}-{cell.heap.frees})")
    return problems


def _check_frame_states(cell) -> List[str]:
    """Free-list, reserved-list and refcount consistency of owned frames.

    Walks the freed-frame FIFO, the reserved list and the materialized
    pfdats only: a frame the allocator's cursor has not reached is on
    the free list once by construction, and one that was never touched
    has no pfdat and is unhashed and unreferenced, so "free AND
    reserved" is the only state it can violate.
    """
    problems: List[str] = []
    table = cell.pfdats
    freed = set()
    for frame in table._freed:
        if frame in freed or table.untouched(frame):
            problems.append(
                f"cell {cell.kernel_id}: frame {frame} on free list twice")
        freed.add(frame)
    for frame in table.reserved:
        if table.owns(frame) and (frame in freed
                                  or table.untouched(frame)):
            pf = table.materialized(frame)
            if pf is None or pf.on_free_list:
                problems.append(
                    f"cell {cell.kernel_id}: frame {frame} free AND "
                    f"reserved")
    for pf in table.all_pfdats():
        if pf.refcount < 0 and table.owns(pf.frame):
            problems.append(
                f"cell {cell.kernel_id}: frame {pf.frame} refcount "
                f"{pf.refcount}")
    return problems


def _check_firewall_agreement(cell) -> List[str]:
    """The OS write-grant records and the hardware firewall agree.

    Both ways: every recorded grant is set in its frame's firewall (a
    borrowed frame's at its live memory home), and every remote bit on
    the cell's own nodes is a recorded grant.  A pair in ``revoking``
    has its bits off and its record drop pending.  Mid-recovery the
    preemptive discard drops records before the sweep clears their
    bits, so the second direction is checked between rounds only.
    """
    problems: List[str] = []
    params = cell.machine.params
    registry = cell.registry
    firewalls = cell.machine.memory.firewalls
    revoking = cell.firewall_mgr.revoking  # bits off, record drop pending
    table = cell.pfdats

    def first_cpu(cell_id):
        return registry.first_node_of(cell_id) * params.cpus_per_node

    for pf in table._exported.values():
        node = params.node_of_frame(pf.frame)
        if not registry.is_live(registry.cell_of_node(node)):
            continue  # the memory home's firewall died with it
        fw = firewalls[node]
        for grantee in pf.export_writable:
            if ((pf.frame, grantee) not in revoking
                    and not fw.allows(pf.frame, first_cpu(grantee))):
                problems.append(
                    f"cell {cell.kernel_id}: pfdat says cell {grantee} "
                    f"can write frame {pf.frame}, firewall disagrees")
    if cell.in_recovery:
        return problems
    others = [c for c in registry.all_cell_ids() if c != cell.kernel_id]
    for node in cell.node_ids:
        fw = firewalls[node]
        for frame in fw.remote_writable_frames():
            pf = table.materialized(frame)
            granted = pf.export_writable if pf is not None else ()
            for other in others:
                if (other not in granted and (frame, other) not in revoking
                        and fw.allows(frame, first_cpu(other))):
                    problems.append(
                        f"cell {cell.kernel_id}: firewall lets cell "
                        f"{other} write frame {frame}, no pfdat grants it")
    return problems


def _check_frame_ledger(cells) -> List[str]:
    """Every frame in one state, and loans agreed on by both ends.

    ``cells`` are the live cells.  One walk of each table's materialized
    pfdats (``PfdatTable.placements``, which ``repro metrics``' ``frames``
    counts) and of its reserved list: O(materialized pfdats + reserved).
    A ``returning`` frame may already be off its lender's reserved list.
    """
    problems: List[str] = []
    tables = {cell.kernel_id: cell.pfdats for cell in cells}
    for cell in cells:
        me, table = cell.kernel_id, cell.pfdats
        states = table.placements()
        for pf in states["free"]:
            if (pf.logical_id is not None or pf.loaned_to is not None
                    or pf.refcount):
                problems.append(
                    f"cell {me}: frame {pf.frame} free and also cached, "
                    f"loaned or referenced")
        for pf in table.reserved.values():
            borrower = tables.get(pf.loaned_to)
            if borrower is None:
                continue  # not loaned, or loaned to a dead cell
            held = borrower.materialized(pf.frame)
            if held is None or held.borrowed_from != me:
                problems.append(
                    f"cell {me}: frame {pf.frame} loaned to cell "
                    f"{pf.loaned_to}, which holds no pfdat borrowing it")
        orphans = [pf for pf in states["held"] if pf.extended]
        if (len(orphans) > len(cell._filling)
                or any(pf.borrowed_from is None for pf in orphans)):
            problems += [f"cell {me}: extended pfdat for frame {pf.frame} "
                         f"is unhashed, unimported and in no stock"
                         for pf in orphans]
        for state in ("borrowed_stock", "borrowed_cached", "held"):
            for pf in states[state]:
                lender = tables.get(pf.borrowed_from)
                if lender is None:
                    continue  # owned, or borrowed from a dead cell
                loaned = lender.reserved.get(pf.frame)
                if loaned is None or loaned.loaned_to != me:
                    problems.append(
                        f"cell {me}: frame {pf.frame} borrowed from cell "
                        f"{pf.borrowed_from}, which has no loan of it")
    return problems


def check_no_dead_references(cell, dead_cells) -> List[str]:
    """After recovery: nothing may still reference a dead cell."""
    problems: List[str] = []
    if not cell.alive:
        return problems
    dead = set(dead_cells)
    for pf in cell.pfdats.all_pfdats():
        if pf.imported_from in dead:
            problems.append(
                f"cell {cell.kernel_id}: frame {pf.frame} still imported "
                f"from dead cell {pf.imported_from}")
        if pf.borrowed_from in dead:
            problems.append(
                f"cell {cell.kernel_id}: frame {pf.frame} still borrowed "
                f"from dead cell {pf.borrowed_from}")
        if pf.export_writable & dead:
            problems.append(
                f"cell {cell.kernel_id}: frame {pf.frame} still writable "
                f"by dead cells {pf.export_writable & dead}")
    for pf in cell.pfdats.reserved.values():
        if pf.loaned_to in dead:
            problems.append(
                f"cell {cell.kernel_id}: frame {pf.frame} still loaned "
                f"to dead cell {pf.loaned_to}")
    return problems


def check_system(system) -> List[str]:
    """All invariants across a HiveSystem."""
    problems: List[str] = []
    registry = system.registry
    dead = [c for c in registry.all_cell_ids() if not registry.is_live(c)]
    live = []
    for cell_id in registry.all_cell_ids():
        cell = registry.cell_object(cell_id)
        if cell is None:
            continue
        if registry.is_live(cell_id) != cell.alive:
            problems.append(
                f"membership mismatch for cell {cell_id}: registry says "
                f"{registry.is_live(cell_id)}, cell says {cell.alive}")
        if cell.alive and registry.is_live(cell_id):
            live.append(cell)
        problems += check_cell(cell)
        problems += check_no_dead_references(cell, dead)
    problems += _check_frame_ledger(live)
    return problems
