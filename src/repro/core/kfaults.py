"""Kernel-data corruption injection (the Table 7.4 software faults).

"Each software fault injection simulates a kernel bug by corrupting the
contents of a kernel data structure.  To stress the wild write defense and
careful reference protocol, we corrupted pointers in several pathological
ways: to address random physical addresses in the same cell or other
cells, to point one word away from the original address, and to point
back at the data structure itself."

The two injection sites match the paper's:

* a pointer in a **process address map** (the region's COW-leaf address);
* a pointer in a **copy-on-write tree** (a node's parent address).

"Some of the simulated faults resulted in wild writes" — after corrupting
a pointer, the injector can make the buggy kernel issue a burst of writes
through addresses derived from the corrupt value.  Writes to pages the
firewall protects bounce with bus errors (and panic the buggy cell); writes
to pages the cell legitimately had write access to really corrupt memory —
which is exactly what preemptive discard must mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hardware.errors import BusError, FirewallViolation
from repro.sim.rng import RandomStreams

CORRUPT_RANDOM_LOCAL = "random_local"
CORRUPT_RANDOM_REMOTE = "random_remote"
CORRUPT_OFF_BY_ONE_WORD = "off_by_one_word"
CORRUPT_SELF_POINTER = "self_pointer"

ALL_MODES = (CORRUPT_RANDOM_LOCAL, CORRUPT_RANDOM_REMOTE,
             CORRUPT_OFF_BY_ONE_WORD, CORRUPT_SELF_POINTER)


@dataclass
class KernelFaultRecord:
    site: str
    mode: str
    cell_id: int
    time_ns: int
    original_value: int
    corrupt_value: int
    wild_writes_attempted: int = 0
    wild_writes_landed: int = 0
    wild_writes_blocked: int = 0


class KernelFaultInjector:
    """Corrupts kernel structures of one victim cell."""

    def __init__(self, system, seed: int = 7):
        self.system = system
        self.sim = system.sim
        self.rng = RandomStreams(seed)
        self.records: List[KernelFaultRecord] = []

    # -- corrupt-value synthesis ------------------------------------------

    def _corrupt_value(self, cell, original: int, mode: str,
                       self_addr: int) -> int:
        params = self.system.params
        if mode == CORRUPT_RANDOM_LOCAL:
            lo, hi = self.system.registry.heap_range_of(cell.kernel_id)
            # Random address in the same cell — any alignment.
            return self.rng.randint("kf.addr", lo, hi - 1)
        if mode == CORRUPT_RANDOM_REMOTE:
            others = [c for c in self.system.registry.all_cell_ids()
                      if c != cell.kernel_id]
            target = self.rng.choice("kf.cell", others)
            lo, hi = self.system.registry.heap_range_of(target)
            return self.rng.randint("kf.addr", lo, hi - 1)
        if mode == CORRUPT_OFF_BY_ONE_WORD:
            return original + 8 if original else self_addr + 8
        if mode == CORRUPT_SELF_POINTER:
            return self_addr
        raise ValueError(f"unknown corruption mode {mode!r}")

    # -- injection sites ------------------------------------------------------

    def corrupt_address_map(self, cell_id: int, mode: str,
                            wild_writes: int = 4) -> Optional[KernelFaultRecord]:
        """Corrupt the COW-leaf pointer in some process's address map."""
        cell = self.system.cell(cell_id)
        victims = [p for p in cell.processes.values()
                   if not p.exited and any(
                       r.kind == "anon" and r.task_id is None
                       for r in p.aspace.regions)]
        if not victims:
            return None
        proc = self.rng.choice("kf.proc", sorted(victims, key=lambda p: p.pid))
        region = next(r for r in proc.aspace.regions
                      if r.kind == "anon" and r.task_id is None)
        original = region.cow_leaf_addr
        corrupt = self._corrupt_value(cell, original, mode, region.kaddr)
        region.cow_leaf_addr = corrupt
        # The process-level leaf pointer is the same map entry.
        if proc.cow_leaf_addr == original:
            proc.cow_leaf_addr = corrupt
        record = KernelFaultRecord(
            site="address_map", mode=mode, cell_id=cell_id,
            time_ns=self.sim.now, original_value=original,
            corrupt_value=corrupt)
        self.records.append(record)
        self._note_corrupt(record)
        if wild_writes:
            self._wild_write_burst(cell, corrupt, wild_writes, record)
        return record

    def corrupt_cow_tree(self, cell_id: int, mode: str,
                         wild_writes: int = 4,
                         prefer_interior: bool = True
                         ) -> Optional[KernelFaultRecord]:
        """Corrupt a parent pointer inside the cell's COW forest.

        ``prefer_interior`` targets non-leaf nodes, which are traversed
        only on faults that miss the leaf — the reason the paper's COW
        corruption took far longer to detect (401-760 ms vs 38-65 ms).
        """
        cell = self.system.cell(cell_id)
        nodes = [n for n in cell.cow._nodes.values() if n.parent_addr != 0]
        if not nodes:
            return None
        interior = [n for n in nodes if n.refs > 1]
        pool = interior if (prefer_interior and interior) else nodes
        node = self.rng.choice("kf.cow",
                               sorted(pool, key=lambda n: n.node_id))
        original = node.parent_addr
        corrupt = self._corrupt_value(cell, original, mode, node.kaddr)
        node.parent_addr = corrupt
        if mode == CORRUPT_SELF_POINTER:
            node.parent_cell = node.owner_cell
        record = KernelFaultRecord(
            site="cow_tree", mode=mode, cell_id=cell_id,
            time_ns=self.sim.now, original_value=original,
            corrupt_value=corrupt)
        self.records.append(record)
        self._note_corrupt(record)
        if wild_writes:
            self._wild_write_burst(cell, corrupt, wild_writes, record)
        return record

    def _note_corrupt(self, record: KernelFaultRecord) -> None:
        rec = self.system.recorder
        if rec is not None:
            rec.event("fault.corrupt", "fault", cell=record.cell_id,
                      site=record.site, mode=record.mode)
        prov = self.system.provenance
        if prov is not None:
            prov.fault_injected(record.cell_id, kind="corrupt",
                                site=record.site, mode=record.mode)

    # -- wild writes ----------------------------------------------------------

    def _wild_write_burst(self, cell, seed_addr: int, count: int,
                          record: KernelFaultRecord) -> None:
        """The buggy kernel writes through garbage derived from the
        corrupt pointer.  The firewall decides what actually lands."""
        params = self.system.params
        registry = self.system.registry
        prov = self.system.provenance
        cpu = cell.cpu_ids[0]
        addr = seed_addr
        for i in range(count):
            addr = (addr * 1103515245 + 12345) % params.total_memory
            frame = addr // params.page_size
            offset = (addr % params.page_size) & ~7
            record.wild_writes_attempted += 1
            if prov is not None:
                try:
                    home = registry.cell_of_node(params.node_of_frame(frame))
                except KeyError:
                    home = None
            try:
                cell.machine.memory.write_bytes(
                    frame, offset, b"\xde\xad\xbe\xef\xfe\xed\xfa\xce",
                    cpu=cpu)
                record.wild_writes_landed += 1
                if prov is not None:
                    prov.wild_write(cell.kernel_id, home, frame,
                                    landed=True)
            except FirewallViolation:
                record.wild_writes_blocked += 1
                if prov is not None:
                    prov.wild_write(cell.kernel_id, home, frame,
                                    landed=False, defense="firewall")
                # A firewall bus error during kernel execution panics the
                # buggy cell — unless it strikes while the kernel is in a
                # careful section, which wild writes never are.
                cell.panic("bus error on wild write (firewall)")
                return
            except BusError:
                record.wild_writes_blocked += 1
                if prov is not None:
                    prov.wild_write(cell.kernel_id, home, frame,
                                    landed=False, defense="bus_error")
                cell.panic("bus error on wild write")
                return
