"""The careful reference protocol (Section 4.1).

One cell reads another's kernel data structures directly "in cases where
RPCs are too slow, an up-to-date view of the data is required, or the data
needs to be published to a large number of cells".  The protocol:

1. ``careful_on``: capture the current context and record which cell will
   be accessed, so a bus error restores control instead of panicking;
2. check every remote address for alignment and for lying in the expected
   cell's memory range;
3. copy values locally before sanity-checking (defends against values
   changing mid-operation);
4. check the allocator-maintained structure type tag;
5. ``careful_off``: future bus errors again cause a panic.

Failures raise :class:`CarefulReferenceFault` (never a panic) and are
reported to the reading cell as failure *hints* about the remote cell.

Timing: the measured careful clock read is 1.16 us end to end, 0.7 us of
which is the cache miss to the remote line; the protocol software costs
are charged from :class:`~repro.unix.costs.KernelCosts` to land there.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.hardware.errors import BusError
from repro.unix.errors import CarefulReferenceFault
from repro.unix.kheap import KOBJ_ALIGN


class CarefulReader:
    """Careful-reference machinery for one reading cell."""

    def __init__(self, cell):
        self.cell = cell
        self.sim = cell.sim
        self.costs = cell.costs
        #: targets of currently-open careful sections (one per thread in
        #: a careful section; several threads on different processors of
        #: the cell can be in sections concurrently).  Bus errors while
        #: any section is open against the erroring cell are captured
        #: instead of escalating to panic.
        self._active: List[int] = []
        self.reads = 0
        self.faults_detected = 0

    @property
    def active_target(self) -> Optional[int]:
        return self._active[-1] if self._active else None

    # -- failure ------------------------------------------------------------

    def fail(self, remote_cell_id: int, check: str,
             detail: str = "") -> CarefulReferenceFault:
        """Record a failed check against ``remote_cell_id``; returns the
        fault for the caller to raise.  Also used by the COW-tree search
        for the checks its walk makes on remote nodes."""
        self.faults_detected += 1
        if remote_cell_id in self._active:
            self._active.remove(remote_cell_id)
        fault = CarefulReferenceFault(remote_cell_id, check, detail)
        prov = self.cell.prov
        if prov is not None:
            # A check that fires while a fault is live is a near-miss:
            # the protocol blocked tainted state from being consumed.
            prov.careful_blocked(remote_cell_id, self.cell.kernel_id,
                                 check, detail)
        # A failed consistency check is a failure hint (Section 4.3).
        self.cell.failure_hint(remote_cell_id,
                               f"careful reference {check} check: {detail}")
        return fault

    # -- composite reads ---------------------------------------------------
    #
    # Event budget (DESIGN.md 3f): consecutive protocol costs with nothing
    # observable between them are one sleep.  Every check, the memory
    # access and every raise stay at the instant the step-by-step protocol
    # put them; the section closes at the end of the merged tail, so it is
    # open ``careful_off_ns`` longer than the protocol's step 5 says.

    def read_word(self, remote_cell_id: int, addr: int) -> Generator:
        """Read one word of remote memory under careful protection.

        Used by clock monitoring; returns the latency-accurate read of the
        shared location (here: its current value is produced by the
        owning cell object, the *memory traffic* by the coherence model).
        """
        obs = self.cell.obs
        span = None
        if obs is not None:
            span = obs.begin("careful.read_word", "careful",
                             cell=self.cell.kernel_id,
                             target=remote_cell_id)
        # Step 1: record the target cell and capture the stack frame.
        self._active.append(remote_cell_id)
        yield self.costs.careful_on_ns
        try:
            latency = self.cell.machine.coherence.read(
                self.cell.cpu_ids[0], addr)
        except BusError as exc:
            if span is not None:
                obs.end(span, outcome="bus_error")
            raise self.fail(remote_cell_id, "bus_error", str(exc))
        # The miss, then step 5: restore panic-on-bus-error behaviour.
        yield latency + self.costs.careful_off_ns
        self._close(remote_cell_id, span)
        return None

    def read_object(self, remote_cell_id: int, addr: int,
                    expected_type: str, copy_words: int = 8,
                    lead_ns: int = 0) -> Generator:
        """Careful read of a typed kernel structure; returns a snapshot.

        Applies every check of the protocol; the returned object is the
        structure itself (our stand-in for the local copy — callers must
        not mutate it, mirroring the read-only discipline the paper's
        lookup algorithms obey).  ``lead_ns`` is time the caller owes
        before the section starts (a COW tree hop); it is slept together
        with the section's first cost.
        """
        costs = self.costs
        obs = self.cell.obs
        span = None
        if obs is not None:
            # The section starts after the lead.
            span = obs.begin("careful.read_object", "careful",
                             cell=self.cell.kernel_id,
                             start_ns=self.sim.now + lead_ns,
                             target=remote_cell_id, ktype=expected_type)
        self._active.append(remote_cell_id)
        try:
            # Step 1, and the cost of step 2's alignment and range checks.
            yield lead_ns + costs.careful_on_ns + costs.careful_check_ns
            if addr % KOBJ_ALIGN != 0:
                raise self.fail(remote_cell_id, "alignment",
                                f"addr={addr:#x}")
            heap_range = self.cell.registry.heap_range_of(remote_cell_id)
            if heap_range is None:
                raise self.fail(remote_cell_id, "range",
                                f"cell {remote_cell_id} unknown")
            lo, hi = heap_range
            if not lo <= addr < hi:
                raise self.fail(
                    remote_cell_id, "range",
                    f"addr={addr:#x} outside cell {remote_cell_id} "
                    f"kernel range [{lo:#x},{hi:#x})")
            # Step 4 (tag read): a real memory access — may bus-error.
            try:
                latency = self.cell.machine.coherence.read(
                    self.cell.cpu_ids[0], addr)
            except BusError as exc:
                raise self.fail(remote_cell_id, "bus_error", str(exc))
            yield latency
            resolved = self.cell.registry.resolve_kernel_address(
                remote_cell_id, addr)
            if resolved is None:
                mismatch = f"no allocation at {addr:#x}"
            elif resolved[0] != expected_type:
                mismatch = (f"expected {expected_type!r} "
                            f"found {resolved[0]!r}")
            else:
                mismatch = None
            if mismatch is not None:
                yield costs.careful_check_ns
                raise self.fail(remote_cell_id, "type_tag", mismatch)
        except CarefulReferenceFault as exc:
            if span is not None:
                obs.end(span, outcome="fault", check=exc.check)
            raise
        # The tag check, step 3 (copy to local memory) and step 5.
        yield (costs.careful_check_ns
               + copy_words * costs.careful_copy_ns_per_word
               + costs.careful_off_ns)
        self._close(remote_cell_id, span)
        return resolved[1]

    def _close(self, remote_cell_id: int, span) -> None:
        """End of a section that passed every check."""
        if self._active:
            self._active.pop()
        self.reads += 1
        if span is not None:
            self.cell.obs.end(span, outcome="ok")
        prov = self.cell.prov
        if prov is not None:
            prov.careful_ok(remote_cell_id, self.cell.kernel_id)

    # -- bus-error interception for non-careful kernel code ------------------

    def handle_kernel_bus_error(self, exc: BusError) -> bool:
        """Trap-handler policy: True if the error was captured.

        Inside a careful section the saved context is restored (the
        caller sees :class:`CarefulReferenceFault`); outside one, a bus
        error during kernel execution indicates internal corruption and
        the cell panics.
        """
        return bool(self._active)
