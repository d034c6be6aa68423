"""Swap space and the page-replacement (clock hand) daemon.

Two of the per-cell policy modules Wax drives (Table 3.4) live here:

* the **virtual memory clock hand** — a kernel daemon that keeps a
  reserve of free frames by evicting unreferenced pages through
  ``LocalKernel.evict``, the one eviction rule: a dirty page is written
  back first, a file page to disk and an anonymous one to the swap
  partition;
* the **swapper** backing store — a slot allocator on the local disk for
  anonymous pages, from which faults swap pages back in.

Section 5.7: Wax "will direct the virtual memory clock hand process
running on each cell to preferentially free pages whose memory home is
under memory pressure" — the daemon consults a preferred-source hook
that Hive cells wire to Wax's ``clockhand_target`` hint, returning
borrowed frames (and releasing imports) from the pressured cell first.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.unix.fs import PAGE


class SwapSpace:
    """Anonymous-page backing store on a local disk.

    Slots are disk blocks past the file system's region; contents are
    kept per-slot like the file platter so swapped data survives frame
    reuse (but not node failure — anonymous data has no remote copies).
    """

    #: first disk block used for swap (leaves room for the file system)
    BASE_BLOCK = 1_000_000

    def __init__(self, sim, disk):
        self.sim = sim
        self.disk = disk
        self._slots: Dict[tuple, int] = {}       # logical id -> block
        self._data: Dict[int, bytes] = {}
        self._next_block = self.BASE_BLOCK
        self._free_blocks: List[int] = []
        self.swap_outs = 0
        self.swap_ins = 0

    def has(self, logical_id: tuple) -> bool:
        return logical_id in self._slots

    def _alloc_block(self) -> int:
        if self._free_blocks:
            return self._free_blocks.pop()
        block = self._next_block
        self._next_block += PAGE // 512
        return block

    def swap_out(self, logical_id: tuple, data: bytes) -> Generator:
        """Write one anonymous page to swap (a disk write)."""
        if len(data) != PAGE:
            raise ValueError("swap writes whole pages")
        block = self._slots.get(logical_id)
        if block is None:
            block = self._alloc_block()
            self._slots[logical_id] = block
        yield from self.disk.write(block, PAGE)
        self._data[block] = bytes(data)
        self.swap_outs += 1
        return None

    def swap_in(self, logical_id: tuple) -> Generator:
        """Read one anonymous page back; returns its bytes."""
        block = self._slots.get(logical_id)
        if block is None:
            raise KeyError(f"{logical_id} not in swap")
        yield from self.disk.read(block, PAGE)
        self.swap_ins += 1
        return self._data[block]

    def discard(self, logical_id: tuple) -> None:
        """Free a slot (process exit or page discard)."""
        block = self._slots.pop(logical_id, None)
        if block is not None:
            self._data.pop(block, None)
            self._free_blocks.append(block)

    @property
    def slots_used(self) -> int:
        return len(self._slots)


class ClockHand:
    """The page-replacement daemon for one kernel."""

    def __init__(self, kernel, low_watermark: int = 128,
                 target_free: int = 256,
                 period_ns: int = 100_000_000):
        self.kernel = kernel
        self.low_watermark = low_watermark
        self.target_free = target_free
        self.period_ns = period_ns
        self.passes = 0
        self.returned_borrowed = 0
        self._hand = 0
        self._proc = kernel.sim.process(self._loop(),
                                        name=f"k{kernel.kernel_id}.clockhand")

    # -- the daemon loop ---------------------------------------------------

    def _loop(self) -> Generator:
        while True:
            yield self.period_ns
            if not self.kernel.alive:
                return
            if self.kernel.pfdats.free_count >= self.low_watermark:
                continue
            yield from self.run_pass()

    def run_pass(self) -> Generator:
        """One sweep: free pages until the target reserve is met."""
        self.passes += 1
        kernel = self.kernel
        # Preferred source first (Wax's clockhand_target): give back
        # memory belonging to the pressured cell.
        preferred = kernel.clockhand_preferred_source()
        if preferred is not None:
            yield from self._release_foreign(preferred)
        candidates = [pf for pf in kernel.pfdats.hashed_pfdats()
                      if pf.refcount == 0 and kernel.frees_local(pf)]
        # Clock order: resume the sweep where the hand stopped.
        candidates.sort(key=lambda pf: pf.frame)
        start = 0
        for i, pf in enumerate(candidates):
            if pf.frame >= self._hand:
                start = i
                break
        ordered = candidates[start:] + candidates[:start]
        for pf in ordered:
            if kernel.pfdats.free_count >= self.target_free:
                break
            self._hand = pf.frame + 1
            yield from kernel.evict(pf)
        return None

    def _release_foreign(self, source_cell: int) -> Generator:
        """Give a pressured cell its memory back: unused borrowed frames
        first, then pages cached on its frames, then imports from it."""
        kernel, table = self.kernel, self.kernel.pfdats
        released = 0
        for pf in [*table.stock.values(), *table.hashed_pfdats()]:
            if released >= 64:
                break
            if pf.refcount or source_cell not in (pf.borrowed_from,
                                                  pf.imported_from):
                continue
            if pf.frame in table.stock or pf.imported_from == source_cell:
                kernel.drop_frame(pf)
            elif not (kernel.reclaimable(pf)
                      and (yield from kernel.evict(pf))):
                continue  # not ours to drop, or kept during the writeback
            released += 1
        self.returned_borrowed += released
        if released:
            yield released * kernel.costs.unmap_page_ns
        return None
