"""Page frame data structures (pfdats) and the pfdat hash table.

Section 5.1 of the paper: "each page frame in paged memory is managed by
an entry in a table of page frame data structures (pfdats).  Each pfdat
records the logical page id of the data stored in the corresponding frame.
The logical page id has two components: a tag and an offset.  The tag
identifies the object to which the logical page belongs.  This can be
either a file ... or a node in the copy-on-write tree ...  The pfdats are
linked into a hash table that allows lookup by logical page id."

Hive's memory sharing adds *extended pfdats* (Section 5.2): dynamically
allocated pfdats that bind a logical page id to a page frame belonging to
another cell.  "Extended pfdats are used in both cases [logical and
physical sharing] to allow most of the kernel to operate on the remote
page as if it were a local page."  Section 5.5: "the logical-level and
physical-level state machines use separate storage within each pfdat" —
hence the disjoint field groups below.

:class:`PfdatTable` alone decides where a frame is (DESIGN.md §3m), and
:meth:`PfdatTable.drop` is the one way out of a page's frame, whatever
kind of frame it is.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import (AbstractSet, Deque, Dict, FrozenSet, Iterable, List,
                    Optional, Tuple, Union)

from repro.unix.kheap import KObject

#: A logical page id: (tag, offset).  The tag is a hashable object id —
#: ``("file", fs_id, inode)`` or ``("anon", cell_id, cow_node_id)``.
LogicalId = Tuple[tuple, int]


#: The export sets of a pfdat never exported: one shared empty set, so
#: a page nobody imported allocates none.  Only the :class:`Pfdat`
#: methods below change the sets, allocating on the first export.
_UNEXPORTED: FrozenSet[int] = frozenset()


class Pfdat(KObject):
    """One page-frame descriptor."""

    __slots__ = (
        "frame", "logical_id", "valid", "dirty", "refcount",
        # logical-level sharing state (Figure 5.3a)
        "exported_to", "export_writable", "imported_from",
        "import_writable",
        # physical-level sharing state (Figure 5.3b)
        "loaned_to", "borrowed_from",
        # bookkeeping
        "extended", "on_free_list", "table", "seq",
    )

    def __init__(self, frame: int, extended: bool = False):
        super().__init__()
        self.frame = frame
        self.logical_id: Optional[LogicalId] = None
        self.valid = False           # frame holds meaningful data
        self.dirty = False           # modified with respect to backing store
        self.refcount = 0            # mappings + transient kernel references
        # Logical level, data-home side: which client cells import this
        # page and which of them this kernel granted write access.  Most
        # pages are never exported: both sets are the shared
        # ``_UNEXPORTED`` until the first export.
        self.exported_to: AbstractSet[int] = _UNEXPORTED
        self.export_writable: AbstractSet[int] = _UNEXPORTED
        # Client side: the data home, and whether it granted us write.
        self.imported_from: Optional[int] = None
        self.import_writable = False
        # Physical level: frame loaned out (memory-home side) or borrowed
        # (data-home side).
        self.loaned_to: Optional[int] = None
        self.borrowed_from: Optional[int] = None
        self.extended = extended
        self.on_free_list = False
        #: owning table and its insertion sequence number (the position
        #: in ``_by_frame``, which index queries sort by to reproduce
        #: the exact iteration order of the old full scans).
        self.table: Optional["PfdatTable"] = None
        self.seq = 0

    def export_to(self, cell_id: int) -> None:
        """Record ``cell_id`` as importing this page."""
        if self.exported_to is _UNEXPORTED:
            self.exported_to = set()
        self.exported_to.add(cell_id)

    def unexport(self, cell_id: int) -> None:
        """``cell_id`` released its import of this page."""
        if cell_id in self.exported_to:
            self.exported_to.remove(cell_id)

    def grant_write(self, cell_id: int) -> None:
        """Record a write grant to ``cell_id`` in the table's index."""
        if self.export_writable is _UNEXPORTED:
            self.export_writable = set()
        if cell_id not in self.export_writable:
            self.export_writable.add(cell_id)
            if self.table is not None:
                self.table._index_grant(self, cell_id)

    def revoke_write(self, cell_id: int) -> None:
        """Drop the write grant to ``cell_id`` and its index entry."""
        if cell_id in self.export_writable:
            self.export_writable.remove(cell_id)
            if self.table is not None:
                self.table._index_revoke(self, cell_id)

    def drop_exports(self) -> None:
        """Forget every importer and every write grant."""
        for cell_id in tuple(self.export_writable):
            self.revoke_write(cell_id)
        self.exported_to = self.export_writable = _UNEXPORTED


#: Where a frame is, as :meth:`PfdatTable.placements` files it (the
#: states are defined in DESIGN.md §3m).
FRAME_STATES = ("free", "cached", "held", "loaned", "borrowed_stock",
                "borrowed_cached", "returning", "imported")


class NoFreeFrames(MemoryError):
    """The allocator found no acceptable free frame."""


class PfdatTable:
    """One kernel's page-frame table, hash table, and free list.

    ``owned`` is one step-1 ``range`` of frames or an iterable of
    disjoint ones (one per node), in boot order.
    """

    def __init__(self, owned: Union[range, Iterable[range]]):
        self._by_frame: Dict[int, Pfdat] = {}
        self._hash: Dict[LogicalId, Pfdat] = {}
        # Writable-by-cell index over every pfdat of the table, owned,
        # loaned or extended: grantee cell -> {frame: pfdat}.  Kept by
        # ``Pfdat.grant_write`` / ``revoke_write`` so preemptive
        # discard's working-set query is O(result), not O(all frames).
        self._writable_by: Dict[int, Dict[int, Pfdat]] = {}
        #: pfdats with any grantee at all (the Section 4.2
        #: remotely-writable sample), frame -> pfdat.
        self._exported: Dict[int, Pfdat] = {}
        # Nothing here is per frame: a large machine has ~100k frames
        # per kernel and most are never referenced in a run.  Owned
        # frames are runs ``(start, stop, rank)``, ``rank`` being the
        # boot-order position of ``start``; a pfdat is materialized on
        # first touch with its frame's rank as ``seq`` — the eager
        # table's numbering, so seq-sorted index queries are unchanged.
        runs = [owned] if isinstance(owned, range) else list(owned)
        self._runs: List[Tuple[int, int, int]] = []
        rank = 0
        for run in runs:
            if run:
                self._runs.append((run.start, run.stop, rank))
                rank += len(run)
        self._by_start = sorted(self._runs)
        self._starts = [run[0] for run in self._by_start]
        self._first_ranks = [run[2] for run in self._runs]
        #: how many frames this kernel owns
        self.owned_count = rank
        # The free list in the order the allocator takes it: the owned
        # frames from rank ``_cursor`` on (boot order, never handed out
        # yet), then ``_freed``, the frames freed since (FIFO).  A frame
        # loaned meanwhile keeps its stale entry; alloc_frame skips it.
        self._cursor = 0
        self._freed: Deque[int] = deque()
        self._seq = rank
        #: frames this kernel has loaned out: parked on a reserved list,
        #: "the memory home moves the page frame to a reserved list and
        #: ignores it until the data home frees it or fails" (Section 5.4).
        self.reserved: Dict[int, Pfdat] = {}
        #: borrowed frames not in use, frame -> extended pfdat, handed
        #: out newest first, and those on their way back to their memory
        #: home, kept (never handed out) until the return is settled.
        self.stock: Dict[int, Pfdat] = {}
        self.returning: Dict[int, Pfdat] = {}
        self.lookups = 0
        self.hits = 0

    # -- writable-by-cell index -------------------------------------------

    def _materialize(self, frame: int, rank: int) -> Pfdat:
        """Create the regular pfdat for an owned frame on first touch."""
        pf = Pfdat(frame)
        pf.on_free_list = True
        pf.table = self
        pf.seq = rank
        self._by_frame[frame] = pf
        return pf

    # -- owned frames ---------------------------------------------------------

    def _rank_of(self, frame: int) -> Optional[int]:
        """Boot-order position of ``frame``, None if it is not owned."""
        i = bisect_right(self._starts, frame) - 1
        if i >= 0:
            start, stop, rank = self._by_start[i]
            if frame < stop:
                return rank + frame - start
        return None

    def _frame_at(self, rank: int) -> int:
        """The owned frame at boot-order position ``rank``."""
        start, _, first = self._runs[bisect_right(self._first_ranks,
                                                  rank) - 1]
        return start + rank - first

    def owns(self, frame: int) -> bool:
        return self._rank_of(frame) is not None

    def untouched(self, frame: int) -> bool:
        """Whether owned ``frame`` still has its boot-time free-list
        entry (the allocator's cursor has not reached it; the entry may
        be stale)."""
        rank = self._rank_of(frame)
        return rank is not None and rank >= self._cursor

    def _index_grant(self, pf: Pfdat, cell_id: int) -> None:
        self._writable_by.setdefault(cell_id, {})[pf.frame] = pf
        self._exported[pf.frame] = pf

    def _index_revoke(self, pf: Pfdat, cell_id: int) -> None:
        grantees = self._writable_by[cell_id]
        del grantees[pf.frame]
        if not grantees:
            del self._writable_by[cell_id]
        if not pf.export_writable:
            del self._exported[pf.frame]

    def writable_by(self, cell_id: int) -> List[Pfdat]:
        """Pfdats granting write access to ``cell_id``, in table order
        (O(result))."""
        grantees = self._writable_by.get(cell_id)
        if not grantees:
            return []
        return sorted(grantees.values(), key=lambda pf: pf.seq)

    def export_writable_count(self) -> int:
        """How many pfdats have any remote write grantee."""
        return len(self._exported)

    def imported_from_cell(self, cell_id: int) -> List[Pfdat]:
        """Materialized pfdats whose data home is ``cell_id``, in boot
        order.  Used by the provenance exposure snapshot (once per
        injected fault) and cheap because only touched frames are
        materialized."""
        return sorted(
            (pf for pf in self._by_frame.values()
             if pf.imported_from == cell_id),
            key=lambda pf: pf.seq)

    # -- hash table -------------------------------------------------------

    def lookup(self, logical_id: LogicalId) -> Optional[Pfdat]:
        self.lookups += 1
        pf = self._hash.get(logical_id)
        if pf is not None:
            self.hits += 1
        return pf

    def insert(self, pf: Pfdat, logical_id: LogicalId) -> None:
        if logical_id in self._hash:
            raise ValueError(f"duplicate logical id {logical_id}")
        if pf.logical_id is not None:
            raise ValueError(f"pfdat already bound to {pf.logical_id}")
        pf.logical_id = logical_id
        pf.valid = True
        self._hash[logical_id] = pf

    def remove(self, pf: Pfdat) -> None:
        if pf.logical_id is None:
            return
        current = self._hash.get(pf.logical_id)
        if current is pf:
            del self._hash[pf.logical_id]
        pf.logical_id = None
        pf.valid = False
        pf.import_writable = False

    def by_frame(self, frame: int) -> Optional[Pfdat]:
        pf = self._by_frame.get(frame)
        if pf is None:
            rank = self._rank_of(frame)
            if rank is not None:
                pf = self._materialize(frame, rank)
        return pf

    def all_pfdats(self) -> List[Pfdat]:
        return list(self._by_frame.values())

    def hashed_pfdats(self) -> List[Pfdat]:
        return list(self._hash.values())

    # -- frame allocation -----------------------------------------------------

    @property
    def free_count(self) -> int:
        """Free-list entries, stale ones included."""
        return self.owned_count - self._cursor + len(self._freed)

    def alloc_frame(self) -> Pfdat:
        """Take a frame off the local free list."""
        while True:
            if self._cursor < self.owned_count:
                frame = self._frame_at(self._cursor)
                self._cursor += 1
            elif self._freed:
                frame = self._freed.popleft()
            else:
                raise NoFreeFrames("local free list empty")
            pf = self.by_frame(frame)
            if not pf.on_free_list:
                continue  # stale entry (frame was reserved/loaned meanwhile)
            pf.on_free_list = False
            pf.dirty = False
            pf.refcount = 0
            return pf

    def free_frame(self, pf: Pfdat) -> None:
        """Return a local frame to the free list."""
        if not self.owns(pf.frame):
            raise ValueError(f"frame {pf.frame} not owned by this kernel")
        if pf.refcount:
            raise ValueError(f"freeing frame {pf.frame} with refs")
        self.remove(pf)
        pf.drop_exports()
        if not pf.on_free_list:
            pf.on_free_list = True
            self._freed.append(pf.frame)

    # -- extended pfdats ----------------------------------------------------

    def alloc_extended(self, frame: int) -> Pfdat:
        """Allocate an extended pfdat bound to a (remote) frame."""
        if self.owns(frame):
            raise ValueError(
                f"frame {frame} is local; reuse its regular pfdat "
                "(Section 5.5 reimport path)"
            )
        if frame in self._by_frame:
            raise ValueError(f"extended pfdat for frame {frame} exists")
        pf = Pfdat(frame, extended=True)
        pf.table = self
        pf.seq = self._seq
        self._seq += 1
        self._by_frame[frame] = pf
        return pf

    def release_extended(self, pf: Pfdat) -> None:
        """Free an extended pfdat (its frame belongs to another cell)."""
        if not pf.extended:
            raise ValueError("not an extended pfdat")
        self.remove(pf)
        pf.drop_exports()
        pf.table = None
        self._by_frame.pop(pf.frame, None)

    # -- physical-level frame movement (Section 5.4) ----------------------

    def move_to_reserved(self, pf: Pfdat, borrower: int) -> None:
        """Loan a local frame: park it on the reserved list."""
        if not self.owns(pf.frame):
            raise ValueError("can only loan owned frames")
        pf.loaned_to = borrower
        pf.on_free_list = False
        self.reserved[pf.frame] = pf

    def return_from_reserved(self, frame: int) -> Pfdat:
        pf = self.reserved.pop(frame)
        pf.loaned_to = None
        return pf

    def reclaim(self, frame: int) -> None:
        """A loaned frame's borrower freed it or failed: free it here."""
        pf = self.return_from_reserved(frame)
        pf.refcount = 0
        self.free_frame(pf)

    def borrow(self, frame: int, memory_home: int) -> Optional[Pfdat]:
        """Adopt a frame ``memory_home`` loaned us into the stock; not
        one still ``returning`` (lent again before its return settled:
        the pending return gives it back once more), for which None."""
        if frame in self.returning:
            return None
        pf = self.alloc_extended(frame)
        pf.borrowed_from = memory_home
        self.stock[frame] = pf
        return pf

    def take_borrowed(self) -> Optional[Pfdat]:
        """The newest borrowed frame of the stock, or None."""
        return self.stock.popitem()[1] if self.stock else None

    def drop(self, pf: Pfdat) -> Optional[int]:
        """The page in ``pf``'s frame is no longer needed.  An owned
        frame is freed, unless it is loaned out (then only unhashed); an
        imported frame's pfdat is released; a borrowed one is parked as
        ``returning`` and its memory home returned, for the caller to
        send it back and then call :meth:`returned`."""
        if pf.borrowed_from is not None:
            self.remove(pf)
            pf.drop_exports()
            pf.dirty = False
            self.stock.pop(pf.frame, None)
            self.returning[pf.frame] = pf
            return pf.borrowed_from
        if pf.extended:
            self.release_extended(pf)
        elif pf.loaned_to is None:
            self.free_frame(pf)
        else:
            self.remove(pf)
        return None

    def returned(self, pf: Pfdat) -> None:
        """A return ended: the memory home took the frame back, holds it
        loaned to us no more, or died."""
        if self.returning.get(pf.frame) is pf:
            del self.returning[pf.frame]
            self.release_extended(pf)

    # -- the ledger's view (invariant, ``repro metrics``) -------------------

    def materialized(self, frame: int) -> Optional[Pfdat]:
        """``frame``'s pfdat if it has one; materializes nothing."""
        return self._by_frame.get(frame)

    def placements(self) -> Dict[str, List[Pfdat]]:
        """Every materialized pfdat filed under its frame's state
        (:data:`FRAME_STATES`), in table order: O(materialized)."""
        states: Dict[str, List[Pfdat]] = {s: [] for s in FRAME_STATES}
        for pf in self._by_frame.values():
            if not pf.extended:
                if pf.on_free_list:
                    state = "free"
                elif pf.loaned_to is not None:
                    state = "loaned"
                else:
                    state = "cached" if pf.logical_id is not None else "held"
            elif pf.frame in self.stock:
                state = "borrowed_stock"
            elif pf.frame in self.returning:
                state = "returning"
            elif pf.imported_from is not None:
                state = "imported"
            else:
                state = ("borrowed_cached" if pf.logical_id is not None
                         else "held")
            states[state].append(pf)
        return states

    def frame_counts(self) -> Dict[str, int]:
        """How many frames are in each state; ``free`` counts the owned
        frames never touched too."""
        states = self.placements()
        counts = {state: len(pfs) for state, pfs in states.items()}
        counts["free"] = (self.owned_count - counts["cached"]
                          - counts["loaned"]
                          - sum(not pf.extended for pf in states["held"]))
        return counts
