"""Unit and property tests for the kernel heap and pfdat tables."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.unix.kheap import KOBJ_ALIGN, KernelHeap, KObject
from repro.unix.pfdat import NoFreeFrames, Pfdat, PfdatTable


class Obj(KObject):
    pass


class TestKernelHeap:
    def make(self):
        return KernelHeap(cell_id=0, base_addr=0x10000, size=0x4000)

    def test_alloc_assigns_aligned_address_and_tag(self):
        heap = self.make()
        obj = Obj()
        addr = heap.alloc(obj, "widget")
        assert addr % KOBJ_ALIGN == 0
        assert heap.resolve(addr) == ("widget", obj)
        assert obj.ktype == "widget"

    def test_free_removes_tag(self):
        heap = self.make()
        obj = Obj()
        addr = heap.alloc(obj, "widget")
        heap.free(obj)
        assert heap.resolve(addr) is None
        assert obj.kaddr == 0

    def test_freed_slots_are_reused(self):
        heap = self.make()
        a = Obj()
        addr = heap.alloc(a, "t")
        heap.free(a)
        b = Obj()
        assert heap.alloc(b, "t") == addr

    def test_double_alloc_rejected(self):
        heap = self.make()
        obj = Obj()
        heap.alloc(obj, "t")
        with pytest.raises(ValueError):
            heap.alloc(obj, "t")

    def test_double_free_rejected(self):
        heap = self.make()
        obj = Obj()
        heap.alloc(obj, "t")
        heap.free(obj)
        with pytest.raises(ValueError):
            heap.free(obj)

    def test_exhaustion(self):
        heap = KernelHeap(0, 0x10000, KOBJ_ALIGN * 2)
        heap.alloc(Obj(), "t")
        heap.alloc(Obj(), "t")
        with pytest.raises(MemoryError):
            heap.alloc(Obj(), "t")

    def test_contains(self):
        heap = self.make()
        assert heap.contains(0x10000)
        assert not heap.contains(0x10000 + 0x4000)

    def test_misaligned_resolve_finds_nothing(self):
        heap = self.make()
        addr = heap.alloc(Obj(), "t")
        assert heap.resolve(addr + 8) is None

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_live_object_accounting(self, ops):
        """Property: live_objects == allocs - frees at every step."""
        heap = KernelHeap(0, 0x10000, 0x10000)
        live = []
        for do_alloc in ops:
            if do_alloc or not live:
                obj = Obj()
                heap.alloc(obj, "t")
                live.append(obj)
            else:
                heap.free(live.pop())
            assert heap.live_objects == len(live)
            assert heap.live_objects == heap.allocs - heap.frees


class TestPfdatTable:
    def make(self, nframes=16):
        return PfdatTable(range(100, 100 + nframes))

    def test_alloc_free_roundtrip(self):
        t = self.make()
        pf = t.alloc_frame()
        assert t.owns(pf.frame) and t.owned_count == 16
        assert not t.owns(99) and not t.owns(116)
        assert not pf.on_free_list and t.free_count == 15
        t.free_frame(pf)
        assert pf.on_free_list and t.free_count == 16

    def test_hash_insert_lookup_remove(self):
        t = self.make()
        pf = t.alloc_frame()
        lid = (("file", 1, 2), 7)
        t.insert(pf, lid)
        assert t.lookup(lid) is pf
        assert pf.valid
        t.remove(pf)
        assert t.lookup(lid) is None
        assert pf.logical_id is None

    def test_duplicate_logical_id_rejected(self):
        t = self.make()
        a, b = t.alloc_frame(), t.alloc_frame()
        lid = (("file", 1, 2), 0)
        t.insert(a, lid)
        with pytest.raises(ValueError):
            t.insert(b, lid)

    def test_rebinding_bound_pfdat_rejected(self):
        t = self.make()
        pf = t.alloc_frame()
        t.insert(pf, (("file", 1, 2), 0))
        with pytest.raises(ValueError):
            t.insert(pf, (("file", 1, 2), 1))

    def test_exhaustion_raises(self):
        t = self.make(nframes=2)
        t.alloc_frame()
        t.alloc_frame()
        with pytest.raises(NoFreeFrames):
            t.alloc_frame()

    def test_free_with_references_rejected(self):
        t = self.make()
        pf = t.alloc_frame()
        pf.refcount = 1
        with pytest.raises(ValueError):
            t.free_frame(pf)

    def test_extended_pfdat_lifecycle(self):
        t = self.make()
        ext = t.alloc_extended(9999)  # a frame we do not own
        assert ext.extended
        lid = (("file", 3, 4), 1)
        t.insert(ext, lid)
        assert t.lookup(lid) is ext
        t.release_extended(ext)
        assert t.lookup(lid) is None
        assert t.by_frame(9999) is None

    def test_extended_for_owned_frame_rejected(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.alloc_extended(100)

    def test_extended_cannot_be_freed_like_local(self):
        t = self.make()
        ext = t.alloc_extended(9999)
        with pytest.raises(ValueError):
            t.free_frame(ext)

    def test_loan_reserve_return(self):
        t = self.make()
        pf = t.alloc_frame()
        t.move_to_reserved(pf, borrower=2)
        assert pf.loaned_to == 2
        assert t.reserved == {pf.frame: pf}
        back = t.return_from_reserved(pf.frame)
        assert back is pf and pf.loaned_to is None

    def test_hit_metrics(self):
        t = self.make()
        pf = t.alloc_frame()
        t.insert(pf, (("file", 1, 1), 0))
        t.lookup((("file", 1, 1), 0))
        t.lookup((("file", 1, 1), 99))
        assert t.lookups == 2 and t.hits == 1

    def test_every_set_mutation_keeps_the_writable_index(self):
        """The grant record changes only through ``Pfdat`` methods, and
        each keeps the table's writable-by-cell index: every grant and
        revoke, on owned and extended pfdats alike, and a drop of all
        of a pfdat's exports."""
        t = self.make()
        a, b = t.alloc_frame(), t.alloc_frame()
        ext = t.alloc_extended(5000)
        for cell_id in (1, 2, 3):
            a.grant_write(cell_id)
        b.grant_write(2)
        ext.grant_write(2)
        a.grant_write(2)  # a repeat changes nothing
        assert t.writable_by(2) == [a, b, ext]
        a.revoke_write(2)
        a.revoke_write(2)  # so does revoking what was never granted
        assert t.writable_by(2) == [b, ext]
        a.drop_exports()
        assert not a.export_writable
        assert t.writable_by(1) == t.writable_by(3) == []
        assert t.export_writable_count() == 2
        t.release_extended(ext)
        assert t.writable_by(2) == [b] and t.export_writable_count() == 1
        ext.grant_write(4)  # a released pfdat is outside every index
        assert t.writable_by(4) == []

    def test_export_sets_come_with_the_first_export(self):
        """A pfdat nobody imported shares one empty set for both export
        fields; removing from it allocates nothing, and the first
        export gives the pfdat sets of its own."""
        t = self.make()
        a, b = t.alloc_frame(), t.alloc_frame()
        assert a.exported_to is b.exported_to is b.export_writable
        a.unexport(1)
        a.revoke_write(1)
        a.drop_exports()
        assert a.exported_to is b.exported_to is a.export_writable
        a.export_to(1)
        a.grant_write(2)
        assert a.exported_to == {1} and a.export_writable == {2}
        assert a.exported_to is not b.exported_to
        assert not b.exported_to and not b.export_writable
        assert t.writable_by(2) == [a]
        a.unexport(1)
        assert not a.exported_to and a.export_writable == {2}
        t.free_frame(a)
        assert not a.export_writable and t.writable_by(2) == []
        assert a.exported_to is b.exported_to

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=40, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_hash_bijection_property(self, offsets):
        """Property: every inserted id maps back to its own pfdat."""
        t = PfdatTable(range(200, 200 + 64))
        bound = {}
        for off in offsets:
            pf = t.alloc_frame()
            lid = (("file", 0, 1), off)
            t.insert(pf, lid)
            bound[lid] = pf
        for lid, pf in bound.items():
            assert t.lookup(lid) is pf
            assert pf.logical_id == lid


class TestHostMemory:
    def test_large_bench_boot_allocates_little(self):
        """Booting the 16-cell bench machine peaks under 2 MiB of traced
        allocations: the pfdat tables hold runs, not a rank, a set entry
        and a free-list entry per owned frame (20.7 MiB when they did)."""
        import gc
        import tracemalloc

        from repro.bench.throughput import boot_bench_system

        boot_bench_system("small")  # imports outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            system = boot_bench_system("large")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = [system.registry.cell_object(c)
                 for c in system.registry.all_cell_ids()]
        assert len(cells) == 16
        assert sum(cell.pfdats.free_count for cell in cells) > 100_000
        assert peak < 2 * 2 ** 20

    def test_unexported_pfdats_allocate_no_set(self):
        """Materializing 4,096 pfdats and reading their export sets
        costs each less than one empty set on top of the pfdat itself
        (two sets each while every pfdat got its own)."""
        import gc
        import sys
        import tracemalloc

        table = PfdatTable(range(0, 4096))
        gc.collect()
        tracemalloc.start()
        try:
            pfdats = [table.by_frame(frame) for frame in range(4096)]
            assert not any(pf.exported_to or pf.export_writable
                           for pf in pfdats)
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_pfdat = current / len(pfdats)
        assert per_pfdat < sys.getsizeof(pfdats[0]) + sys.getsizeof(set())


class _PerFrameFreeList:
    """Reference model: the per-frame table the run-based one replaced —
    a rank per owned frame and every owned frame queued at boot."""

    def __init__(self, runs):
        order = [frame for run in runs for frame in run]
        self.rank = {frame: i for i, frame in enumerate(order)}
        self.free = deque(order)
        self.on_free_list = dict.fromkeys(order, True)

    def alloc(self):
        while self.free:
            frame = self.free.popleft()
            if self.on_free_list[frame]:
                self.on_free_list[frame] = False
                return frame
        return None

    def free_frame(self, frame):
        if not self.on_free_list[frame]:
            self.on_free_list[frame] = True
            self.free.append(frame)

    def move_to_reserved(self, frame):
        self.on_free_list[frame] = False


@st.composite
def _owned_runs(draw):
    """One to three disjoint runs, handed over in any order."""
    runs, start = [], 1000
    for gap, size in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 4)),
            min_size=1, max_size=3)):
        start += gap
        runs.append(range(start, start + size))
        start += size
    return draw(st.permutations(runs))


_TABLE_OPS = st.lists(
    st.tuples(st.sampled_from(("alloc", "free", "by_frame", "reserve",
                               "unreserve")),
              st.integers(0, 1000)),
    max_size=100)


class TestRunsMatchPerFrameModel:
    @given(runs=_owned_runs(), ops=_TABLE_OPS)
    @example(  # boot order is not address order; after the cursor
               # runs out, the FIFO holds a frame twice, once stale
        runs=[range(1004, 1006), range(1000, 1002)],
        ops=[("alloc", 0)] * 4 + [("free", 3), ("free", 1), ("free", 0),
                                  ("reserve", 3), ("unreserve", 0),
                                  ("free", 3)]
        + [("alloc", 0)] * 4)
    @settings(max_examples=200, deadline=None)
    def test_same_frames_seqs_and_free_counts(self, runs, ops):
        table = PfdatTable(runs)
        model = _PerFrameFreeList(runs)
        owned = sorted(model.rank)
        span = range(owned[0] - 2, owned[-1] + 3)
        assert table.owned_count == len(owned)
        assert [frame for frame in span if table.owns(frame)] == owned
        for op, pick in ops:
            if op == "alloc":
                expect = model.alloc()
                if expect is None:
                    with pytest.raises(NoFreeFrames):
                        table.alloc_frame()
                else:
                    pf = table.alloc_frame()
                    assert (pf.frame, pf.seq) == (expect, model.rank[expect])
            elif op == "free":
                pf = table.by_frame(owned[pick % len(owned)])
                table.free_frame(pf)
                model.free_frame(pf.frame)
            elif op == "by_frame":
                frame = span[pick % len(span)]
                pf = table.by_frame(frame)
                if frame in model.rank:
                    assert (pf.frame, pf.seq) == (frame, model.rank[frame])
                else:
                    assert pf is None
            elif op == "reserve":
                pf = table.by_frame(owned[pick % len(owned)])
                table.move_to_reserved(pf, borrower=1)
                model.move_to_reserved(pf.frame)
            elif table.reserved:
                frames = sorted(table.reserved)
                table.return_from_reserved(frames[pick % len(frames)])
            assert table.free_count == len(model.free)
