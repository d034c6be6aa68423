"""``check_system``'s frame-state walk: reads the table, never grows it."""

import pytest

from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.sim.engine import Simulator
from repro.unix.pfdat import Pfdat


@pytest.fixture
def hive():
    return boot_hive(Simulator(), num_cells=2,
                     machine_config=MachineConfig())


def _materialized(hive):
    return [len(hive.cell(c).pfdats._by_frame) for c in (0, 1)]


class TestFrameStates:
    def test_clean_system_materializes_nothing(self, hive):
        before = _materialized(hive)
        assert check_system(hive) == []
        assert _materialized(hive) == before
        # Far fewer pfdats exist than frames are owned: the walk cannot
        # have gone frame by frame through by_frame().
        table = hive.cell(0).pfdats
        assert len(table._by_frame) < table.owned_count // 10

    def test_frame_freed_twice(self, hive):
        table = hive.cell(0).pfdats
        # The next frame the cursor hands out, queued again as freed.
        frame = table._frame_at(table._cursor)
        table._freed.append(frame)
        before = _materialized(hive)
        assert (f"cell 0: frame {frame} on free list twice"
                in check_system(hive))
        assert _materialized(hive) == before

    def test_untouched_frame_free_and_reserved(self, hive):
        table = hive.cell(0).pfdats
        frame = table._frame_at(table.owned_count - 1)
        assert table.untouched(frame) and frame not in table._by_frame
        table.reserved[frame] = Pfdat(frame)
        before = _materialized(hive)
        assert (f"cell 0: frame {frame} free AND reserved"
                in check_system(hive))
        assert _materialized(hive) == before

    def test_touched_frame_free_and_reserved(self, hive):
        table = hive.cell(0).pfdats
        pf = table.alloc_frame()
        table.free_frame(pf)
        table.reserved[pf.frame] = pf
        assert (f"cell 0: frame {pf.frame} free AND reserved"
                in check_system(hive))

    def test_loaned_frame_with_stale_free_entry_is_fine(self, hive):
        # move_to_reserved leaves the frame's free-list entry behind
        # (alloc_frame skips it later); that is not a violation once
        # the borrower holds the frame too.
        table = hive.cell(0).pfdats
        pf = table.by_frame(table._frame_at(table.owned_count - 1))
        table.move_to_reserved(pf, borrower=1)
        hive.cell(1).pfdats.borrow(pf.frame, 0)
        assert check_system(hive) == []

    def test_negative_refcount(self, hive):
        table = hive.cell(1).pfdats
        pf = table.alloc_frame()
        pf.refcount = -1
        before = _materialized(hive)
        assert (f"cell 1: frame {pf.frame} refcount -1"
                in check_system(hive))
        assert _materialized(hive) == before
