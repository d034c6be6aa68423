"""Tests for failure detection, agreement, and recovery (Sections 4.2/4.3)."""

import pytest

from repro.bench.faultexp import (HW_DURING_PROCESS_CREATION, SW_COW_TREE,
                                  FaultExperimentRunner)
from repro.core.agreement import OracleAgreement, VotingAgreement
from repro.core.failure import Hint, StrikeBook
from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs.recorder import attach_flight_recorder
from repro.sim.engine import Simulator
from repro.unix.fs import PAGE

from tests.helpers import run_program


def boot4(agreement="voting", reintegrate=False, seed=1):
    sim = Simulator()
    return boot_hive(sim, num_cells=4,
                     machine_config=MachineConfig(seed=seed),
                     agreement=agreement, reintegrate=reintegrate)


def settle(hive, ms=400):
    hive.sim.run(until=hive.sim.now + ms * 1_000_000)


#: a logical page of no mounted file system
LID = (("file", 99, 1), 0)


def run_gen(hive, gen):
    proc = hive.sim.process(gen)
    hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
    return proc.value


def borrowed_page(hive, grantee=None):
    """Cell 1 caches ``LID`` in a frame borrowed from cell 0 and, if a
    ``grantee`` is named, grants it write access through cell 0."""
    data_home = hive.cell(1)

    def borrow():
        result = yield from data_home.rpc.call(
            0, "borrow_frames", {"count": 1})
        data_home.pfdats.borrow(result["frames"][0], 0)
        pf = data_home.pfdats.take_borrowed()
        data_home.pfdats.insert(pf, LID)
        if grantee is not None:
            yield from data_home.export_page_local(pf, grantee, True)
        return pf

    return run_gen(hive, borrow())


class TestClockMonitoring:
    def test_monitor_ring_wiring(self, hive4):
        ring = {c.kernel_id: c.detector.monitored_cell
                for c in hive4.cells}
        assert ring == {0: 1, 1: 2, 2: 3, 3: 0}

    def test_heartbeats_advance(self, hive4):
        settle(hive4, ms=100)
        assert all(c.heartbeat_value >= 8 for c in hive4.cells)

    def test_halted_node_detected_by_monitor(self):
        hive = boot4()
        hive.machine.halt_node(2)
        settle(hive)
        assert not hive.registry.is_live(2)
        assert [r for r in hive.coordinator.records
                if r.dead_cells == {2}]

    def test_processor_only_halt_detected_by_stall(self):
        """Clock monitoring catches halted CPUs whose memory still works
        (no bus error available — the stall heuristic must fire)."""
        hive = boot4()
        hive.machine.halt_processor_only(2)
        settle(hive)
        assert not hive.registry.is_live(2)

    def test_panicked_cell_detected(self):
        hive = boot4()
        hive.cell(2).panic("injected corruption")
        settle(hive)
        assert not hive.registry.is_live(2)

    def test_ring_rewired_after_death(self):
        hive = boot4()
        hive.machine.halt_node(2)
        settle(hive)
        ring = {c: hive.cell(c).detector.monitored_cell for c in (0, 1, 3)}
        assert ring == {0: 1, 1: 3, 3: 0}


class TestAgreement:
    def test_voting_confirms_dead_cell(self):
        hive = boot4()
        hive.machine.halt_node(3)

        def prog():
            result = yield from VotingAgreement(hive.registry).run(0, {3})
            return result

        proc = hive.sim.process(prog())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        assert proc.value.confirmed_dead == {3}

    def test_voting_rejects_live_suspect(self):
        hive = boot4()

        def prog():
            result = yield from VotingAgreement(hive.registry).run(0, {3})
            return result

        proc = hive.sim.process(prog())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        assert proc.value.confirmed_dead == set()

    def test_oracle_matches_ground_truth(self):
        hive = boot4(agreement="oracle")
        hive.machine.halt_node(1)

        def prog():
            return (yield from OracleAgreement(hive.registry).run(0, {1}))

        proc = hive.sim.process(prog())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        assert proc.value.confirmed_dead == {1}

    def test_false_accusation_strikes_accuser_out(self):
        """Two voted-down alerts for the same suspect mark the accuser
        corrupt and it is rebooted by its peers (Section 4.3)."""
        hive = boot4()
        accuser = hive.cell(0)
        accuser.detector.hint(2, "spurious alert")
        settle(hive, ms=100)
        assert hive.registry.is_live(0) and hive.registry.is_live(2)
        accuser.detector.hint(2, "spurious alert again")
        settle(hive, ms=200)
        # The accuser, not the accused, was taken down.
        assert hive.registry.is_live(2)
        assert not hive.registry.is_live(0)

    def test_strike_book(self):
        book = StrikeBook(limit=2)
        assert not book.voted_down(1, 2)
        assert book.voted_down(1, 2)
        book.clear_cell(1)
        assert book.count(1, 2) == 0


class TestRecovery:
    def _shared_setup(self, hive):
        """Cell 0 writes a file served by cell 1; cell 3 write-imports it."""
        hive.namespace.mount("/srv", 1)
        data = b"d" * (PAGE * 2)

        def writer(ctx):
            fd = yield from ctx.open("/srv/file", "w", create=True)
            yield from ctx.write(fd, data)
            yield from ctx.close(fd)

        run_program(hive, 1, writer)

        hold = {}

        def importer(ctx):
            region = yield from ctx.map_file("/srv/file", writable=True)
            yield from ctx.touch(region, 0, write=True)
            hold["region"] = region
            yield from ctx.compute(10_000_000_000)  # keep it mapped

        cell3 = hive.cell(3)
        proc = cell3.create_process("importer")
        cell3.start_thread(proc, importer)
        hive.sim.run(until=hive.sim.now + 200_000_000)
        return hold

    def test_discard_bumps_generation_of_dirty_exports(self):
        hive = boot4()
        self._shared_setup(hive)
        owner = hive.cell(1)
        fs = owner.local_fs_for("/srv/file")
        assert fs.lookup("/srv/file").generation == 0
        hive.machine.halt_node(3)
        settle(hive)
        record = hive.coordinator.records[-1]
        assert record.dead_cells == {3}
        assert record.discarded_pages >= 1
        assert fs.lookup("/srv/file").generation == 1

    def test_firewall_grants_revoked_in_recovery(self):
        hive = boot4()
        self._shared_setup(hive)
        owner = hive.cell(1)
        assert owner.firewall_mgr.remotely_writable_pages() >= 1
        hive.machine.halt_node(3)
        settle(hive)
        assert owner.firewall_mgr.remotely_writable_pages() == 0

    def test_loaned_frame_grant_revoked_in_recovery(self):
        """A frame cell 0 loaned to cell 1, which had its memory home
        grant cell 2 write access: every recovery resets the grants on
        the frames a survivor owns, the loaned ones included, except the
        loan itself, a grant to the live borrower; the Section 4.2 count
        sees the frame once."""
        hive = boot4()
        lender, borrower = hive.cell(0), hive.cell(1)
        cpu2 = hive.cell(2).cpu_ids[0]

        def borrow():
            result = yield from borrower.rpc.call(
                0, "borrow_frames", {"count": 1})
            frame = result["frames"][0]
            borrower.pfdats.borrow(frame, 0)
            yield from borrower.rpc.call(
                0, "firewall_update",
                {"frame": frame, "grantee": 2, "grant": True})
            return frame

        proc = hive.sim.process(borrow())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        frame = proc.value
        cpu1 = borrower.cpu_ids[0]
        loaned = lender.pfdats.reserved[frame]
        assert loaned.export_writable == {1, 2}
        assert hive.machine.memory.write_allowed(frame, cpu1)
        assert hive.machine.memory.write_allowed(frame, cpu2)
        # counted once: the loaned frame is still one of the lender's
        assert lender.firewall_mgr.remotely_writable_pages() == 1
        revokes = lender.firewall_metrics.counter("bulk_revokes").value
        hive.machine.halt_node(3)
        settle(hive)
        assert hive.coordinator.records[-1].dead_cells == {3}
        assert loaned.loaned_to == 1 and loaned.export_writable == {1}
        assert hive.machine.memory.write_allowed(frame, cpu1)
        assert not hive.machine.memory.write_allowed(frame, cpu2)
        assert lender.firewall_mgr.remotely_writable_pages() == 1
        assert lender.firewall_metrics.counter("bulk_revokes").value \
            == revokes + 1
        assert check_system(hive) == []

    def test_survivor_count_and_liveness(self):
        hive = boot4()
        self._shared_setup(hive)
        hive.machine.halt_node(3)
        settle(hive)
        assert hive.registry.live_cell_ids() == [0, 1, 2]
        for c in (0, 1, 2):
            assert hive.cell(c).alive

    def test_imports_from_dead_cell_dropped(self):
        hive = boot4()
        hive.namespace.mount("/victim", 3)
        data = b"v" * PAGE

        def writer(ctx):
            fd = yield from ctx.open("/victim/f", "w", create=True)
            yield from ctx.write(fd, data)
            yield from ctx.close(fd)

        run_program(hive, 3, writer)

        def importer(ctx):
            region = yield from ctx.map_file("/victim/f")
            yield from ctx.touch(region, 0)
            yield from ctx.compute(10_000_000_000)

        c0 = hive.cell(0)
        proc = c0.create_process("imp")
        c0.start_thread(proc, importer)
        hive.sim.run(until=hive.sim.now + 100_000_000)
        assert any(pf.extended for pf in c0.pfdats.all_pfdats())
        hive.machine.halt_node(3)
        settle(hive)
        assert not any(pf.extended for pf in c0.pfdats.all_pfdats())

    def test_user_processes_resume_after_recovery(self):
        hive = boot4()
        out = {}

        def busy(ctx):
            yield from ctx.compute(600_000_000)
            out["finished"] = ctx.sim.now

        c0 = hive.cell(0)
        proc = c0.create_process("busy")
        c0.start_thread(proc, busy)
        hive.sim.schedule(50_000_000, hive.machine.halt_node, 3)
        settle(hive, ms=1500)
        assert "finished" in out
        assert not c0.user_suspended

    def test_double_barrier_ordering(self):
        """All survivors pass barrier 1 before any passes barrier 2."""
        hive = boot4()
        from repro.core.recovery import Barrier

        order = []
        orig_join = Barrier.join

        def spy(self, cell_id):
            order.append((self.event.name, cell_id))
            return orig_join(self, cell_id)

        Barrier.join = spy
        try:
            hive.machine.halt_node(3)
            hive.coordinator.report_hint(
                Hint(0, 3, "bus error", hive.sim.now))
            settle(hive)
        finally:
            Barrier.join = orig_join
        assert [r.detection_reason
                for r in hive.coordinator.records] == ["bus error"]
        firsts = [i for i, (name, _c) in enumerate(order)
                  if name == "bar(1, 1)"]
        seconds = [i for i, (name, _c) in enumerate(order)
                   if name == "bar(1, 2)"]
        assert len(firsts) == 3 and len(seconds) == 3
        assert len(order) == 6
        assert max(firsts) < min(seconds)

    def test_reintegration_reboots_cell(self):
        hive = boot4(reintegrate=True)
        hive.machine.halt_node(3)
        hive.sim.run(until=hive.sim.now + 4_000_000_000)
        assert hive.registry.is_live(3)
        assert hive.cell(3).incarnation == 1
        assert hive.coordinator.records[-1].rebooted
        # The reborn cell serves RPCs again.
        c0 = hive.cell(0)

        def prog():
            return (yield from c0.rpc.call(3, "ping", {}))

        proc = hive.sim.process(prog())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**10)
        assert proc.value == "alive"

    def test_platters_survive_reintegration(self):
        hive = boot4(reintegrate=True)
        hive.namespace.mount("/persist", 3)
        payload = b"durable" + b"\x00" * (PAGE - 7)

        def writer(ctx):
            fd = yield from ctx.open("/persist/f", "w", create=True)
            yield from ctx.write(fd, payload)
            yield from ctx.close(fd)

        run_program(hive, 3, writer)
        # Push it to stable storage before the crash.
        proc = hive.sim.process(hive.cell(3).sync_all())
        hive.sim.run_until_event(proc, deadline=hive.sim.now + 10**11)
        hive.machine.halt_node(3)
        hive.sim.run(until=hive.sim.now + 4_000_000_000)
        out = {}

        def reader(ctx):
            fd = yield from ctx.open("/persist/f", "r")
            out["data"] = yield from ctx.read(fd, PAGE)

        run_program(hive, 3, reader)
        assert out["data"] == payload


class TestNoRoundForAConfirmedDeadCell:
    """A round's confirmation stands until the cell reboots: a later
    hint for the cell, fresh or queued, starts no second round."""

    def _dead(self, cell):
        hive = boot4()
        hive.machine.halt_node(cell)
        settle(hive, 1_000)
        assert [sorted(r.dead_cells)
                for r in hive.coordinator.records] == [[cell]]
        return hive

    def test_fresh_hint_starts_no_round(self):
        hive = self._dead(3)
        hive.coordinator.report_hint(Hint(0, 3, "late alert", hive.sim.now))
        settle(hive, 1_000)
        assert len(hive.coordinator.records) == 1

    def test_drain_skips_a_dead_suspect_for_the_next(self):
        """Behind a running round, a queued hint about a cell confirmed
        dead is dropped and the next queued hint gets the round.  (Cell
        2 panics rather than halts: a halted cell cannot vote, so the
        running round's agreement would confirm it too.)"""
        hive = self._dead(0)
        coord = hive.coordinator
        hive.cell(2).panic("injected corruption")
        now = hive.sim.now
        coord.report_hint(Hint(1, 3, "spurious alert", now))
        coord.report_hint(Hint(3, 0, "late alert", now))
        coord.report_hint(Hint(1, 2, "alert about 2", now))
        settle(hive, 1_000)
        assert [(sorted(r.dead_cells), r.detection_reason)
                for r in coord.records[1:]] == [([2], "alert about 2")]

    def test_hw_process_creation_seed_0_runs_one_round(self):
        """Cell 3's failure raises a second alert while its round runs;
        the queued alert starts no round once the first confirms it."""
        box = {}
        trial = FaultExperimentRunner(
            on_boot=lambda system: box.update(system=system)).run_trial(
                HW_DURING_PROCESS_CREATION, seed=0)
        assert trial.contained, trial.reason
        assert [sorted(r.dead_cells)
                for r in box["system"].coordinator.records] == [[3]]


class TestOneRoundAtATime:
    """Rounds run one at a time: a hint that arrives during a round
    waits in the queue, a forced round confirms only its own suspect,
    and a queued hint is dropped once its suspect or its reporter has
    been confirmed dead."""

    def _records(self, hive):
        return [(r.round_id, sorted(r.dead_cells), r.detection_reason)
                for r in hive.coordinator.records]

    def test_forced_round_confirms_only_its_suspect(self):
        hive = boot4()
        hive.coordinator.force_round(2, "voted down twice accusing 1")
        hive.coordinator.report_hint(
            Hint(1, 0, "spurious alert", hive.sim.now))
        settle(hive, 1_000)
        assert self._records(hive) == [
            (1, [2], "voted down twice accusing 1")]
        assert hive.registry.is_live(0)

    def test_hint_from_a_confirmed_dead_reporter_is_dropped(self):
        hive = boot4()
        hive.coordinator.force_round(1, "voted down twice accusing 2")
        hive.coordinator.report_hint(
            Hint(1, 2, "alert from the accuser", hive.sim.now))
        settle(hive, 1_000)
        assert self._records(hive) == [
            (1, [1], "voted down twice accusing 2")]
        assert hive.registry.is_live(2)

    def test_voted_down_twice_forces_the_next_round(self):
        """The forced round runs next, ahead of hints queued before it,
        and the accuser's queued accusation is dropped with it."""
        hive = boot4()
        coord = hive.coordinator
        now = hive.sim.now
        coord.report_hint(Hint(0, 2, "spurious alert", now))
        coord.report_hint(Hint(0, 2, "spurious alert again", now))
        coord.report_hint(Hint(0, 2, "spurious alert a third time", now))
        settle(hive, 1_000)
        assert self._records(hive) == [
            (3, [0], "voted down twice accusing 2")]
        assert hive.registry.is_live(2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sw_cow_tree_one_round(self, seed):
        """Seeds 0-2 vote cell 3's accusations of cell 0 down twice, and
        a careful-reference hint about cell 3 arrives while the forced
        round runs: one round confirms cell 3, and no rounds overlap."""
        box = {}

        def on_boot(system):
            box["recorder"] = attach_flight_recorder(system)
            box["system"] = system

        trial = FaultExperimentRunner(on_boot=on_boot).run_trial(
            SW_COW_TREE, seed=seed)
        assert trial.contained, trial.reason
        assert [r.round_id for r in box["system"].coordinator.records
                if 3 in r.dead_cells] == [3]
        rounds = sorted((s.start_ns, s.end_ns) for s in
                        box["recorder"].spans_named("recovery.round"))
        assert len(rounds) == 3
        assert all(end is not None and end <= nxt
                   for (_s, end), (nxt, _e) in zip(rounds, rounds[1:]))


class TestOneGrantRecord:
    """Each grant leak of a write-grant record split by pfdat kind:
    (a) a data home's grant on a borrowed frame missed by the discard,
    (b) its record outliving the bits a recovery sweep cleared, (c) a
    loaned frame listed twice in a working set, (d) discarded frames
    going back to the free list still writable."""

    def _cpu(self, hive, cell_id):
        return hive.cell(cell_id).cpu_ids[0]

    def test_a_borrowed_frame_grant_is_discarded(self):
        hive = boot4()
        pf = borrowed_page(hive, grantee=2)
        data_home = hive.cell(1)
        assert data_home.pfdats.writable_by(2) == [pf]
        hive.machine.halt_node(2)
        settle(hive)
        assert hive.coordinator.records[-1].dead_cells == {2}
        assert data_home.pfdats.lookup(LID) is None
        assert not pf.export_writable
        assert check_system(hive) == []

    def test_b_borrowed_frame_record_drops_with_its_bits(self):
        hive = boot4()
        pf = borrowed_page(hive, grantee=2)
        data_home = hive.cell(1)
        assert hive.machine.memory.write_allowed(pf.frame, self._cpu(hive, 2))
        hive.machine.halt_node(3)
        settle(hive)
        assert hive.coordinator.records[-1].dead_cells == {3}
        assert not hive.machine.memory.write_allowed(
            pf.frame, self._cpu(hive, 2))
        assert not pf.export_writable
        assert check_system(hive) == []
        run_gen(hive, data_home.firewall_mgr.grant_write(pf, 2))
        assert hive.machine.memory.write_allowed(pf.frame, self._cpu(hive, 2))
        assert check_system(hive) == []

    def test_c_loaned_frame_listed_once(self):
        hive = boot4()
        pf = borrowed_page(hive, grantee=2)
        lender = hive.cell(0)
        loaned = lender.pfdats.reserved[pf.frame]
        assert loaned.export_writable == {1, 2}  # the loan is a grant
        assert lender.pfdats.writable_by(1) == [loaned]
        assert lender.pfdats.writable_by(2) == [loaned]
        hive.machine.halt_node(2)
        settle(hive)
        # the lender's loaned frame and the data home's page: one each
        assert hive.coordinator.records[-1].discarded_pages == 2

    def test_d_discarded_frames_leave_no_bits(self):
        """A page granted to cells 2 and 3 is discarded when cell 2
        fails; its frame goes back to the free list writable by no
        one, live cell 3 included."""
        hive = boot4()
        owner = hive.cell(0)
        pf = owner.pfdats.alloc_frame()

        def grant():
            yield from owner.firewall_mgr.grant_write(pf, 2)
            yield from owner.firewall_mgr.grant_write(pf, 3)

        run_gen(hive, grant())
        assert hive.machine.memory.write_allowed(pf.frame, self._cpu(hive, 3))
        hive.machine.halt_node(2)
        settle(hive)
        assert pf.on_free_list
        assert not hive.machine.memory.write_allowed(
            pf.frame, self._cpu(hive, 3))
        assert owner.machine.memory.firewalls[0].remote_writable_frames() \
            == []
        assert check_system(hive) == []

    def test_sweep_leaves_no_remote_bit_after_throughput(self):
        from repro.bench.throughput import boot_bench_system, run_throughput

        system = boot_bench_system("small")
        row = run_throughput("small", system=system)
        assert row["discarded_pages"] == 32
        firewalls = system.machine.memory.firewalls
        survivors = [cell for cell in system.cells if cell.alive]
        assert len(survivors) == 3
        assert [frame for cell in survivors for node in cell.node_ids
                for frame in firewalls[node].remote_writable_frames()] == []
        assert check_system(system) == []


class TestOneFrameLedger:
    """Each frame leak of a frame's placement decided outside the pfdat
    table: (a) a discarded page's borrowed frame kept by the data home,
    (b) a page on a borrowed frame never evicted or returned, (c) a
    failed fill's frame lost, (d) an unanswered return dropping the
    borrower's half of the loan."""

    def test_a_discarded_borrowed_frame_goes_home(self):
        hive = boot4()
        pf = borrowed_page(hive, grantee=2)
        lender, data_home = hive.cell(0), hive.cell(1)
        hive.machine.halt_node(2)
        settle(hive)
        assert hive.coordinator.records[-1].dead_cells == {2}
        assert data_home.pfdats.by_frame(pf.frame) is None
        assert pf.frame not in lender.pfdats.reserved
        assert lender.pfdats.by_frame(pf.frame).on_free_list
        assert check_system(hive) == []

    def test_b_page_on_borrowed_frame_is_evicted_and_returned(self):
        hive = boot4()
        pf = borrowed_page(hive)
        lender, data_home = hive.cell(0), hive.cell(1)
        assert pf.refcount == 0 and not pf.dirty
        assert data_home.reclaimable(pf)
        # Local pressure evicts only pages whose drop frees a local frame.
        assert not data_home.frees_local(pf)
        assert run_gen(hive, data_home._evict_one(None)) is not pf
        assert data_home.pfdats.lookup(LID) is pf
        run_gen(hive, data_home.clockhand._release_foreign(0))
        settle(hive, ms=10)
        assert data_home.pfdats.lookup(LID) is None
        assert data_home.pfdats.by_frame(pf.frame) is None
        assert pf.frame not in lender.pfdats.reserved
        assert check_system(hive) == []

    def test_c_failed_fill_frees_its_frame(self):
        from repro.hardware.errors import BusError

        hive = boot4()
        cell = hive.cell(0)
        src = hive.cell(2).pfdats.alloc_frame()  # on halted node 2
        hive.machine.halt_node(2)
        free = cell.pfdats.free_count
        lid = (("anon", 0, 99), 0)
        out = {}

        def cow_break(ctx):
            try:
                yield from cell._find_or_fill(lid, ctx, copy_of=src)
            except BusError as exc:
                out["error"] = exc

        run_program(hive, 0, cow_break)
        assert "error" in out
        assert cell.pfdats.lookup(lid) is None
        assert cell.pfdats.free_count == free
        assert cell.pfdats.placements()["held"] == []

    def _lent_frame(self, hive):
        """Cell 1 borrows one frame of cell 0: (lender, borrower, pf)."""
        lender, borrower = hive.cell(0), hive.cell(1)

        def borrow():
            result = yield from borrower.rpc.call(
                0, "borrow_frames", {"count": 1})
            return borrower.pfdats.borrow(result["frames"][0], 0)

        return lender, borrower, run_gen(hive, borrow())

    def test_d_unanswered_return_keeps_the_frame_returning(self):
        hive = boot4()
        lender, borrower, pf = self._lent_frame(hive)
        timeout = lender.costs.rpc_timeout_ns

        def never_answers(src_cell, args):
            yield 10 * timeout

        lender.rpc.register("return_frame", never_answers)
        borrower.drop_frame(pf)
        hive.sim.run(until=hive.sim.now + 3 * timeout)
        assert lender.pfdats.reserved[pf.frame].loaned_to == 1
        assert borrower.pfdats.materialized(pf.frame) is pf
        assert borrower.pfdats.placements()["returning"] == [pf]
        assert borrower.pfdats.take_borrowed() is None
        assert check_system(hive) == []

    def test_d_late_acknowledged_return_is_never_handed_out(self):
        """The memory home takes the frame back and answers past the
        timeout: the borrower keeps the frame returning, out of its
        stock, until a repeat finds it no longer loaned."""
        hive = boot4()
        lender, borrower, pf = self._lent_frame(hive)
        timeout = lender.costs.rpc_timeout_ns
        reclaim = lender._h_return_frame

        def reclaims_then_stalls(src_cell, args):
            yield from reclaim(src_cell, args)
            yield 2 * timeout

        lender.rpc.register("return_frame", reclaims_then_stalls)
        borrower.drop_frame(pf)
        hive.sim.run(until=hive.sim.now + timeout + timeout // 2)
        assert pf.frame not in lender.pfdats.reserved
        assert lender.pfdats.by_frame(pf.frame).on_free_list
        assert borrower.pfdats.placements()["returning"] == [pf]
        assert borrower.pfdats.take_borrowed() is None
        assert check_system(hive) == []
        hive.sim.run(until=hive.sim.now + 2 * timeout)
        assert borrower.pfdats.materialized(pf.frame) is None
        assert borrower.pfdats.frame_counts()["returning"] == 0
        assert check_system(hive) == []

    def test_d_frame_loaned_again_while_returning_is_not_adopted(self):
        hive = boot4()
        lender, borrower, pf = self._lent_frame(hive)
        table = borrower.pfdats
        table.drop(pf)  # returning; its return not yet sent
        assert table.borrow(pf.frame, 0) is None
        assert table.placements()["returning"] == [pf]
        assert table.take_borrowed() is None
