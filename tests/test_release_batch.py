"""The per-data-home release batch (Section 5.2's ``release``, batched).

One ``release_pages`` RPC carries every import a cell releases for one
data home in one instant; the data home revokes the batch's write grants
in one firewall pass.  These tests pin the ordering against re-imports,
the in-flight-revocation marker of the firewall invariant, the failure
cases and the exact RPC counts of the three paper applications.
"""

import pytest

from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.core.sharing import RELEASE_BATCH_BOUNDS, RELEASE_BATCH_MAX
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import snapshot_system
from repro.sim.engine import Simulator
from repro.sim.stats import MetricSet
from repro.workloads import (OceanWorkload, Platform, PmakeWorkload,
                             RaytraceWorkload)

from tests.helpers import run_program
from tests.test_core_sharing import make_remote_file

NPAGES = RELEASE_BATCH_MAX + 6  # one full chunk and a short last one


def drop_mapping(ctx, region, index):
    """What process teardown does for one page: unmap, drop the ref."""
    kernel = ctx.kernel
    pte = ctx.process.aspace.unmap_page(kernel.kernel_id,
                                        region.start_vpn + index)
    kernel._drop_mapping(pte)


def release_rpcs(hive):
    return sum(c.sharing_metrics.counter("release_batches").value
               for c in hive.cells)


def boot_paper_hive(seed=1995):
    hive = boot_hive(
        Simulator(), num_cells=4,
        machine_config=MachineConfig(
            params=HardwareParams(num_nodes=4, cpus_per_node=1), seed=seed))
    hive.namespace.mount("/tmp", 1)
    hive.namespace.mount("/usr", 2)
    hive.namespace.mount("/results", 0)
    return hive


class TestBatching:
    def test_one_exit_is_one_rpc_per_chunk(self, hive2):
        make_remote_file(hive2, npages=NPAGES)
        client, owner = hive2.cell(0), hive2.cell(1)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            for i in range(NPAGES):
                yield from ctx.touch(region, i, write=True)
            # exit: teardown drops every mapping in one instant

        run_program(hive2, 0, prog)
        assert owner.firewall_mgr.remotely_writable_pages() == NPAGES
        hive2.sim.run(until=hive2.sim.now + 1_000_000)
        assert client.sharing_metrics.counter("releases").value == NPAGES
        assert release_rpcs(hive2) == 2
        hist = client.sharing_metrics.histogram("release_batch_frames")
        assert (hist.total, hist.sum) == (2, NPAGES)
        assert hist.max == RELEASE_BATCH_MAX
        assert not client._release_batches
        assert not any(0 in pf.exported_to or 0 in pf.export_writable
                       for pf in owner.pfdats.all_pfdats())
        assert owner.firewall_mgr.revokes == NPAGES
        assert not owner.firewall_mgr.revoking
        assert owner.rpc.metrics.counter("send_retries").value == 0
        assert check_system(hive2) == []

    def test_a_frame_listed_twice_is_revoked_once(self, hive2):
        make_remote_file(hive2, npages=1)
        client, owner, sim = hive2.cell(0), hive2.cell(1), hive2.sim

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            pte = yield from ctx.touch(region, 0, write=True)
            yield from client.rpc.call(
                1, "release_pages", {"frames": [pte.frame] * 3})
            assert owner.firewall_mgr.revokes == 1
            assert not owner.firewall_mgr.revoking
            assert check_system(hive2) == []

        run_program(hive2, 0, prog)

    def test_metrics_are_in_the_snapshot_and_merge(self, hive2):
        make_remote_file(hive2, npages=3)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f")
            for i in range(3):
                yield from ctx.touch(region, i)

        run_program(hive2, 0, prog)
        hive2.sim.run(until=hive2.sim.now + 1_000_000)
        sharing = snapshot_system(hive2)["cells"]["0"]["sharing"]
        assert sharing["release_batches.count"] == 1
        assert sharing["release_batch_frames.n"] == 1
        assert sharing["release_batch_frames.max"] == 3
        merged = MetricSet("campaign")
        for cell in hive2.cells:
            merged.merge(cell.sharing_metrics)
        merged.merge(hive2.cell(0).sharing_metrics)
        hist = merged.histograms["release_batch_frames"]
        assert hist.bounds == RELEASE_BATCH_BOUNDS
        assert (hist.total, hist.sum) == (2, 6)
        assert merged.counter("release_batches").value == 2


class TestReimportOrdering:
    """A page faulted again while its release is queued (same instant)
    or in flight must end up exported, with its write grant."""

    #: a page of the full first chunk, a page of the short last chunk
    PAGES = (0, NPAGES - 1)

    @pytest.mark.parametrize("delay_ns", [0, 3_000, 12_000, 30_000])
    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("pages", [PAGES, PAGES[::-1]])
    def test_refault_behind_release(self, hive2, delay_ns, writable, pages):
        make_remote_file(hive2, npages=NPAGES)
        client, owner = hive2.cell(0), hive2.cell(1)
        frames = {}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=writable)
            for i in range(NPAGES):
                yield from ctx.touch(region, i, write=writable)
            for i in range(NPAGES):
                drop_mapping(ctx, region, i)
            if delay_ns:
                yield ctx.sim.timeout(delay_ns)
            # The first export lands while the data home is still
            # charging the 64-frame chunk's lookups (45 us).
            for i in pages:
                pte = yield from ctx.touch(region, i, write=writable)
                frames[i] = pte.frame
                if writable:
                    client.machine.memory.write_bytes(
                        pte.frame, 0, b"again", cpu=ctx.cpu)
            yield ctx.sim.timeout(2_000_000)  # every release has landed
            assert release_rpcs(hive2) == 2
            for frame in frames.values():
                pf = owner.pfdats.by_frame(frame)
                assert 0 in pf.exported_to
                assert (0 in pf.export_writable) == writable
                assert client.pfdats.by_frame(frame).imported_from == 1
                if writable:
                    client.machine.memory.write_bytes(
                        frame, 8, b"still", cpu=ctx.cpu)
            assert check_system(hive2) == []
            still = [pf for pf in owner.pfdats.all_pfdats()
                     if 0 in pf.exported_to]
            assert len(still) == 2
            assert (owner.firewall_mgr.remotely_writable_pages()
                    == (2 if writable else 0))

        run_program(hive2, 0, prog)
        hive2.sim.run(until=hive2.sim.now + 1_000_000)
        assert not owner.firewall_mgr.revoking
        assert check_system(hive2) == []


class TestInFlightRevocation:
    def test_marker_covers_the_flip_to_drop_window(self, hive2):
        """Bits off, record still there: stricter than the record, and
        not a mismatch while the pair is marked."""
        make_remote_file(hive2, npages=2)
        owner = hive2.cell(1)
        seen = {"during": 0}

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            ptes = []
            for i in range(2):
                ptes.append((yield from ctx.touch(region, i, write=True)))
            for i in range(2):
                drop_mapping(ctx, region, i)
            cpu = ctx.cpu
            for _ in range(400):
                yield ctx.sim.timeout(100)
                assert check_system(hive2) == []
                fw = owner.machine.memory.firewalls[1]
                for pte in ptes:
                    pf = owner.pfdats.by_frame(pte.frame)
                    marked = (pte.frame, 0) in owner.firewall_mgr.revoking
                    if marked:
                        seen["during"] += 1
                        assert 0 in pf.export_writable
                        assert not fw.allows(pte.frame, cpu)
                    elif 0 not in pf.export_writable:
                        assert not fw.allows(pte.frame, cpu)

        run_program(hive2, 0, prog)
        assert seen["during"] > 0
        assert not owner.firewall_mgr.revoking
        assert owner.firewall_mgr.remotely_writable_pages() == 0

    def test_grant_during_the_drain_wait_wins(self, hive2):
        """An export that meets its own page's revocation in flight (a
        release held up by flow control and overtaken) must leave the
        client with bits and record, not with a record-less promise."""
        make_remote_file(hive2, npages=1)
        owner, sim = hive2.cell(1), hive2.sim
        mgr = owner.firewall_mgr
        fw = owner.machine.memory.firewalls[1]
        cpu = hive2.cell(0).cpu_ids[0]
        pf = next(pf for pf in owner.pfdats.hashed_pfdats()
                  if pf.logical_id[0][0] == "file")

        def scenario():
            yield from mgr.grant_write(pf, 0)
            revoke = sim.process(mgr.revoke_writes([pf], 0))
            yield sim.timeout(500)  # inside the 1.6 us flip-to-drop wait
            assert mgr.revoking == {(pf.frame, 0)}
            assert 0 in pf.export_writable and not fw.allows(pf.frame, cpu)
            assert check_system(hive2) == []
            yield from mgr.grant_write(pf, 0)
            assert not mgr.revoking and fw.allows(pf.frame, cpu)
            yield revoke
            yield sim.timeout(10_000)

        proc = sim.process(scenario())
        sim.run_until_event(proc, deadline=sim.now + 10**9)
        assert proc.ok
        assert 0 in pf.export_writable and fw.allows(pf.frame, cpu)
        assert (mgr.grants, mgr.revokes) == (2, 0)
        assert check_system(hive2) == []

    def test_ocean_teardown_sampled_every_2us(self):
        """The Section 4.2 drain wait of a 64-frame batch is where
        ``check_system`` used to see "firewall disagrees": sample it
        from the first release RPC on, through the 3.5 ms of teardown
        and past the instant ``run`` returns."""
        hive = boot_paper_hive()
        seen = {"samples": 0, "marked": 0, "problems": []}

        def sampler():
            while not release_rpcs(hive):
                yield hive.sim.timeout(50_000)
            seen["start"] = hive.sim.now
            for _ in range(2_000):
                seen["problems"] += check_system(hive)
                seen["samples"] += 1
                seen["marked"] += any(c.firewall_mgr.revoking
                                      for c in hive.cells)
                yield hive.sim.timeout(2_000)

        assert check_system(hive) == []
        hive.sim.process(sampler())
        result = OceanWorkload().run(Platform(hive))
        assert result.jobs_failed == 0
        assert check_system(hive) == []
        assert seen["start"] < hive.sim.now < seen["start"] + 4_000_000
        hive.sim.run(until=hive.sim.now + 50_000_000)
        assert seen["samples"] == 2_000
        assert seen["marked"] > 0, "never met a revocation in flight"
        assert seen["problems"] == []
        assert not any(c.firewall_mgr.revoking for c in hive.cells)
        assert check_system(hive) == []


class TestFailures:
    def _exit_with_imports(self, hive):
        """A process on cell 0 imports NPAGES writable pages of cell 1
        and exits; returns, tracer attached, at the instant of the exit."""
        from repro.obs.provenance import attach_provenance

        make_remote_file(hive, npages=NPAGES, home_node=1)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=True)
            for i in range(NPAGES):
                yield from ctx.touch(region, i, write=True)

        tracer = attach_provenance(hive)
        client = hive.cell(0)
        thread = client.start_thread(client.create_process("holder"), prog)
        hive.sim.run_until_event(thread.sim_process,
                                 deadline=hive.sim.now + 10**10)
        assert client.sharing_metrics.counter("releases").value == NPAGES
        return tracer

    def _recovered_clean(self, hive, tracer, dead_cell):
        assert hive.coordinator.records, "the failure was never recovered"
        assert dead_cell in hive.coordinator.records[0].dead_cells
        for cell in hive.cells:
            assert not cell._release_batches
            assert not cell.firewall_mgr.revoking
        assert check_system(hive) == []
        assert tracer.audit_report()["verdict"] == "contained"

    def test_data_home_dies_with_a_batch_in_flight(self, hive4):
        tracer = self._exit_with_imports(hive4)
        # The exit just queued the batch; its RPCs leave in ~6 us.
        hive4.injector.inject_at(hive4.sim.now + 7_000,
                                 FaultInjector.NODE_FAILURE, 1)
        hive4.sim.run(until=hive4.sim.now + 3_000_000_000)
        self._recovered_clean(hive4, tracer, dead_cell=1)

    def test_client_dies_with_an_unflushed_batch(self, hive4):
        tracer = self._exit_with_imports(hive4)
        client, owner = hive4.cell(0), hive4.cell(1)
        # Same instant as the exit: the batch is queued, nothing sent.
        assert list(client._release_batches) == [1]
        assert len(client._release_batches[1]) == NPAGES
        served = owner.rpc.metrics.counter("served_interrupt").value
        hive4.injector.inject(FaultInjector.NODE_FAILURE, 0)
        hive4.sim.run(until=hive4.sim.now + 3_000_000_000)
        assert owner.rpc.metrics.counter("served_interrupt").value == served
        self._recovered_clean(hive4, tracer, dead_cell=0)
        # Recovery, not the lost batch, took the dead client's grants.
        assert not any(0 in pf.exported_to or 0 in pf.export_writable
                       for pf in owner.pfdats.all_pfdats())


class TestPaperAppCounts:
    """Tripwire: the release storm (72,937 SipsQueueFull retry rounds on
    the parent of this change) must not come back unnoticed."""

    #: app -> (releases, release RPCs, all RPC calls, SIPS sends,
    #: engine events, simulated ns).  The events are the budgets of
    #: tests/test_event_budget.py added up: a change to one of those
    #: moves them, and may not move the ns.
    PINNED = {
        "pmake": (PmakeWorkload, 4_512, 210, 7_751, 15_514,
                  268_511, 6_412_967_154),
        "ocean": (OceanWorkload, 2_340, 48, 2_394, 4_788,
                  91_609, 6_118_041_390),
        "raytrace": (RaytraceWorkload, 1_170, 21, 1_184, 2_376,
                     50_534, 4_348_031_350),
    }

    @pytest.mark.parametrize("app", sorted(PINNED))
    def test_counts_at_seed_1995(self, app):
        (workload_cls, releases, rpcs, calls, sends,
         events, elapsed_ns) = self.PINNED[app]
        hive = boot_paper_hive()
        exits = set()
        for cell in hive.cells:
            flush = cell._flush_releases

            def spy(data_home, cell=cell, flush=flush):
                frames = len(cell._release_batches[data_home])
                exits.add((cell.kernel_id, hive.sim.now, data_home,
                           -(-frames // RELEASE_BATCH_MAX)))
                yield from flush(data_home)

            cell._flush_releases = spy
        result = workload_cls().run(Platform(hive))
        assert result.jobs_failed == 0 and result.outputs_ok
        snap = snapshot_system(hive)  # where perfbench reads its counts
        cells = snap["cells"].values()
        assert sum(c["rpc"].get("send_retries.count", 0)
                   for c in cells) == 0
        assert snap["machine"]["sips"]["flow_control_rejections"] == 0
        assert sum(c["sharing"].get("releases.count", 0) for c in cells) == releases
        # (exit instants x data homes x chunks) bounds the release RPCs.
        assert release_rpcs(hive) <= sum(chunks for *_, chunks in exits)
        assert release_rpcs(hive) == rpcs
        assert sum(c["rpc"]["calls.count"] for c in cells) == calls
        assert snap["machine"]["sips"]["sends"] == sends
        assert (hive.sim.events_processed, result.elapsed_ns) == (
            events, elapsed_ns)
        assert check_system(hive) == []


class TestBatchOfOneCostsWhatReleasePageCost:
    @pytest.mark.parametrize("writable, latency_ns, events",
                             [(False, 7_900, 12), (True, 9_500, 14)])
    def test_one_page_release(self, hive2, writable, latency_ns, events):
        """Values measured with the one-page ``release_page`` RPC: a
        fast-path call, 700 ns of lookup, 1.6 us of revocation."""
        make_remote_file(hive2, npages=2)
        client, owner, sim = hive2.cell(0), hive2.cell(1), hive2.sim

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=writable)
            yield from ctx.touch(region, 0, write=writable)

        run_program(hive2, 0, prog)
        hist = client.rpc.metrics.histogram("latency_ns")
        calls, total, before = hist.total, hist.sum, sim.events_processed
        fast = client.rpc.metrics.counter("fast_path").value
        sim.run(until=sim.now + 100_000)
        assert (hist.total - calls, hist.sum - total) == (1, latency_ns)
        assert sim.events_processed - before == events
        assert client.rpc.metrics.counter("fast_path").value == fast + 1
        assert owner.firewall_mgr.revokes == int(writable)

    def test_table_5_2_unchanged_to_the_nanosecond(self):
        from repro.workloads.micro import (boot_two_cell, measure_page_fault,
                                           measure_rpc)

        local = measure_page_fault(boot_two_cell(1995), remote=False,
                                   nfaults=128)
        assert (local["min_ns"], local["max_ns"]) == (6_900, 6_900)
        system = boot_two_cell(1995)
        remote = measure_page_fault(system, remote=True, nfaults=128)
        assert (remote["min_ns"], remote["max_ns"]) == (50_700, 50_700)
        assert (system.sim.now, system.sim.events_processed) == (
            17_572_400, 3_252)
        system = boot_two_cell(1995)
        assert measure_rpc(system)["mean_ns"] == 7_200.0
        assert measure_rpc(system, queued=True)["mean_ns"] == 34_000.0
