"""End-to-end fault-containment integration tests (Section 7.4 method)."""

import pytest

from repro.bench.faultexp import (
    ALL_SCENARIOS,
    HW_DURING_PROCESS_CREATION,
    HW_RANDOM_TIME,
    SW_ADDRESS_MAP,
    SW_COW_TREE,
    FaultExperimentRunner,
)
from repro.core.hive import boot_hive
from repro.core.kfaults import ALL_MODES
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.obs import attach_provenance
from repro.sim.engine import Simulator
from repro.unix.fs import PAGE

from tests.helpers import run_program


class TestScenarioTrials:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_single_trial_contained(self, scenario):
        runner = FaultExperimentRunner()
        result = runner.run_trial(scenario, seed=1)
        assert result.detected, result.notes
        assert result.survivors_alive
        assert result.outputs_ok
        assert result.check_ok, result.notes
        assert result.contained

    def test_detection_latency_orders_match_paper(self):
        """COW-tree corruption takes far longer to detect than node
        failures (Table 7.4's dominant qualitative result)."""
        runner = FaultExperimentRunner()
        hw = runner.run_trial(HW_DURING_PROCESS_CREATION, seed=2)
        sw = runner.run_trial(SW_COW_TREE, seed=2)
        assert hw.latency_ms is not None and sw.latency_ms is not None
        assert sw.latency_ms > hw.latency_ms

    def test_node_failure_latency_in_paper_band(self):
        """Node-failure detection is clock-monitor bound: one tick plus
        quiesce — tens of milliseconds, never seconds."""
        runner = FaultExperimentRunner()
        r = runner.run_trial(HW_RANDOM_TIME, seed=3)
        assert r.latency_ms is not None
        assert 2 <= r.latency_ms <= 60

    def test_address_map_detection_under_voting_agreement(self):
        """The real agreement protocol (not the oracle) also confirms a
        panicked cell."""
        runner = FaultExperimentRunner(agreement="voting")
        r = runner.run_trial(SW_ADDRESS_MAP, seed=4)
        assert r.contained, r.notes

    def test_cow_tree_self_pointer_contained(self):
        """Seed 3 picks the ``self_pointer`` mode (seed % 4 == 3), as
        ``repro inject sw_cow_tree --seed 3`` does.  The victim walks
        its own tree into the cycle, and the cycle panics it."""
        r = FaultExperimentRunner().run_trial(SW_COW_TREE, seed=3)
        assert r.contained, r.reason


    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("scenario", [SW_ADDRESS_MAP, SW_COW_TREE])
    def test_every_corruption_mode_contained(self, scenario, mode):
        """Seeds 0-15, as ``repro inject <scenario> --trials 16 --seed 0``
        runs them: a trial's mode is ``ALL_MODES[seed % 4]``, so each
        mode gets four seeds.  Contained, and the audit agrees."""
        systems = []
        runner = FaultExperimentRunner(
            on_boot=lambda system: systems.append(attach_provenance(system)))
        first = ALL_MODES.index(mode)
        for seed in range(first, 16, len(ALL_MODES)):
            r = runner.run_trial(scenario, seed)
            audit = systems[-1].audit_report()
            assert r.contained, (seed, r.reason)
            assert audit["verdict"] == "contained", (seed, audit["summary"])

    @pytest.mark.parametrize("seed", [
        # no live victim process at the scheduled instant: until PR 18
        # the corruption was silently never injected
        1953273122, 1134690140, 677052671, 36272003, 157622201,
        # the corrupt leaf pointer's owner only ever forks or exits:
        # until PR 18 local fork and exit swallowed it
        1900233367, 1840099286])
    def test_address_map_fault_lands_and_is_noticed_on_any_seed(self, seed):
        r = FaultExperimentRunner().run_trial(SW_ADDRESS_MAP, seed)
        assert r.injected_at_ns > 0, r.notes
        assert r.contained, r.notes
        # Table 7.4: detected in 38 ms on average, 65 ms at most
        assert r.latency_ms <= 70


    def test_trial_that_never_finds_a_victim_says_so(self, monkeypatch):
        """No victim at the scheduled instant re-arms on the victim
        cell's next fork; a fault still armed when the workload ends is
        reported as a harness miss, not passed off as a breach."""
        from repro.core.kfaults import KernelFaultInjector

        attempts = []
        monkeypatch.setattr(
            KernelFaultInjector, "corrupt_address_map",
            lambda self, *args, **kwargs: attempts.append(self.sim.now))
        r = FaultExperimentRunner().run_trial(SW_ADDRESS_MAP, seed=1)
        assert len(attempts) > 1 and attempts == sorted(attempts)
        assert r.notes == "fault never injected"
        assert r.injected_at_ns == -1
        assert not r.detected and not r.contained
        assert r.survivors_alive and r.check_ok


class TestFileServerFailure:
    def test_clients_get_errors_not_crashes(self):
        """Killing the file-server cell gives surviving clients I/O
        errors; the cells themselves survive (the paper's reliability
        definition: failure probability proportional to resources used)."""
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=9))
        hive.namespace.mount("/srv", 3)
        out = {}

        def writer(ctx):
            fd = yield from ctx.open("/srv/d", "w", create=True)
            yield from ctx.write(fd, b"x" * PAGE)
            yield from ctx.close(fd)

        run_program(hive, 3, writer)

        def client(ctx):
            fd = yield from ctx.open("/srv/d", "r")
            out["first"] = yield from ctx.read(fd, 16)
            yield from ctx.compute(300_000_000)  # server dies meanwhile
            from repro.unix.errors import FileError, RpcTimeout
            try:
                fd2 = yield from ctx.open("/srv/d", "r")
                yield from ctx.read(fd2, PAGE)
                out["second"] = "ok"
            except (FileError, RpcTimeout):
                out["second"] = "io-error"

        c0 = hive.cell(0)
        proc = c0.create_process("client")
        c0.start_thread(proc, client)
        sim.schedule(100_000_000, hive.machine.halt_node, 3)
        sim.run(until=sim.now + 3_000_000_000)
        assert out["first"] == b"x" * 16
        assert out["second"] == "io-error"
        assert c0.alive

    def test_stale_descriptor_semantics_after_discard(self):
        """Section 4.2: only processes that opened the file *before* the
        failure get errors; a fresh open reads stale disk data."""
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=11))
        hive.namespace.mount("/srv", 1)
        out = {}

        def setup(ctx):
            fd = yield from ctx.open("/srv/f", "w", create=True)
            yield from ctx.write(fd, b"A" * PAGE)
            yield from ctx.close(fd)

        run_program(hive, 1, setup)
        # Push v1 to disk, then dirty the page via a remote writer on
        # cell 3 (which will fail).
        proc = sim.process(hive.cell(1).sync_all())
        sim.run_until_event(proc, deadline=sim.now + 10**11)

        def dirty_writer(ctx):
            fd = yield from ctx.open("/srv/f", "w")
            yield from ctx.write(fd, b"B" * PAGE)
            yield from ctx.compute(10_000_000_000)  # hold the fd open

        c3 = hive.cell(3)
        p3 = c3.create_process("dirtier")
        c3.start_thread(p3, dirty_writer)
        sim.run(until=sim.now + 100_000_000)

        # An old reader on cell 0 opens before the failure.
        from repro.unix.errors import FileError

        def old_reader(ctx):
            fd = yield from ctx.open("/srv/f", "r")
            yield from ctx.compute(600_000_000)
            try:
                yield from ctx.read(fd, 4)
                out["old"] = "ok"
            except FileError:
                out["old"] = "io-error"

        c0 = hive.cell(0)
        p0 = c0.create_process("old-reader")
        c0.start_thread(p0, old_reader)
        sim.run(until=sim.now + 50_000_000)
        hive.machine.halt_node(3)
        sim.run(until=sim.now + 2_000_000_000)

        # A fresh open after recovery reads the stale on-disk copy.
        def fresh_reader(ctx):
            fd = yield from ctx.open("/srv/f", "r")
            out["fresh"] = yield from ctx.read(fd, 4)

        run_program(hive, 0, fresh_reader, deadline_ns=120_000_000_000)
        assert out["old"] == "io-error"
        assert out["fresh"] == b"AAAA"


class TestCumulativeFailures:
    def test_two_sequential_cell_failures(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=13))
        hive.machine.halt_node(3)
        sim.run(until=sim.now + 1_000_000_000)
        assert hive.registry.live_cell_ids() == [0, 1, 2]
        hive.machine.halt_node(2)
        sim.run(until=sim.now + 1_000_000_000)
        assert hive.registry.live_cell_ids() == [0, 1]
        for c in (0, 1):
            assert hive.cell(c).alive

    def test_work_continues_after_failures(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=17))
        hive.namespace.mount("/tmp", 0)
        hive.machine.halt_node(3)
        sim.run(until=sim.now + 1_000_000_000)
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/after", "w", create=True)
            yield from ctx.write(fd, b"still works")
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/after", "r")
            out["data"] = yield from ctx.read(fd, 64)

        run_program(hive, 1, prog)
        assert out["data"] == b"still works"
