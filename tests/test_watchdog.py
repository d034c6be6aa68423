"""Online invariant watchdog: oracle accuracy, gating, zero-cost-off.

The watchdog's contract has three parts: (1) when containment state is
corrupted mid-run it reports the violation with the correct
first-violation timestamp and cell id (the oracle test — corruption is
planted deliberately, detection must not rely on the end-of-run sweep);
(2) it only exists when ``HIVE_WATCHDOG=1``; (3) with the variable
unset the simulation is counter-identical to a run without the module.
"""

from repro.bench.faultexp import (
    HW_DURING_PROCESS_CREATION,
    FaultExperimentRunner,
)
from repro.obs import attach_provenance, maybe_attach_watchdog
from repro.obs.watchdog import (
    DEFAULT_PERIOD_NS,
    InvariantWatchdog,
    attach_watchdog,
    watchdog_enabled,
)

PERIOD_NS = 10_000_000  # 10 simulated ms


def _corrupt_firewall_state(system, cell_id: int, grantee: int):
    """Plant a pfdat/firewall disagreement on a healthy cell.

    Allocates a local frame and records ``grantee`` as write-enabled in
    the pfdat without touching the hardware firewall — exactly the
    inconsistency ``_check_firewall_agreement`` exists to catch.
    """
    cell = system.cell(cell_id)
    pf = cell.pfdats.alloc_frame()
    pf.grant_write(grantee)
    return pf


class TestWatchdogOracle:
    def test_reports_corruption_with_time_and_cell(self, hive4, sim):
        sim.run(until=20_000_000)
        t0 = sim.now
        _corrupt_firewall_state(hive4, cell_id=1, grantee=2)
        wd = attach_watchdog(hive4, period_ns=PERIOD_NS)
        sim.run(until=t0 + 3 * PERIOD_NS + 1)

        assert wd.first_violation is not None, "corruption not detected"
        first = wd.first_violation
        # Detected at the first tick after the corruption, on the right
        # cell, with the firewall-agreement check named.
        assert first["time_ns"] == t0 + PERIOD_NS
        assert first["cell"] == 1
        assert any("firewall disagrees" in p for p in first["problems"])
        # No fault was injected, so no taint to attribute.
        assert first["taint"] is None
        # Every subsequent scan re-reports the (persistent) corruption.
        assert len(wd.violations) >= 2
        report = wd.report()
        assert report["first_violation"] == first
        assert report["checks_run"] >= 3

    def test_violation_carries_active_taint(self, hive4, sim):
        sim.run(until=20_000_000)
        tracer = attach_provenance(hive4)
        tracer.fault_injected(3, kind="corrupt", site="test")
        t0 = sim.now
        _corrupt_firewall_state(hive4, cell_id=1, grantee=2)
        wd = attach_watchdog(hive4, period_ns=PERIOD_NS)
        sim.run(until=t0 + PERIOD_NS + 1)

        assert wd.first_violation is not None
        assert wd.first_violation["taint"] == "t0"

    def test_clean_system_stays_silent(self, hive4, sim):
        wd = attach_watchdog(hive4, period_ns=PERIOD_NS)
        sim.run(until=5 * PERIOD_NS)
        assert wd.first_violation is None
        assert wd.violations == []
        assert wd.report()["checks_run"] >= 1

    def test_violation_cap_bounds_memory(self, hive4, sim):
        from repro.obs.watchdog import MAX_VIOLATIONS

        wd = InvariantWatchdog(hive4, period_ns=PERIOD_NS)
        wd.violations = [{"n": i} for i in range(MAX_VIOLATIONS)]
        wd._record(0, ["synthetic"])
        assert len(wd.violations) == MAX_VIOLATIONS
        assert wd.violations_dropped == 1


class TestWatchdogCadence:
    def test_scans_do_not_depend_on_run_chunking(self):
        """One scan per tick, however the caller chunks ``run()``: the
        run loops publish ``events_processed`` only when they return,
        so a scan gated on that count would follow the chunking."""
        from repro.core.hive import boot_hive
        from repro.sim.engine import Simulator

        period = 1_000_000
        ticks = 100

        def scans(chunks):
            sim = Simulator()
            system = boot_hive(sim, num_cells=4)
            wd = attach_watchdog(system, period_ns=period)
            t0 = sim.now
            step = ticks * period // chunks
            for i in range(1, chunks + 1):
                sim.run(until=t0 + i * step)
            return wd.ticks, wd.checks_run, sim.events_processed

        whole = scans(1)
        chunked = scans(ticks)
        assert whole == chunked
        assert whole[:2] == (ticks, ticks)


class TestWatchdogGating:
    def test_off_by_default(self, hive4):
        assert not watchdog_enabled(env={})
        assert maybe_attach_watchdog(hive4, env={}) is None
        assert maybe_attach_watchdog(hive4,
                                     env={"HIVE_WATCHDOG": "0"}) is None
        assert getattr(hive4, "watchdog", None) is None

    def test_on_when_requested(self, hive4, sim):
        env = {"HIVE_WATCHDOG": "1",
               "HIVE_WATCHDOG_PERIOD_NS": str(PERIOD_NS)}
        wd = maybe_attach_watchdog(hive4, env=env)
        assert wd is not None
        assert hive4.watchdog is wd
        assert wd.period_ns == PERIOD_NS
        sim.run(until=PERIOD_NS + 1)
        assert wd.ticks >= 1

    def test_default_period(self, hive4):
        wd = maybe_attach_watchdog(hive4, env={"HIVE_WATCHDOG": "1"})
        assert wd.period_ns == DEFAULT_PERIOD_NS
        wd.stop()


class TestWatchdogOffEquivalence:
    """HIVE_WATCHDOG unset must be invisible: same trial outcome, same
    event count as a run where the module is never touched."""

    def test_counter_identical_when_off(self):
        def run(with_obs):
            captured = {}

            def on_boot(system):
                captured["system"] = system
                if with_obs:
                    attach_provenance(system)
                    assert maybe_attach_watchdog(system, env={}) is None

            runner = FaultExperimentRunner(on_boot=on_boot)
            trial = runner.run_trial(HW_DURING_PROCESS_CREATION, seed=7)
            system = captured["system"]
            return trial.to_dict(), system.sim.events_processed

        plain = run(with_obs=False)
        gated = run(with_obs=True)
        assert plain[0] == gated[0]
        assert plain[1] == gated[1]
