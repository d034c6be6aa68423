"""Snapshot-fork scenario server: the golden contract.

A system forked from a :class:`~repro.sim.snapshot.SystemImage` must be
indistinguishable — on every deterministic counter — from a freshly
booted one, parked chains included, and a platform without ``os.fork``
must fall back to fresh boots without changing any result.
"""

import pytest

from repro.bench.faultexp import FaultExperimentRunner
from repro.bench.throughput import (compare_snapshot, equiv_mismatches,
                                    run_throughput, run_throughput_forked)
from repro.sim import snapshot
from repro.sim.snapshot import (SnapshotError, SystemImage, fork_supported,
                                reseed_system, snapshot_enabled)
from tests.helpers import LAST_REPLAY_RUN, equiv_row

pytestmark = pytest.mark.skipif(
    not fork_supported(), reason="snapshot fork needs os.fork")


def _boot_counter_system(value=0):
    """Tiny picklable stand-in for a booted system."""
    return {"value": value, "log": []}


def _bump(system, by):
    system["value"] += by
    system["log"].append(by)
    return dict(system)


def _explode(system):
    raise ValueError("exploded in the child")


class TestSystemImage:
    def test_fork_inherits_boot_state(self):
        with SystemImage(_boot_counter_system, 10) as image:
            assert image.mode == "fork"
            assert image.run(_bump, 5) == {"value": 15, "log": [5]}

    def test_forks_are_independent(self):
        # Copy-on-write: one run's mutations never leak into the next.
        with SystemImage(_boot_counter_system, 10) as image:
            assert image.run(_bump, 5)["value"] == 15
            assert image.run(_bump, 7)["value"] == 17
            assert image.forks == 2
            assert image.fork_wall_s_last > 0.0

    def test_child_error_propagates(self):
        with SystemImage(_boot_counter_system) as image:
            with pytest.raises(SnapshotError, match="exploded"):
                image.run(_explode)
            # The holder survives a failed run.
            assert image.run(_bump, 1)["value"] == 1

    def test_boot_error_raises(self):
        def _bad_boot():
            raise RuntimeError("boot failed")
        with pytest.raises(SnapshotError, match="boot failed"):
            SystemImage(_bad_boot)

    def test_unpicklable_fn_raises(self):
        extra = 3
        with SystemImage(_boot_counter_system) as image:
            with pytest.raises(SnapshotError, match="picklable"):
                image.run(lambda system: system["value"] + extra)

    def test_closed_image_refuses_runs(self):
        image = SystemImage(_boot_counter_system)
        image.close()
        assert image.closed
        with pytest.raises(SnapshotError, match="closed"):
            image.run(_bump, 1)

    def test_boot_fallback_mode(self, monkeypatch):
        # The fallback is the platform's, not the environment's.
        monkeypatch.setenv("HIVE_SNAPSHOT", "0")
        assert snapshot_enabled()
        with SystemImage(_boot_counter_system, 10) as image:
            assert image.mode == "fork"
        monkeypatch.setattr(snapshot, "fork_supported", lambda: False)
        assert not snapshot_enabled()
        with SystemImage(_boot_counter_system, 10) as image:
            assert image.mode == "boot"
            assert image.run(_bump, 5)["value"] == 15
            # Boot mode re-boots per run: no state carries over either.
            assert image.run(_bump, 7)["value"] == 17


class TestSnapshotGolden:
    """Fork-then-run must equal fresh-boot-then-run, byte for byte."""

    @pytest.mark.parametrize("config", ["small", "medium", "large"])
    def test_forked_matches_boot(self, config):
        result = compare_snapshot(config)
        assert result["mode"] == "fork"
        assert result["match"], result["mismatches"]

    def test_forked_matches_boot_sharded(self):
        # Sharding is gone; what a fork composes with now is the chain
        # coordinator every run has.  A forked run must park and credit
        # exactly as a freshly booted one, at a moved fault time too.
        forked = run_throughput_forked("small", channels=True,
                                       inject_ms=37)
        fresh = run_throughput("small", channels=True, inject_ms=37)
        assert not equiv_mismatches(fresh, forked)
        assert forked["parking"] == fresh["parking"]
        assert forked["parking"]["replayed_wakeups"] > 0

    def test_forked_matches_boot_replay(self):
        # A fork replaying a recorded trace at a moved fault printed
        # this row on its last run; fork and fresh boot still do.
        forked = run_throughput_forked("small", channels=True,
                                       inject_ms=37)
        fresh = run_throughput("small", channels=True, inject_ms=37)
        assert forked["snapshot"] == "fork"
        assert equiv_row(forked) == LAST_REPLAY_RUN["small", 37]
        assert equiv_row(fresh) == LAST_REPLAY_RUN["small", 37]

    def test_reseeded_fork_matches_fresh_seed(self):
        # The image boots at the default seed; a run at seed 7 must
        # match a fresh boot at seed 7 (reseed_system really rewinds).
        forked = run_throughput_forked("small", seed=7, channels=True)
        fresh = run_throughput("small", seed=7, channels=True)
        assert not equiv_mismatches(fresh, forked)
        assert forked["snapshot"] == "fork"
        assert forked["fork_wall_s"] > 0.0

    def test_escape_hatch_still_matches(self, monkeypatch):
        # The hatch is closed (``HIVE_SNAPSHOT=0`` leaves the mode
        # alone); the fallback it selected is reached the way a
        # platform without ``os.fork`` reaches it.
        monkeypatch.setenv("HIVE_SNAPSHOT", "0")
        assert compare_snapshot("small")["mode"] == "fork"
        monkeypatch.setattr(snapshot, "fork_supported", lambda: False)
        result = compare_snapshot("small")
        assert result["mode"] == "boot"
        assert result["match"], result["mismatches"]


def _raise_on_boot(system):
    raise RuntimeError("on_boot ran in the child")


class TestFaultexpSnapshot:
    def test_forked_trial_matches_fresh(self):
        fresh = FaultExperimentRunner(agreement="oracle")
        base = fresh.run_trial("hw_process_creation", seed=5)
        forked = FaultExperimentRunner(agreement="oracle")
        forked.make_image()
        try:
            trial = forked.run_trial("hw_process_creation", seed=5)
            again = forked.run_trial("hw_process_creation", seed=5)
            assert forked.last_setup_wall_s > 0.0
        finally:
            forked.image.close()
        assert trial.to_dict() == base.to_dict()
        assert again.to_dict() == base.to_dict()

    def test_on_boot_runs_in_forked_child(self):
        # Satellite (b): on_boot must fire for forked systems too.  A
        # raising hook proves both invocation and error propagation.
        runner = FaultExperimentRunner(agreement="oracle",
                                       on_boot=_raise_on_boot)
        runner.make_image()
        try:
            with pytest.raises(SnapshotError,
                               match="on_boot ran in the child"):
                runner.run_trial("hw_process_creation", seed=5)
        finally:
            runner.image.close()


class TestCampaignSnapshot:
    def test_snapshot_campaign_matches_fresh(self):
        from repro.bench.parallel import run_inject_campaign

        fresh = run_inject_campaign(["hw_process_creation"], trials=2,
                                    workers=1, snapshot=False)
        forked = run_inject_campaign(["hw_process_creation"], trials=2,
                                     workers=1, snapshot=True)
        assert not fresh.get("failures") and not forked.get("failures")
        for key in ("scenarios", "availability", "tiers", "audit"):
            assert forked.get(key) == fresh.get(key), key
        snap = forked["snapshot"]
        assert snap["mode"] == "fork"
        assert snap["trials"] == 2
        assert snap["setup_wall_s_mean"] > 0.0
        assert fresh["snapshot"]["mode"] == "boot"
        assert fresh["snapshot"]["amortization_x"] == 1.0


class TestReseed:
    def test_reseed_resets_streams(self):
        from repro.bench.throughput import boot_bench_system

        system = boot_bench_system("small")
        rng = system.machine.rng
        rng.stream("x").randint(0, 100)
        reseed_system(system, 7)
        assert system.machine.config.seed == 7
        assert not rng._streams
