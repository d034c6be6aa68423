"""Snapshot-fork scenario server: the golden contract.

A system forked from a :class:`~repro.sim.snapshot.SystemImage` must be
indistinguishable — on every deterministic counter — from a freshly
booted one, parked chains included, and a platform without ``os.fork``
must fall back to fresh boots without changing any result.
"""

import pytest

from repro.bench.faultexp import FaultExperimentRunner, boot_faultexp_system
from repro.bench.parallel import _trial_payload, run_inject_campaign
from repro.bench.throughput import (compare_snapshot, equiv_mismatches,
                                    run_throughput)
from repro.sim import snapshot
from repro.sim.snapshot import (SnapshotError, SystemImage, fork_supported,
                                reseed_system, run_booted, snapshot_enabled)
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


def _boot_seeded(value, seed):
    """``run_booted`` boots with the seed as last argument."""
    return _boot_counter_system(value)


@pytest.fixture
def fresh_images(monkeypatch):
    """An empty image cache for one test, its images closed afterwards."""
    images = {}
    monkeypatch.setattr(snapshot, "_IMAGES", images)
    yield images
    for image in images.values():
        image.close()


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


class TestRunBooted:
    def test_boot_and_fork_agree_and_share_one_image(self, fresh_images):
        booted, setup = run_booted(_boot_seeded, (10,), _bump, 5, seed=1)
        assert booted == {"value": 15, "log": [5]}
        assert setup["mode"] == "boot"
        assert setup["setup_wall_s"] == setup["boot_wall_s"] > 0.0
        assert not fresh_images
        for seed in (1, 2):
            forked, setup = run_booted(_boot_seeded, (10,), _bump, 5,
                                       seed=seed, snapshot=True)
            assert forked == booted
            assert setup["mode"] == "fork"
            assert setup["setup_wall_s"] > 0.0
        # The seed does not key the cache: one image served both.
        (image,) = fresh_images.values()
        assert image.forks == 2
        run_booted(_boot_seeded, (11,), _bump, 5, seed=1, snapshot=True)
        assert len(fresh_images) == 2


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
        forked = run_throughput("small", channels=True, inject_ms=37,
                                snapshot=True)
        fresh = run_throughput("small", channels=True, inject_ms=37)
        assert not equiv_mismatches(fresh, forked)
        assert forked["parking"] == fresh["parking"]
        assert forked["parking"]["replayed_wakeups"] > 0

    def test_forked_matches_boot_replay(self):
        # A fork replaying a recorded trace at a moved fault printed
        # this row on its last run; fork and fresh boot still do.
        forked = run_throughput("small", channels=True, inject_ms=37,
                                snapshot=True)
        fresh = run_throughput("small", channels=True, inject_ms=37)
        assert forked["snapshot"] == "fork"
        assert equiv_row(forked) == LAST_REPLAY_RUN["small", 37]
        assert equiv_row(fresh) == LAST_REPLAY_RUN["small", 37]

    def test_reseeded_fork_matches_fresh_seed(self):
        # The image boots at the default seed; a run at seed 7 must
        # match a fresh boot at seed 7 (reseed_system really rewinds).
        forked = run_throughput("small", seed=7, channels=True,
                                snapshot=True)
        fresh = run_throughput("small", seed=7, channels=True)
        assert not equiv_mismatches(fresh, forked)
        assert forked["snapshot"] == "fork"
        assert forked["fork_wall_s"] > 0.0

    def test_per_wakeup_run_forks_like_any_other(self):
        # Nothing is left to fill in the child: a forked per-wakeup run
        # matches a booted one, down to its one park per wakeup.
        forked = run_throughput("small", channels=True, per_wakeup=True,
                                snapshot=True)
        booted = run_throughput("small", channels=True, per_wakeup=True)
        assert forked["snapshot"] == "fork"
        assert not equiv_mismatches(booted, forked)
        assert forked["parking"] == booted["parking"]
        assert equiv_row(forked) == LAST_REPLAY_RUN["small", None]

    def test_escape_hatch_still_matches(self, monkeypatch, fresh_images):
        # The hatch is closed (``HIVE_SNAPSHOT=0`` leaves the mode
        # alone); the fallback it selected is reached the way a
        # platform without ``os.fork`` reaches it — by an image built
        # there: an image's mode is fixed when it is built.
        monkeypatch.setenv("HIVE_SNAPSHOT", "0")
        assert compare_snapshot("small")["mode"] == "fork"
        monkeypatch.setattr(snapshot, "fork_supported", lambda: False)
        fresh_images.popitem()[1].close()
        result = compare_snapshot("small")
        assert result["mode"] == "boot"
        assert result["match"], result["mismatches"]


class TestFaultexpSnapshot:
    def test_forked_trial_matches_fresh(self):
        base = FaultExperimentRunner(agreement="oracle").run_trial(
            "hw_process_creation", seed=5)
        # Twice: the second campaign forks from the image the first built.
        for _ in range(2):
            forked = run_inject_campaign(["hw_process_creation"], trials=1,
                                         seed_base=5, workers=1,
                                         snapshot=True)
            assert not forked.get("failures")
            assert forked["snapshot"]["mode"] == "fork"
            assert forked["snapshot"]["setup_wall_s_mean"] > 0.0
            (trial,) = forked["summaries"]["hw_process_creation"].trials
            assert trial.to_dict() == base.to_dict()

    def test_on_boot_runs_in_forked_child(self):
        # A fork inherits the *unobserved* image, so the observers must
        # attach inside the forked child: a trial forked from the image
        # carries a non-empty availability ledger and audit.
        out, setup = run_booted(
            boot_faultexp_system, ("oracle",), _trial_payload,
            "hw_process_creation", 5, None, "oracle", None, False,
            seed=5, snapshot=True)
        assert setup["mode"] == "fork"
        assert out["status"] == "ok" and out["trial"]["contained"]
        assert out["availability"]["rounds_recovered"] > 0
        assert out["audit"]["verdict"] == "contained"
        assert out["audit"]["summary"]["interactions"] > 0


class TestCampaignSnapshot:
    def test_snapshot_campaign_matches_fresh(self):
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
