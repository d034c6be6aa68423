"""System-level property tests: random fault/workload sequences must
preserve the fault-containment invariants, and the simulation must be
deterministic."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.sim.engine import Simulator
from repro.unix.fs import PAGE

from tests.helpers import run_program


def _boot(seed):
    sim = Simulator()
    hive = boot_hive(sim, num_cells=4,
                     machine_config=MachineConfig(seed=seed))
    hive.namespace.mount("/srv", 1)
    return hive


def _light_load(hive, ncells=4):
    """Start a small cross-cell load: writers on each cell to /srv."""
    def writer(i):
        def prog(ctx):
            for j in range(6):
                fd = yield from ctx.open(f"/srv/f{i}_{j}", "w",
                                         create=True)
                yield from ctx.write(fd, b"w" * PAGE)
                yield from ctx.close(fd)
                yield from ctx.compute(30_000_000)
        return prog

    for c in range(ncells):
        cell = hive.registry.cell_object(c)
        if cell is not None and cell.alive:
            proc = cell.create_process(f"writer{c}")
            cell.start_thread(proc, writer(c))


class TestInvariantsUnderFaults:
    @given(victims=st.lists(st.sampled_from([1, 2, 3]), min_size=1,
                            max_size=2, unique=True),
           when_ms=st.integers(min_value=50, max_value=400),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=12, deadline=None)
    def test_invariants_hold_after_any_failure_sequence(self, victims,
                                                        when_ms, seed):
        """Property: whatever subset of cells dies mid-load, after
        recovery the system satisfies every consistency invariant and
        the survivors keep working."""
        hive = _boot(seed)
        _light_load(hive)
        for i, victim in enumerate(victims):
            hive.injector.inject_at((when_ms + i * 137) * 1_000_000,
                                    FaultInjector.NODE_FAILURE, victim)
        hive.sim.run(until=hive.sim.now + 3_000_000_000)
        problems = check_system(hive)
        assert problems == []
        survivors = [c for c in range(4) if c not in victims]
        for c in survivors:
            assert hive.registry.is_live(c)
        # Survivors still do useful work (if the file server lives).
        if 1 not in victims:
            out = {}

            def check(ctx):
                fd = yield from ctx.open("/srv/post", "w", create=True)
                yield from ctx.write(fd, b"alive")
                yield from ctx.close(fd)
                out["ok"] = True

            run_program(hive, survivors[0], check,
                        deadline_ns=120_000_000_000)
            assert out.get("ok")

    def test_invariants_hold_on_healthy_system(self):
        hive = _boot(7)
        _light_load(hive)
        hive.sim.run(until=hive.sim.now + 1_000_000_000)
        assert check_system(hive) == []

    def test_invariants_hold_after_reintegration(self):
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         machine_config=MachineConfig(seed=3),
                         reintegrate=True)
        hive.namespace.mount("/srv", 1)
        _light_load(hive)
        hive.machine.halt_node(3)
        sim.run(until=sim.now + 5_000_000_000)
        assert hive.registry.is_live(3)
        assert check_system(hive) == []


class TestDeterminism:
    def _trace(self, seed):
        hive = _boot(seed)
        _light_load(hive)
        hive.injector.inject_at(200_000_000,
                                FaultInjector.NODE_FAILURE, 3)
        hive.sim.run(until=hive.sim.now + 2_000_000_000)
        record = hive.coordinator.records[0]
        return (record.last_entry_ns, record.discarded_pages,
                record.files_lost,
                tuple(sorted(hive.registry.live_cell_ids())),
                tuple(c.metrics.counter("faults").value
                      for c in hive.cells if c.alive))

    def test_identical_seeds_identical_outcomes(self):
        """SimOS-style deterministic replay: the same configuration must
        reproduce the same failure timeline exactly."""
        assert self._trace(11) == self._trace(11)

    def test_different_seeds_may_differ(self):
        # Not required to differ, but the RNG plumbing should make the
        # disk-rotation latencies (and hence timings) diverge.
        a, b = self._trace(11), self._trace(13)
        assert a == a and b == b  # both well-formed


class TestRpcInputFuzz:
    """Every RPC handler sanity-checks its arguments: garbage must come
    back as an errno, never crash the serving cell (Section 3.1's
    bad-message defense)."""

    OPS = ["export_page", "release_pages", "export_anon_page", "cow_deref",
           "open_file", "unlink_file", "bulk_pages", "file_extend",
           "borrow_frames", "return_frame", "firewall_update",
           "post_signal", "signal_pgroup", "spawn_program", "kill_task",
           "child_exited"]

    @given(op=st.sampled_from(OPS),
           args=st.dictionaries(
               st.sampled_from(["path", "mode", "create", "frame", "frames",
                                "logical_id", "writable", "client",
                                "cow_node", "page_index", "addr", "count",
                                "grantee", "grant", "fs_id", "ino",
                                "pages", "offset", "nbytes", "generation",
                                "pid", "sig", "pgid", "task_id", "name",
                                "program", "layout", "write_range",
                                "status"]),
               st.one_of(st.none(), st.integers(-10, 10**9), st.text(max_size=8),
                         st.booleans(), st.lists(st.integers(-5, 99),
                                                 max_size=4))))
    @example(op="unlink_file", args={"path": "00"})
    @settings(max_examples=60, deadline=None)
    def test_garbage_rpc_never_kills_the_server(self, op, args):
        from repro.core.rpc import RpcRemoteError
        from repro.unix.errors import RpcTimeout

        sim = Simulator()
        hive = boot_hive(sim, num_cells=2, machine_config=MachineConfig())
        client, server = hive.cell(0), hive.cell(1)

        def attack():
            try:
                yield from client.rpc.call(1, op, args,
                                           timeout_ns=50_000_000)
            except (RpcRemoteError, RpcTimeout):
                pass
            return True

        proc = sim.process(attack())
        sim.run_until_event(proc, deadline=sim.now + 10_000_000_000)
        assert proc.ok
        assert server.alive, f"{op} with {args!r} killed the server"
        assert client.alive

    @pytest.mark.parametrize("frames, errno", [
        (None, "EINVAL"), (7, "EINVAL"), ("12", "EINVAL"), ((1, 2), "EINVAL"),
        ([3, "x"], "EINVAL"), ([None], "EINVAL"), ([1.5], "EINVAL"),
        (list(range(65)), "EINVAL"),          # over the server's cap
        ([], None), ([-1, 10**9, True], None),  # unknown frames: no-op
        (list(range(64)), None),
    ])
    def test_release_pages_rejects_or_ignores_garbage(self, frames, errno):
        from repro.core.rpc import RpcRemoteError

        sim = Simulator()
        hive = boot_hive(sim, num_cells=2, machine_config=MachineConfig())
        client, server = hive.cell(0), hive.cell(1)
        got = {}

        def attack():
            for op in ("release_pages", "release_page"):
                try:
                    yield from client.rpc.call(1, op, {"frames": frames,
                                                       "frame": 5})
                    got[op] = None
                except RpcRemoteError as exc:
                    got[op] = exc.errno

        proc = sim.process(attack())
        sim.run_until_event(proc, deadline=sim.now + 10_000_000_000)
        assert proc.ok and server.alive and client.alive
        # The one-page op is gone, not kept beside the batch.
        assert got == {"release_pages": errno, "release_page": "EOPNOTSUPP"}
        assert check_system(hive) == []
