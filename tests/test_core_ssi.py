"""Tests for the single-system image: remote fork, signals, spanning
tasks, and migration (Section 3.2)."""

import pytest

from repro.unix.process import SIGKILL, SIGTERM

from tests.helpers import run_program


class TestRemoteFork:
    def test_child_runs_on_target_cell(self, hive4):
        out = {}

        def child(ctx):
            out["cell"] = ctx.kernel.kernel_id
            yield from ctx.compute(1000)

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid", target_cell=2)
            out["pid_cell"] = pid // 100_000
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive4, 0, parent)
        assert out["cell"] == 2
        assert out["pid_cell"] == 2
        assert out["status"] == 0

    def test_remote_wait_returns_child_status(self, hive4):
        out = {}

        def child(ctx):
            yield from ctx.compute(5_000_000)

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid", target_cell=1)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive4, 0, parent)
        assert out["status"] == 0

    def test_wait_before_and_after_exit(self, hive4):
        """Exit notifications cached for late waits."""
        out = {}

        def quick(ctx):
            yield from ctx.compute(100)

        def parent(ctx):
            pid = yield from ctx.spawn(quick, "kid", target_cell=1)
            yield from ctx.compute(200_000_000)  # child exits long before
            out["late"] = yield from ctx.waitpid(pid)

        run_program(hive4, 0, parent)
        assert out["late"] == 0

    def test_cow_ancestry_crosses_cells(self, hive4):
        out = {}

        def child(ctx):
            yield from ctx.compute(100)
            leaf = ctx.kernel.cow.resolve(
                ctx.process.cow_leaf_addr)
            out["parent_cell"] = leaf.parent_cell

        def parent(ctx):
            region = yield from ctx.map_anon(2)
            yield from ctx.touch(region, 0, write=True)
            pid = yield from ctx.spawn(child, "kid", target_cell=3)
            yield from ctx.waitpid(pid)

        run_program(hive4, 0, parent)
        assert out["parent_cell"] == 0


class TestSignals:
    def test_cross_cell_signal(self, hive4):
        out = {}

        def victim(ctx):
            yield from ctx.compute(60_000_000_000)
            out["survived"] = True

        def parent(ctx):
            pid = yield from ctx.spawn(victim, "v", target_cell=2)
            yield from ctx.compute(1_000_000)
            yield from ctx.signal(pid, SIGKILL)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive4, 0, parent)
        assert "survived" not in out
        assert out["status"] == -1

    def test_signal_unknown_pid(self, hive4):
        from repro.unix.errors import FileError

        out = {}

        def prog(ctx):
            try:
                yield from ctx.signal(399_999, SIGTERM)
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(hive4, 0, prog)
        assert out["errno"] == "ESRCH"

    def test_distributed_process_group_signal(self, hive4):
        out = {"killed": 0}

        def member(ctx):
            try:
                yield from ctx.compute(60_000_000_000)
            finally:
                out["killed"] += 1

        def leader(ctx):
            pids = []
            for cell in range(4):
                pid = yield from ctx.spawn(member, f"m{cell}",
                                           target_cell=cell)
                pids.append(pid)
            yield from ctx.compute(1_000_000)
            # All members joined the leader's group at spawn?  They get
            # their own pgid; signal each cell's pgroup via the kernel.
            delivered = yield from ctx.kernel.signal_pgroup(
                ctx, ctx.process.pgid, SIGKILL)
            out["delivered"] = delivered

        # Put the members in their own group (not the leader's, or the
        # SIGKILL would take the leader down too) spanning two cells.
        def local_leader(ctx):
            group = 777_777
            pids = []
            for i, cell in enumerate((0, 0, 1)):
                pid = yield from ctx.spawn(member, f"m{i}",
                                           target_cell=cell or None)
                target_kernel = hive4.cell(pid // 100_000)
                target_kernel.processes[pid].pgid = group
                pids.append(pid)
            yield from ctx.compute(1_000_000)
            out["delivered"] = yield from ctx.kernel.signal_pgroup(
                ctx, group, SIGKILL)
            statuses = []
            for pid in pids:
                statuses.append((yield from ctx.waitpid(pid)))
            out["statuses"] = statuses

        run_program(hive4, 0, local_leader)
        assert out["delivered"] == 3
        # Every member was killed (none ran to completion).
        assert out["statuses"] == [-1, -1, -1]
        assert "survived" not in out


class TestSpanningTasks:
    def test_components_on_every_cell_share_segment(self, hive4):
        out = {}

        def factory(index, total):
            def worker(ctx):
                region = next(r for r in ctx.process.aspace.regions
                              if r.share_key == 1)
                # Writer thread publishes; all threads write their slot.
                pte = yield from ctx.touch(region, index, write=True)
                ctx.kernel.machine.memory.write_bytes(
                    pte.frame, 0, bytes([index + 1]), cpu=ctx.cpu)
                yield from ctx.compute(50_000_000)
                # Every thread reads slot 0 (placed on cell 0).
                pte0 = yield from ctx.touch(region, 0)
                data = ctx.kernel.machine.memory.read_bytes(
                    pte0.frame, 0, 1)
                out[index] = data
            return worker

        def master(ctx):
            task = yield from ctx.kernel.spawn_spanning_task(
                ctx, factory, [0, 1, 2, 3], {1: 16}, name="t")
            out["cells"] = task.cells()
            for pid in task.pids():
                yield from ctx.waitpid(pid)

        run_program(hive4, 0, master)
        assert out["cells"] == [0, 1, 2, 3]
        assert all(out[i] == b"\x01" for i in range(4))

    def test_first_touch_placement(self, hive4):
        out = {}

        def factory(index, total):
            def worker(ctx):
                region = next(r for r in ctx.process.aspace.regions
                              if r.share_key == 1)
                pte = yield from ctx.touch(region, index, write=True)
                out[index] = ctx.kernel.machine.params.node_of_frame(
                    pte.frame)
            return worker

        def master(ctx):
            task = yield from ctx.kernel.spawn_spanning_task(
                ctx, factory, [0, 1, 2, 3], {1: 8}, name="t")
            for pid in task.pids():
                yield from ctx.waitpid(pid)

        run_program(hive4, 0, master)
        # Each component's first touch placed its page on its own cell.
        assert out == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_sibling_failure_kills_task(self, hive4):
        out = {}

        def factory(index, total):
            def worker(ctx):
                if index == 1:
                    yield from ctx.exit(1)  # abnormal component exit
                yield from ctx.compute(60_000_000_000)
                out["survivor"] = index
            return worker

        def master(ctx):
            task = yield from ctx.kernel.spawn_spanning_task(
                ctx, factory, [0, 1], {1: 4}, name="t")
            for pid in task.pids():
                yield from ctx.waitpid(pid)
            out["task_dead"] = hive4.registry.task(task.task_id).dead

        run_program(hive4, 0, master)
        assert out["task_dead"]
        assert "survivor" not in out

    def test_migration_moves_continuation(self, hive4):
        out = {}

        def continuation(ctx):
            out["ran_on"] = ctx.kernel.kernel_id
            yield from ctx.compute(1000)

        def prog(ctx):
            pid = yield from ctx.kernel.migrate_process(
                ctx, continuation, "moved", target_cell=3)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive4, 0, prog)
        assert out["ran_on"] == 3
        assert out["status"] == 0
