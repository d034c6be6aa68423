"""Unit tests for the workload platform adapter."""

import pytest

from repro.core.hive import boot_hive, boot_irix
from repro.hardware.machine import MachineConfig
from repro.sim.engine import Simulator
from repro.unix.fs import PAGE
from repro.workloads.base import Platform, WorkloadResult, pattern_bytes

from tests.helpers import run_program


def make_hive_platform():
    sim = Simulator()
    hive = boot_hive(sim, num_cells=4, machine_config=MachineConfig())
    hive.namespace.mount("/d", 2)
    return Platform(hive)


class TestPlatform:
    def test_wraps_irix_as_single_kernel(self):
        platform = Platform(boot_irix(Simulator()))
        assert not platform.is_hive
        assert platform.num_placements == 1

    def test_wraps_hive_with_all_cells(self):
        platform = make_hive_platform()
        assert platform.is_hive
        assert platform.num_placements == 4

    def test_kernel_for_round_robin(self):
        platform = make_hive_platform()
        assert platform.kernel_for(0).kernel_id == 0
        assert platform.kernel_for(5).kernel_id == 1

    def test_kernel_for_skips_dead_cells(self):
        platform = make_hive_platform()
        platform.target.registry.mark_dead(1, "test")
        k = platform.kernel_for(1)
        assert k.alive and k.kernel_id != 1

    def test_live_kernels(self):
        platform = make_hive_platform()
        platform.target.registry.mark_dead(3, "test")
        assert [k.kernel_id for k in platform.live_kernels()] == [0, 1, 2]

    def test_fs_owner_kernel(self):
        platform = make_hive_platform()
        assert platform.fs_owner_kernel("/d/x").kernel_id == 2
        platform.target.registry.mark_dead(2, "test")
        assert platform.fs_owner_kernel("/d/x") is None


class TestVerifyFile:
    def _write(self, platform, path, data):
        def prog(ctx):
            fd = yield from ctx.open(path, "w", create=True)
            yield from ctx.write(fd, data)
            yield from ctx.close(fd)

        owner = platform.fs_owner_kernel(path)
        run_program(owner, 0, prog)

    def test_clean_file_verifies(self):
        platform = make_hive_platform()
        data = pattern_bytes("/d/ok", 2 * PAGE)
        self._write(platform, "/d/ok", data)
        assert platform.verify_file("/d/ok", data) == []

    def test_size_mismatch_reported(self):
        platform = make_hive_platform()
        self._write(platform, "/d/short", b"abc")
        errors = platform.verify_file("/d/short", b"abcdef")
        assert errors and "size" in errors[0]

    def test_content_mismatch_reported(self):
        platform = make_hive_platform()
        self._write(platform, "/d/bad", b"A" * PAGE)
        errors = platform.verify_file("/d/bad", b"B" * PAGE)
        assert errors and "page 0" in errors[0]

    def test_missing_file_reported(self):
        platform = make_hive_platform()
        errors = platform.verify_file("/d/none", b"x")
        assert errors

    def test_unreadable_resident_page_reads_the_platter(self):
        """The page cache copy comes first; when its frame's memory has
        failed, the platter copy (still zeros: nothing was written
        back) is what gets compared."""
        platform = make_hive_platform()
        data = b"A" * PAGE
        self._write(platform, "/d/cached", data)
        assert platform.verify_file("/d/cached", data) == []
        machine = platform.target.machine
        machine.memory.fail_node(2)  # the file server's memory
        assert platform.verify_file("/d/cached", bytes(PAGE)) == []

    def test_dead_server_reported_as_unavailable(self):
        platform = make_hive_platform()
        self._write(platform, "/d/gone", b"x")
        platform.target.registry.mark_dead(2, "test")
        errors = platform.verify_file("/d/gone", b"x")
        assert errors and "unavailable" in errors[0]


class TestWorkloadResult:
    def test_elapsed_and_ok(self):
        result = WorkloadResult("w", started_ns=1_000_000_000,
                                finished_ns=3_500_000_000)
        assert result.elapsed_s == pytest.approx(2.5)
        assert result.outputs_ok
        result.output_errors.append("boom")
        assert not result.outputs_ok
