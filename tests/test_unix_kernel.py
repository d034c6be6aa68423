"""Integration tests for the single-kernel UNIX (IRIX baseline)."""

import pytest

from repro.core.hive import boot_irix
from repro.hardware.machine import Machine, MachineConfig
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.unix.errors import BadAddressError, FileError, StaleGenerationError
from repro.unix.fs import PAGE
from repro.unix.kernel import GlobalNamespace, LocalKernel

from tests.helpers import run_program


@pytest.fixture
def kernel():
    sim = Simulator()
    k = boot_irix(sim)
    k.namespace.mount("/tmp", 0)
    k.namespace.mount("/data", 1)
    return k


class TestNamespaceRouting:
    def test_mounts_override_hash(self, kernel):
        assert kernel.fs_node_for("/tmp/x") == 0
        assert kernel.fs_node_for("/data/x") == 1

    def test_longest_prefix_wins(self, kernel):
        kernel.namespace.mount("/data/special", 2)
        assert kernel.fs_node_for("/data/special/f") == 2
        assert kernel.fs_node_for("/data/other") == 1

    def test_hash_routing_is_stable(self, kernel):
        a = kernel.fs_node_for("/unmounted/file")
        b = kernel.fs_node_for("/unmounted/file")
        assert a == b

    def test_bad_mount_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.namespace.mount("relative", 0)
        with pytest.raises(ValueError):
            kernel.namespace.mount("/x", 99)


class TestFileSyscalls:
    def test_create_write_read(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/f", "w", create=True)
            n = yield from ctx.write(fd, b"hello world")
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/f", "r")
            out["data"] = yield from ctx.read(fd, 100)
            out["written"] = n
            yield from ctx.close(fd)

        run_program(kernel, 0, prog)
        assert out["written"] == 11
        assert out["data"] == b"hello world"

    def test_open_missing_enoent(self, kernel):
        out = {}

        def prog(ctx):
            try:
                yield from ctx.open("/tmp/nope", "r")
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(kernel, 0, prog)
        assert out["errno"] == "ENOENT"

    def test_read_past_eof_truncates(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/s", "w", create=True)
            yield from ctx.write(fd, b"abc")
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/s", "r")
            out["data"] = yield from ctx.read(fd, 1000)

        run_program(kernel, 0, prog)
        assert out["data"] == b"abc"

    def test_sequential_offsets(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/seq", "w", create=True)
            yield from ctx.write(fd, b"aaaa")
            yield from ctx.write(fd, b"bbbb")
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/seq", "r")
            out["first"] = yield from ctx.read(fd, 4)
            out["second"] = yield from ctx.read(fd, 4)

        run_program(kernel, 0, prog)
        assert out["first"] == b"aaaa"
        assert out["second"] == b"bbbb"

    def test_write_on_readonly_fd_rejected(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/ro", "w", create=True)
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/ro", "r")
            try:
                yield from ctx.write(fd, b"x")
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(kernel, 0, prog)
        assert out["errno"] == "EBADF"

    def test_multi_page_write_spans_pages(self, kernel):
        payload = bytes(range(256)) * 48  # 3 pages
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/big", "w", create=True)
            yield from ctx.write(fd, payload)
            yield from ctx.close(fd)
            fd = yield from ctx.open("/tmp/big", "r")
            out["data"] = yield from ctx.read(fd, len(payload))

        run_program(kernel, 0, prog)
        assert out["data"] == payload

    def test_unlink_then_open_fails(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/gone", "w", create=True)
            yield from ctx.close(fd)
            yield from ctx.unlink("/tmp/gone")
            try:
                yield from ctx.open("/tmp/gone", "r")
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(kernel, 0, prog)
        assert out["errno"] == "ENOENT"

    def test_generation_mismatch_gives_eio(self, kernel):
        """Stale descriptors after a discard see I/O errors."""
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/gen", "w", create=True)
            yield from ctx.write(fd, b"v1")
            fs = kernel.local_fs_for("/tmp/gen")
            fs.bump_generation(fs.lookup("/tmp/gen"))
            try:
                yield from ctx.write(fd, b"v2")
            except StaleGenerationError as exc:
                out["errno"] = exc.errno

        run_program(kernel, 0, prog)
        assert out["errno"] == "EIO"


class TestStandaloneRemoteOps:
    """A kernel that is not a Hive cell has no intercell path: each
    operation on another kernel's process or file fails with its errno.
    (``SharingMixin`` overrides these seven hooks with RPCs.)"""

    @pytest.fixture
    def half(self):
        # one kernel owning node 0 of a two-node machine; /far is node 1's
        sim = Simulator()
        machine = Machine(sim, MachineConfig(
            params=HardwareParams(num_nodes=2), firewall_enabled=False))
        namespace = GlobalNamespace(2)
        namespace.mount("/far", 1)
        return LocalKernel(sim, machine, 0, [0], namespace)

    @pytest.mark.parametrize("op, errno", [
        (lambda ctx, fd: ctx.spawn(lambda c: iter(()), target_cell=1),
         "EINVAL"),
        (lambda ctx, fd: ctx.signal(4242, 9), "ESRCH"),
        (lambda ctx, fd: ctx.open("/far/f", "r"), "ENODEV"),
        (lambda ctx, fd: ctx.unlink("/far/f"), "ENODEV"),
        (lambda ctx, fd: ctx.map_file("/far/f"), "ENODEV"),
        (lambda ctx, fd: ctx.read(fd, 8), "ESTALE"),
        (lambda ctx, fd: ctx.write(fd, b"x"), "ESTALE"),
    ])
    def test_remote_op_fails(self, half, op, errno):
        out = {}

        def prog(ctx):
            fd = ctx.process.install_fd(fs_id=99, ino=1, data_home=1,
                                        mode="rw", generation=0)
            try:
                yield from op(ctx, fd.fd)
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(half, 0, prog)
        assert out["errno"] == errno


class TestProcessSyscalls:
    def test_spawn_and_wait(self, kernel):
        out = {}

        def child(ctx):
            yield from ctx.compute(1000)
            out["child_ran"] = True

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid")
            out["status"] = yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        assert out["child_ran"]
        assert out["status"] == 0

    def test_explicit_exit_status_minus_one_semantics(self, kernel):
        out = {}

        def child(ctx):
            yield from ctx.exit(3)

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid")
            out["status"] = yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        # exit() tears the thread down via ProcessKilled: nonzero status.
        assert out["status"] != 0

    def test_wait_unknown_pid_echild(self, kernel):
        out = {}

        def prog(ctx):
            try:
                yield from ctx.waitpid(424242)
            except FileError as exc:
                out["errno"] = exc.errno

        run_program(kernel, 0, prog)
        assert out["errno"] == "ECHILD"

    def test_signal_kill(self, kernel):
        out = {"child_done": False}

        def child(ctx):
            yield from ctx.compute(10_000_000_000)
            out["child_done"] = True

        def parent(ctx):
            pid = yield from ctx.spawn(child, "victim")
            yield from ctx.compute(1_000_000)
            yield from ctx.signal(pid, 9)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        assert not out["child_done"]
        assert out["status"] == -1

    def test_exit_releases_resources(self, kernel):
        before_heap = kernel.heap.live_objects
        before_free = kernel.pfdats.free_count

        def child(ctx):
            region = yield from ctx.map_anon(8)
            for i in range(8):
                yield from ctx.touch(region, i, write=True)

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid")
            yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        assert kernel.pfdats.free_count == before_free
        assert kernel.heap.live_objects <= before_heap + 2

    def test_cpu_contention_round_robin(self, kernel):
        """More runnable threads than CPUs still all make progress."""
        out = {}

        def worker(i):
            def prog(ctx):
                yield from ctx.compute(30_000_000)
                out[i] = ctx.sim.now
            return prog

        def parent(ctx):
            pids = []
            for i in range(8):  # 8 jobs on 4 CPUs
                pids.append((yield from ctx.spawn(worker(i), f"w{i}")))
            for pid in pids:
                yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        assert len(out) == 8


class TestVmSyscalls:
    def test_anon_zero_fill(self, kernel):
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(4)
            pte = yield from ctx.touch(region, 0, write=True)
            out["frame_zero"] = kernel.machine.memory.read_bytes(
                pte.frame, 0, 4)

        run_program(kernel, 0, prog)
        assert out["frame_zero"] == b"\x00\x00\x00\x00"

    def test_touch_out_of_region_faults(self, kernel):
        out = {}

        def prog(ctx):
            region = yield from ctx.map_anon(2)
            try:
                yield from ctx.touch(region, 5)
            except BadAddressError:
                out["segv"] = True

        run_program(kernel, 0, prog)
        assert out["segv"]

    def test_write_to_readonly_region_faults(self, kernel):
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/m", "w", create=True)
            yield from ctx.write(fd, b"x" * PAGE)
            yield from ctx.close(fd)
            region = yield from ctx.map_file("/tmp/m", writable=False)
            try:
                yield from ctx.touch(region, 0, write=True)
            except BadAddressError:
                out["denied"] = True

        run_program(kernel, 0, prog)
        assert out["denied"]

    def test_mapped_file_page_cache_shared(self, kernel):
        """Two mappings of the same file see one physical page."""
        out = {}

        def prog(ctx):
            fd = yield from ctx.open("/tmp/shared", "w", create=True)
            yield from ctx.write(fd, b"z" * PAGE)
            yield from ctx.close(fd)
            r1 = yield from ctx.map_file("/tmp/shared")
            r2 = yield from ctx.map_file("/tmp/shared")
            pte1 = yield from ctx.touch(r1, 0)
            pte2 = yield from ctx.touch(r2, 0)
            out["same_frame"] = pte1.frame == pte2.frame

        run_program(kernel, 0, prog)
        assert out["same_frame"]

    def test_fork_cow_sharing_and_privacy(self, kernel):
        out = {}

        def child(ctx):
            region = ctx.process.aspace.regions[0]
            pte = yield from ctx.touch(region, 0)  # read pre-fork page
            out["child_sees"] = kernel.machine.memory.read_bytes(
                pte.frame, 0, 3)
            # Child's write must not affect the parent.
            yield from ctx.touch(region, 0, write=True)
            pte2 = ctx.process.aspace.lookup_pte(kernel.kernel_id,
                                                 region.start_vpn)
            out["child_frame_after_write"] = pte2.frame

        def parent(ctx):
            region = yield from ctx.map_anon(2)
            pte = yield from ctx.touch(region, 0, write=True)
            kernel.machine.memory.write_bytes(pte.frame, 0, b"abc",
                                              cpu=ctx.cpu)
            out["parent_frame"] = pte.frame
            pid = yield from ctx.spawn(child, "kid")
            yield from ctx.waitpid(pid)

        run_program(kernel, 0, parent)
        assert out["child_sees"] == b"abc"
        assert out["child_frame_after_write"] != out["parent_frame"]

    def test_page_cache_eviction_writes_back(self, kernel):
        """Filling memory evicts clean pages and writes dirty ones back."""
        out = {}
        small = boot_irix(Simulator(), machine_config=MachineConfig(
            params=HardwareParams(num_nodes=1,
                                  memory_per_node=8 * 1024 * 1024)))
        small.namespace.mount("/tmp", 0)

        def prog(ctx):
            fd = yield from ctx.open("/tmp/big", "w", create=True)
            # Write more than paged memory (8 MB node, 4 MB reserved).
            chunk = b"y" * (256 * 1024)
            for _ in range(8):
                yield from ctx.write(fd, chunk)
            region = yield from ctx.map_anon(700)
            for i in range(700):
                yield from ctx.touch(region, i, write=True)
            out["ok"] = True

        run_program(small, 0, prog, deadline_ns=400_000_000_000)
        assert out["ok"]
        fs = small.filesystems[0]
        assert fs.disk_writes > 0  # dirty pages went to the platter


class TestCorruptCowLeafPointer:
    """A kernel bug that corrupts the COW leaf pointer of an address
    map (Table 7.4's ``sw_address_map``) is noticed by whichever path
    consumes the pointer next: local fork and exit, not only the
    anonymous fault."""

    @staticmethod
    def _corrupt(ctx, region):
        # KernelFaultInjector.corrupt_address_map in self_pointer mode
        region.cow_leaf_addr = ctx.process.cow_leaf_addr = region.kaddr

    def test_local_fork_panics_the_cell(self, kernel):
        def child(ctx):
            yield from ctx.compute(1000)

        def prog(ctx):
            region = yield from ctx.map_anon(2)
            self._corrupt(ctx, region)
            yield from ctx.spawn(child, "kid")

        run_program(kernel, 0, prog)
        assert not kernel.alive
        assert "corrupt COW leaf pointer" in kernel.panic_reason
        assert kernel.panic_reason.endswith("at fork")

    def test_exit_panics_the_cell(self, kernel):
        def prog(ctx):
            region = yield from ctx.map_anon(2)
            self._corrupt(ctx, region)

        run_program(kernel, 0, prog)
        assert not kernel.alive
        assert "corrupt COW leaf pointer" in kernel.panic_reason
        assert kernel.panic_reason.endswith("at exit")

    def test_zero_leaf_pointer_exits_quietly(self, kernel):
        def prog(ctx):
            ctx.process.cow_leaf_addr = 0
            yield from ctx.compute(1000)

        run_program(kernel, 0, prog)
        assert kernel.alive
