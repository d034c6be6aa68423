"""pmake: parallel compilation (Table 7.1 — "11 files of GnuChess 3.1,
four at a time").

The model reproduces the structure the paper's measurements depend on:

* a make driver forks compile jobs, at most four concurrently, spreading
  them over the machine (over the cells, on Hive);
* every compile maps a read-shared header set and its own source file,
  touching their pages (these are the page-cache-hit faults: ~8,935 over
  the run, of which ~4,946 go remote on four cells);
* every compile writes an intermediate file under ``/tmp`` — served by a
  single cell, which therefore shows the peak count of remotely-writable
  pages (Section 4.2: average ~15 per cell, max 42 on the /tmp server) —
  then an object file next to its source;
* each compile burns CPU between I/O phases (compilation is mostly
  compute); total CPU demand is sized so four processors finish in about
  the paper's 5.77 s.

The file cache is warmed before the timed run, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hardware.params import NS_PER_MS
from repro.unix.errors import FileError, RpcTimeout
from repro.unix.fs import PAGE
from repro.unix.pfdat import NoFreeFrames
from repro.workloads.base import Platform, WorkloadResult, pattern_bytes

#: compile jobs (source files) and concurrency from Table 7.1
NUM_FILES = 11
CONCURRENCY = 4

HEADER_PATH = "/usr/include/chess.h"
HEADER_PAGES = 120          # a chunky shared header set (~0.5 MB)
#: the compiler itself: cpp/cc1/as text pages, demand-paged read-only by
#: every job (the biggest source of shared page-cache faults).
CC_BINARY_PATH = "/usr/lib/cc1"
CC_BINARY_PAGES = 300
#: system include files each compile opens and reads individually — the
#: long syscall tail of a real cpp run.
INCLUDE_COUNT = 120
INCLUDE_PAGES = 1
SOURCE_PAGES = 28           # ~112 KB per source file
TMP_PAGES = 8               # intermediate file per compile
OBJ_PAGES = 10              # output object file
#: per-job page touches of its private anonymous working set (parser
#: heaps etc.); always local.
ANON_PAGES = 260
#: CPU time per compile job: 11 jobs over 4 CPUs, sized so the IRIX
#: baseline (with all the kernel time above) lands near 5.77 s.
COMPUTE_PER_JOB_NS = 1_835 * NS_PER_MS
#: compute is interleaved with faults in phases
PHASES = 8


class PmakeWorkload:
    """The parallel-make workload."""

    name = "pmake"

    def __init__(self, src_dir: str = "/usr/src", tmp_dir: str = "/tmp",
                 num_files: int = NUM_FILES,
                 concurrency: int = CONCURRENCY,
                 compute_per_job_ns: int = COMPUTE_PER_JOB_NS):
        self.src_dir = src_dir
        self.tmp_dir = tmp_dir
        self.num_files = num_files
        self.concurrency = concurrency
        self.compute_per_job_ns = compute_per_job_ns
        self.expected_outputs: Dict[str, bytes] = {}

    # -- file layout ------------------------------------------------------

    def source_path(self, i: int) -> str:
        return f"{self.src_dir}/gnuchess{i}.c"

    @staticmethod
    def include_path(i: int) -> str:
        return f"/usr/include/sys/h{i}.h"

    def obj_path(self, i: int) -> str:
        return f"{self.src_dir}/gnuchess{i}.o"

    def tmp_path(self, i: int) -> str:
        return f"{self.tmp_dir}/cc.{i}.s"

    # -- setup phase (untimed): create sources + warm the cache -------------

    def setup_program(self, platform: Platform):
        workload = self

        def setup(ctx):
            for path, npages in (
                    [(HEADER_PATH, HEADER_PAGES),
                     (CC_BINARY_PATH, CC_BINARY_PAGES)]
                    + [(workload.include_path(i), INCLUDE_PAGES)
                       for i in range(INCLUDE_COUNT)]
                    + [(workload.source_path(i), SOURCE_PAGES)
                       for i in range(workload.num_files)]):
                fd = yield from ctx.open(path, "w", create=True)
                yield from ctx.write(fd, pattern_bytes(path, npages * PAGE))
                yield from ctx.close(fd)
        return setup

    def warm_cache(self, platform: Platform) -> None:
        """Pull sources/headers into their home kernels' page caches."""
        procs = []
        for kernel in platform.live_kernels():
            paths = ([HEADER_PATH, CC_BINARY_PATH]
                     + [self.include_path(i) for i in range(INCLUDE_COUNT)]
                     + [self.source_path(i)
                        for i in range(self.num_files)])
            local = [p for p in paths if kernel.local_fs_for(p) is not None]

            def warmer(kern, targets):
                def run():
                    try:
                        for path in targets:
                            yield from kern.warm_file(path)
                    except (FileError, NoFreeFrames):
                        return  # setup failed or memory is full
                return run()

            if local:
                procs.append(platform.sim.process(warmer(kernel, local),
                                                  name="warm"))
        if procs:
            platform.sim.run_until_event(
                platform.sim.all_of(procs),
                deadline=platform.sim.now + 60_000_000_000)

    # -- one compile job ----------------------------------------------------------

    def compile_program(self, index: int, results: dict):
        workload = self

        def compile_job(ctx):
            phase_compute = workload.compute_per_job_ns // PHASES
            # Demand-page the compiler text, map the shared headers
            # (read-only) and this job's source.
            cc = yield from ctx.map_file(CC_BINARY_PATH, writable=False)
            hdr = yield from ctx.map_file(HEADER_PATH, writable=False)
            src = yield from ctx.map_file(workload.source_path(index),
                                          writable=False)
            scratch = yield from ctx.map_anon(ANON_PAGES)
            # The intermediate (.s) and object files stay open for the
            # whole compile and are emitted progressively — so their
            # pages' firewall write grants persist across the job, which
            # is what the Section 4.2 page-count sampling observes.
            tmp_path = workload.tmp_path(index)
            tmp_data = pattern_bytes(tmp_path, TMP_PAGES * PAGE)
            tmp_fd = yield from ctx.open(tmp_path, "w", create=True)
            obj_path = workload.obj_path(index)
            obj_data = pattern_bytes(obj_path, OBJ_PAGES * PAGE)
            obj_fd = yield from ctx.open(obj_path, "w", create=True)
            # The cpp pass: open and read every system include.  Each
            # include is first probed in the (empty) local search
            # directory — a failed open that still pays full path lookup
            # — before the hit in /usr/include/sys, like a real -I path.
            inc_per_phase = max(1, INCLUDE_COUNT // PHASES)
            cc_step = max(1, CC_BINARY_PAGES // PHASES)
            hdr_step = max(1, HEADER_PAGES // PHASES)
            src_step = max(1, SOURCE_PAGES // PHASES)
            anon_step = max(1, ANON_PAGES // PHASES)
            for phase in range(PHASES):
                for i in range(phase * inc_per_phase,
                               min((phase + 1) * inc_per_phase,
                                   INCLUDE_COUNT)):
                    try:
                        yield from ctx.open(
                            f"/usr/src/local-inc/h{i}.h", "r")
                    except FileError:
                        pass  # search-path miss
                    fd = yield from ctx.open(workload.include_path(i), "r")
                    yield from ctx.read(fd, INCLUDE_PAGES * PAGE)
                    yield from ctx.close(fd)
                for p in range(phase * cc_step,
                               min((phase + 1) * cc_step, cc.npages)):
                    yield from ctx.touch(cc, p)
                for p in range(phase * hdr_step,
                               min((phase + 1) * hdr_step, hdr.npages)):
                    yield from ctx.touch(hdr, p)
                for p in range(phase * src_step,
                               min((phase + 1) * src_step, src.npages)):
                    yield from ctx.touch(src, p)
                # Emit this phase's slice of the .s and .o files.
                lo = phase * TMP_PAGES * PAGE // PHASES
                hi = (phase + 1) * TMP_PAGES * PAGE // PHASES
                if hi > lo:
                    yield from ctx.write(tmp_fd, tmp_data[lo:hi])
                lo = phase * OBJ_PAGES * PAGE // PHASES
                hi = (phase + 1) * OBJ_PAGES * PAGE // PHASES
                if hi > lo:
                    yield from ctx.write(obj_fd, obj_data[lo:hi])
                # Anonymous working-set growth is spread through the
                # compute (a compiler allocates continuously), so anon
                # faults occur every few milliseconds of CPU time — the
                # rate the Table 7.4 address-map detection latency
                # depends on.
                anon_pages = list(range(phase * anon_step,
                                        min((phase + 1) * anon_step,
                                            ANON_PAGES)))
                nchunks = 24
                chunk = max(1, len(anon_pages) // nchunks)
                slice_ns = phase_compute // max(
                    1, (len(anon_pages) + chunk - 1) // chunk)
                for i in range(0, len(anon_pages), chunk):
                    for p in anon_pages[i:i + chunk]:
                        yield from ctx.touch(scratch, p, write=True)
                    yield from ctx.compute(slice_ns)
            yield from ctx.close(obj_fd)
            yield from ctx.close(tmp_fd)
            # Re-read the intermediate (the assembler pass), then drop it.
            fd = yield from ctx.open(tmp_path, "r")
            yield from ctx.read(fd, TMP_PAGES * PAGE)
            yield from ctx.close(fd)
            yield from ctx.unlink(tmp_path)
            workload.expected_outputs[obj_path] = obj_data
            results[index] = ctx.sim.now
        return compile_job

    # -- the driver --------------------------------------------------------------

    def driver_program(self, platform: Platform, result_box: dict):
        workload = self

        def driver(ctx):
            results: dict = {}
            running: List[int] = []
            next_job = 0
            while (result_box["completed"] + result_box["failed"]
                   < workload.num_files):
                while (len(running) < workload.concurrency
                       and next_job < workload.num_files):
                    target = None
                    if platform.is_hive and platform.num_placements > 1:
                        target = platform.kernel_for(next_job).kernel_id
                        if target == ctx.kernel.kernel_id:
                            target = None
                    try:
                        pid = yield from ctx.spawn(
                            workload.compile_program(next_job, results),
                            name=f"cc{next_job}", target_cell=target)
                    except (FileError, RpcTimeout):
                        # Target cell failed mid-spawn: rerun locally
                        # (make retries the lost job).
                        pid = yield from ctx.spawn(
                            workload.compile_program(next_job, results),
                            name=f"cc{next_job}")
                    running.append(pid)
                    next_job += 1
                pid = running.pop(0)
                status = yield from ctx.waitpid(pid)
                result_box["completed" if status == 0 else "failed"] += 1
            result_box["finished_ns"] = ctx.sim.now
        return driver

    # -- full run -------------------------------------------------------------------

    def run(self, platform: Platform,
            deadline_ns: int = 600_000_000_000) -> WorkloadResult:
        """Set up, warm the cache, run timed, verify outputs."""
        sim = platform.sim
        _proc, thread = platform.spawn_init(
            0, self.setup_program(platform), "pmake-setup")
        sim.run_until_event(thread.sim_process,
                            deadline=sim.now + 120_000_000_000)
        if thread.sim_process.is_alive:
            raise TimeoutError("pmake setup did not finish")
        self.warm_cache(platform)

        start = sim.now
        box = {"completed": 0, "failed": 0}
        _proc, driver_thread = platform.spawn_init(
            0, self.driver_program(platform, box), "pmake-driver")
        if platform.run_driver(driver_thread, start + deadline_ns, box,
                               "pmake driver"):
            box["failed"] = self.num_files - box["completed"]
        result = WorkloadResult(
            name=self.name, started_ns=start, finished_ns=box["finished_ns"],
            jobs_completed=box["completed"], jobs_failed=box["failed"])
        for path, expected in self.expected_outputs.items():
            result.output_errors.extend(platform.verify_file(path, expected))
        return result
