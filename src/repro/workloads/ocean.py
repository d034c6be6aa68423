"""ocean: grid-based scientific simulation (Table 7.1 — "130 by 130
grid, 900 second interval"; taken from the Splash-2 suite in the paper).

The structural properties the paper's results depend on:

* it runs as one parallel process with a thread per processor — on Hive,
  a *spanning task* with a component process per cell;
* its data segment (several grids of 130x130 doubles plus multigrid
  scratch levels) is mapped writable by every thread, so under the
  firewall management policy essentially every remotely-touched page of
  it becomes remotely writable: the paper sampled ~550 such pages per
  cell on a four-cell system;
* execution is dominated by user-mode compute over the grid with
  nearest-neighbour boundary exchange each iteration, so the multicell
  slowdown is ~0-1 % (Table 7.2);
* after a short initialization phase that touches every page, each
  iteration reads boundary rows of neighbouring partitions and writes its
  own partition.

Sizing: the shared segment is ~2,200 pages; each of four components
first-touches ~550 pages of its partition, and every partition page is
eventually imported writable by a neighbour (the write-shared segment),
matching the ~550 remotely-writable pages per cell.
"""

from __future__ import annotations

from repro.hardware.params import NS_PER_MS
from repro.workloads.base import Platform, WorkloadResult

#: shared data segment: the u/v/p/q grids plus the multigrid scratch
#: hierarchy (~11.7 MB = 2,932 pages).  Sized so that, with interleaved
#: page placement and contiguous per-thread partitions, each cell ends up
#: exporting ~550 pages writable — the paper's Section 4.2 measurement.
TOTAL_SHARED_PAGES = 2932
#: simulation iterations (timesteps of the 900-second interval)
ITERATIONS = 12
#: CPU time per thread per iteration, sized so the 4-thread run lands
#: near the paper's 6.07 s: 12 iterations x ~0.48 s + init ~0.3 s.
COMPUTE_PER_ITER_NS = 480 * NS_PER_MS
INIT_COMPUTE_NS = 300 * NS_PER_MS
#: boundary rows exchanged with each neighbour every iteration
BOUNDARY_PAGES = 24

SEGMENT_KEY = 1


class OceanWorkload:
    """The ocean spanning-task workload."""

    name = "ocean"

    def __init__(self, nthreads: int = 4,
                 shared_pages: int = TOTAL_SHARED_PAGES,
                 iterations: int = ITERATIONS,
                 compute_per_iter_ns: int = COMPUTE_PER_ITER_NS):
        self.nthreads = nthreads
        self.shared_pages = shared_pages
        self.iterations = iterations
        self.compute_per_iter_ns = compute_per_iter_ns

    def _partition(self, index: int, total: int) -> range:
        per = self.shared_pages // total
        start = index * per
        end = self.shared_pages if index == total - 1 else start + per
        return range(start, end)

    def thread_program(self, index: int, total: int, results: dict):
        workload = self

        def worker(ctx):
            region = next(r for r in ctx.process.aspace.regions
                          if getattr(r, "share_key", 0) == SEGMENT_KEY)
            # Parallel init: the grids are initialized with an interleaved
            # (stride) decomposition, so page data homes end up spread
            # round-robin over the cells — the usual SPLASH init pattern.
            for p in range(index, workload.shared_pages, total):
                yield from ctx.touch(region, p, write=True)
            yield from ctx.compute(INIT_COMPUTE_NS)
            # The solve phase uses a *contiguous* row-block partition, so
            # ~3/4 of each thread's working pages live on other cells and
            # are write-imported (the writable mapping makes the firewall
            # grant write access: Section 4.2's ~550 pages per cell).
            mine = workload._partition(index, total)
            left = workload._partition((index - 1) % total, total)
            right = workload._partition((index + 1) % total, total)
            for _it in range(workload.iterations):
                for p in list(left)[-BOUNDARY_PAGES:]:
                    yield from ctx.touch(region, p)
                for p in list(right)[:BOUNDARY_PAGES]:
                    yield from ctx.touch(region, p)
                # Relax my partition (first iteration imports the pages;
                # later ones are page-table hits).  The revisit stride is
                # coprime with the placement stride so the sampled writes
                # cover locally- and remotely-homed pages alike.
                step = 1 if _it == 0 else 7
                for p in list(mine)[::step]:
                    yield from ctx.touch(region, p, write=True)
                yield from ctx.compute(workload.compute_per_iter_ns)
            results[index] = ctx.sim.now
        return worker

    def run(self, platform: Platform,
            deadline_ns: int = 600_000_000_000) -> WorkloadResult:
        start = platform.sim.now
        results: dict = {}
        box: dict = {}
        workload = self

        if hasattr(platform.kernels[0], "spawn_spanning_task"):
            def master(ctx):
                cells = [k.kernel_id for k in platform.kernels]
                # round-robin components over the cells; with one cell
                # all components (threads) land there, as on an SMP
                placements = [cells[i % len(cells)]
                              for i in range(workload.nthreads)]
                task = yield from ctx.kernel.spawn_spanning_task(
                    ctx,
                    lambda i, n: workload.thread_program(i, n, results),
                    placements,
                    {SEGMENT_KEY: workload.shared_pages},
                    name="ocean")
                for pid in task.pids():
                    yield from ctx.waitpid(pid)
                box["finished_ns"] = ctx.sim.now
        else:
            def master(ctx):
                # IRIX baseline: threads of one process share its address
                # space; the data segment is a plain anonymous region and
                # all faults stay in the local COW path.
                region = yield from ctx.map_anon(workload.shared_pages)
                region.share_key = SEGMENT_KEY
                kernel = ctx.kernel
                threads = []
                for i in range(workload.nthreads):
                    threads.append(kernel.start_thread(
                        ctx.process,
                        workload.thread_program(i, workload.nthreads,
                                                results),
                        name=f"ocean.t{i}"))
                events = [t.sim_process for t in threads]

                def join():
                    got = yield ctx.sim.all_of(events)
                    return got

                yield from ctx.block(join())
                box["finished_ns"] = ctx.sim.now

        _proc, thread = platform.spawn_init(0, master, "ocean-master")
        platform.run_driver(thread, start + deadline_ns, box, "ocean")
        return WorkloadResult(
            name=self.name, started_ns=start, finished_ns=box["finished_ns"],
            jobs_completed=len(results),
            jobs_failed=self.nthreads - len(results))
