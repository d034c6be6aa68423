"""raytrace: graphics rendering (Table 7.1 — "rendering a teapot; 6
antialias rays per pixel"; from the Splash-2 suite).

Structural properties the paper's results depend on:

* a parent process *builds the scene* (teapot geometry + acceleration
  grid) in its anonymous memory, then forks workers across the machine —
  on Hive this exercises the cross-cell fork path and the distributed
  copy-on-write tree of Section 5.3: each worker's anonymous faults
  search up through the parent's (possibly remote) COW nodes with the
  careful reference protocol, then import the scene pages;
* the scene is read-mostly, so workers import read-only — almost no
  remotely-writable pages, and a multicell slowdown of ~0-1 %;
* each worker renders a band of the image (pure compute) and writes its
  band to an output file.

This is also the workload the paper injected COW-tree corruption under,
because workers traverse the victim cell's tree nodes remotely.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.params import NS_PER_MS
from repro.unix.fs import PAGE
from repro.workloads.base import Platform, WorkloadResult, pattern_bytes

#: teapot geometry + uniform grid: ~3 MB of scene data
SCENE_PAGES = 768
#: image bands (one worker per band; bands round-robin over cells)
NUM_WORKERS = 4
#: fraction of the scene each worker actually reads (spatial locality)
SCENE_SAMPLE_STEP = 2
#: render compute per worker: 4 workers at ~1.0 s each ≈ the paper's
#: 4.35 s wall time once scene build + fault time is added.
COMPUTE_PER_WORKER_NS = 4_150 * NS_PER_MS
SCENE_BUILD_COMPUTE_NS = 150 * NS_PER_MS
OUTPUT_PAGES = 6

OUT_DIR = "/results"


class RaytraceWorkload:
    """The raytrace fork-based workload."""

    name = "raytrace"

    def __init__(self, num_workers: int = NUM_WORKERS,
                 scene_pages: int = SCENE_PAGES,
                 compute_per_worker_ns: int = COMPUTE_PER_WORKER_NS):
        self.num_workers = num_workers
        self.scene_pages = scene_pages
        self.compute_per_worker_ns = compute_per_worker_ns
        self.expected_outputs: Dict[str, bytes] = {}

    def out_path(self, band: int) -> str:
        return f"{OUT_DIR}/band{band}.ppm"

    def worker_program(self, band: int, results: dict):
        workload = self

        def worker(ctx):
            # The scene region was inherited from the parent at fork; its
            # pages resolve through the (cross-cell) COW search.  Rays
            # wander into new grid voxels as rendering progresses, so the
            # scene is faulted lazily in chunks *between* long compute
            # stretches — which is why the paper's COW-tree corruption
            # took hundreds of milliseconds to be traversed and detected.
            scene = next(r for r in ctx.process.aspace.regions
                         if r.kind == "anon" and r.npages ==
                         workload.scene_pages)
            pages = list(range(band % SCENE_SAMPLE_STEP, scene.npages,
                               SCENE_SAMPLE_STEP))
            nchunks = 6
            per_chunk = max(1, len(pages) // nchunks)
            compute_slice = workload.compute_per_worker_ns // nchunks
            for i in range(0, len(pages), per_chunk):
                yield from ctx.compute(compute_slice)
                for p in pages[i:i + per_chunk]:
                    yield from ctx.touch(scene, p)
            leftover = workload.compute_per_worker_ns - compute_slice * (
                (len(pages) + per_chunk - 1) // per_chunk)
            if leftover > 0:
                yield from ctx.compute(leftover)
            path = workload.out_path(band)
            data = pattern_bytes(path, OUTPUT_PAGES * PAGE)
            fd = yield from ctx.open(path, "w", create=True)
            yield from ctx.write(fd, data)
            yield from ctx.close(fd)
            workload.expected_outputs[path] = data
            results[band] = ctx.sim.now
        return worker

    def parent_program(self, platform: Platform, results: dict,
                       box: dict):
        workload = self

        def parent(ctx):
            # Build the scene in anonymous memory (recorded at this
            # process's COW leaf, which becomes the interior node every
            # worker searches up to after the forks split it).
            scene = yield from ctx.map_anon(workload.scene_pages)
            for p in range(scene.npages):
                yield from ctx.touch(scene, p, write=True)
            yield from ctx.compute(SCENE_BUILD_COMPUTE_NS)
            from repro.unix.errors import FileError, RpcTimeout

            pids = []
            for band in range(workload.num_workers):
                target = None
                if platform.is_hive and platform.num_placements > 1:
                    target = platform.kernel_for(band).kernel_id
                    if target == ctx.kernel.kernel_id:
                        target = None
                try:
                    pid = yield from ctx.spawn(
                        workload.worker_program(band, results),
                        name=f"ray{band}", target_cell=target)
                except (FileError, RpcTimeout):
                    pid = yield from ctx.spawn(
                        workload.worker_program(band, results),
                        name=f"ray{band}")
                pids.append(pid)
            failed = 0
            for pid in pids:
                status = yield from ctx.waitpid(pid)
                if status != 0:
                    failed += 1
            box["failed"] = failed
            box["finished_ns"] = ctx.sim.now
        return parent

    def run(self, platform: Platform,
            deadline_ns: int = 600_000_000_000) -> WorkloadResult:
        start = platform.sim.now
        results: dict = {}
        box: dict = {}
        _proc, thread = platform.spawn_init(
            0, self.parent_program(platform, results, box), "raytrace")
        if platform.run_driver(thread, start + deadline_ns, box, "raytrace"):
            box["failed"] = self.num_workers - len(results)
        result = WorkloadResult(
            name=self.name, started_ns=start,
            finished_ns=box["finished_ns"],
            jobs_completed=len(results), jobs_failed=box["failed"])
        for path, expected in self.expected_outputs.items():
            result.output_errors.extend(platform.verify_file(path, expected))
        return result
