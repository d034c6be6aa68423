"""Configurable multiprogrammed workload generator.

The paper targets "compute server workloads where there are multiple
independent processes, the predominant situation today".  This generator
produces such a mix on demand: each job interleaves compute bursts with a
configurable blend of file creation/read/write (local and cross-cell),
anonymous memory growth, forks, and signals — useful for soak tests,
custom experiments, and as a template for downstream users' workloads.

All randomness comes from named streams keyed by the job id, so a given
``SyntheticWorkload`` configuration replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.rng import RandomStreams
from repro.unix.errors import FileError, RpcTimeout
from repro.unix.fs import PAGE
from repro.workloads.base import Platform, WorkloadResult, pattern_bytes


@dataclass
class SyntheticConfig:
    """Knobs for the generated mix."""

    jobs: int = 8
    rounds_per_job: int = 10
    compute_per_round_ns: int = 20_000_000
    #: probability weights per round (normalized internally)
    w_file_write: float = 0.35
    w_file_read: float = 0.25
    w_anon_touch: float = 0.25
    w_fork_child: float = 0.10
    w_noop: float = 0.05
    file_pages: int = 2
    anon_pages_per_touch: int = 4
    #: directory each job writes under; round-robin over these spreads
    #: traffic across serving cells
    directories: List[str] = field(default_factory=lambda: [
        "/synth/a", "/synth/b", "/synth/c"])
    seed: int = 424242


class SyntheticWorkload:
    """Generate-and-run a reproducible multiprogrammed mix."""

    name = "synthetic"

    def __init__(self, config: Optional[SyntheticConfig] = None):
        self.config = config or SyntheticConfig()
        self.rng = RandomStreams(self.config.seed)
        self.expected_outputs: Dict[str, bytes] = {}
        self.ops_run: Dict[str, int] = {}

    def _count(self, op: str) -> None:
        self.ops_run[op] = self.ops_run.get(op, 0) + 1

    def _pick_op(self, job: int, round_: int) -> str:
        cfg = self.config
        weights = [("file_write", cfg.w_file_write),
                   ("file_read", cfg.w_file_read),
                   ("anon_touch", cfg.w_anon_touch),
                   ("fork_child", cfg.w_fork_child),
                   ("noop", cfg.w_noop)]
        total = sum(w for _, w in weights)
        roll = self.rng.uniform(f"op.{job}", 0, total)
        acc = 0.0
        for op, w in weights:
            acc += w
            if roll <= acc:
                return op
        return "noop"

    def job_program(self, job: int, results: dict):
        workload = self
        cfg = self.config

        def child(ctx):
            yield from ctx.compute(cfg.compute_per_round_ns // 2)

        def prog(ctx):
            anon = yield from ctx.map_anon(
                cfg.rounds_per_job * cfg.anon_pages_per_touch + 1)
            anon_next = 0
            written: List[str] = []
            for round_ in range(cfg.rounds_per_job):
                op = workload._pick_op(job, round_)
                try:
                    if op == "file_write":
                        directory = cfg.directories[
                            (job + round_) % len(cfg.directories)]
                        path = f"{directory}/j{job}_r{round_}"
                        data = pattern_bytes(path, cfg.file_pages * PAGE)
                        fd = yield from ctx.open(path, "w", create=True)
                        yield from ctx.write(fd, data)
                        yield from ctx.close(fd)
                        workload.expected_outputs[path] = data
                        written.append(path)
                    elif op == "file_read" and written:
                        path = written[round_ % len(written)]
                        fd = yield from ctx.open(path, "r")
                        yield from ctx.read(fd, cfg.file_pages * PAGE)
                        yield from ctx.close(fd)
                    elif op == "anon_touch":
                        # A run of fresh pages: each first touch
                        # takes the page-fault path.
                        yield from ctx.touch_many(
                            anon, anon_next, cfg.anon_pages_per_touch,
                            write=True)
                        anon_next += cfg.anon_pages_per_touch
                    elif op == "fork_child":
                        pid = yield from ctx.spawn(child,
                                                   f"synth{job}.c{round_}")
                        yield from ctx.waitpid(pid)
                    workload._count(op)
                except (FileError, RpcTimeout):
                    # A serving cell died: the job presses on, like the
                    # independent processes the paper's workloads model.
                    workload._count("io_error")
                yield from ctx.compute(cfg.compute_per_round_ns)
            results[job] = ctx.sim.now

        return prog

    def run(self, platform: Platform,
            deadline_ns: int = 600_000_000_000) -> WorkloadResult:
        sim = platform.sim
        start = sim.now
        results: dict = {}
        threads = []
        for job in range(self.config.jobs):
            _proc, thread = platform.spawn_init(
                job, self.job_program(job, results), f"synth{job}")
            threads.append(thread.sim_process)
        sim.run_until_event(sim.all_of(threads),
                            deadline=start + deadline_ns)
        finished = [p for p in threads if p.triggered]
        result = WorkloadResult(
            name=self.name, started_ns=start, finished_ns=sim.now,
            jobs_completed=len(results),
            jobs_failed=self.config.jobs - len(results))
        for path, expected in self.expected_outputs.items():
            errors = platform.verify_file(path, expected)
            result.output_errors.extend(
                e for e in errors if "unavailable" not in e)
        return result
