"""Layer probes: closed loops over one layer's public functions.

Imported only inside a worker process.  A probe sets its layer up once
and returns a ``loop`` function; ``loop()`` does a fixed amount of work
and returns the figure (operations per host second, or seconds).  The
figure reported is the best of ``LOOPS`` loops, each sized to take at
least 0.15 s on a 2-core host, so a probe costs about half a second and
the whole set fits in a traced run.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

import numpy as np

from repro.bench.faultexp import boot_faultexp_system
from repro.bench.rpcbench import run_rpc_bench
from repro.bench.throughput import boot_bench_system
from repro.obs import attach_flight_recorder
from repro.sim.engine import Simulator
from repro.sim.snapshot import SystemImage
from repro.sim.stats import Histogram
from repro.workloads import Platform, PmakeWorkload
from repro.workloads.micro import (boot_two_cell,
                                   measure_careful_reference,
                                   measure_page_fault)
from repro.workloads.sessions import (SESSION_LATENCY_BOUNDS_NS,
                                      SessionTrafficConfig, generate_chunk)

LOOPS = 3

Loop = Callable[[], float]


def _rate(count: int, fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return count / (time.perf_counter() - started)


def engine_timeout() -> Loop:
    """Generator processes sleeping on ``sim.timeout``: what the paper
    applications' long-lived processes do."""
    count = 120_000

    def loop() -> float:
        sim = Simulator()

        def sleeper(n):
            for _ in range(n):
                yield sim.timeout(7)

        for _ in range(8):
            sim.process(sleeper(count // 8))
        return _rate(count, sim.run)
    return loop


def engine_schedule() -> Loop:
    """Bare callbacks through ``sim.schedule``, delays spread over the
    timer wheel: what the dense driver wakeups do."""
    count = 90_000

    def nothing() -> None:
        return None

    def loop() -> float:
        sim = Simulator()

        def work() -> None:
            for i in range(count):
                sim.schedule((i * 7919) % 100_000, nothing)
            sim.run()
        return _rate(count, work)
    return loop


def _own_lines(system, frames: int):
    """Cache-line addresses in frames cell 0 owns, and one of its CPUs."""
    cell = system.registry.cell_object(0)
    params = system.machine.params
    per_page = params.page_size // params.cache_line_size
    lines = [cell.pfdats.alloc_frame().frame * per_page + (5 * k) % per_page
             for k in range(frames)]
    return lines, cell.cpu_ids[0]


def coherence_scalar() -> Loop:
    system = boot_bench_system("small")
    coherence = system.machine.coherence
    lines, cpu = _own_lines(system, 64)
    size = system.machine.params.cache_line_size
    addrs = [line * size for line in lines]
    count = 900_000

    def work() -> None:
        read, write = coherence.read, coherence.write
        for i in range(count // len(addrs)):
            for addr in addrs:
                (write if i & 1 else read)(cpu, addr)
    return lambda: _rate(count // len(addrs) * len(addrs), work)


def coherence_batch() -> Loop:
    system = boot_bench_system("small")
    coherence = system.machine.coherence
    lines, cpu = _own_lines(system, 16)
    batch = coherence.prepare_batch(lines, [k & 1 for k in range(16)])
    count = 700_000

    def work() -> None:
        issue = coherence.access_prepared
        for _ in range(count):
            issue(cpu, batch)
    return lambda: _rate(count * 16, work)


def firewall_checks() -> Loop:
    system = boot_bench_system("small")
    cell = system.registry.cell_object(0)
    frame = cell.pfdats.alloc_frame().frame
    firewall = system.machine.memory.firewall_for_frame(frame)
    cpu = cell.cpu_ids[0]
    count = 700_000

    def work() -> None:
        check = firewall.check_write
        for _ in range(count):
            check(frame, cpu)
    return lambda: _rate(count, work)


def rpc_round_trips() -> Loop:
    def loop() -> float:
        row = run_rpc_bench("large")
        return row["round_trips"] / row["wall_s"]
    return loop


def page_faults(remote: bool) -> Loop:
    count = 2048 if remote else 16384

    def loop() -> float:
        system = boot_two_cell()
        return _rate(count, lambda: measure_page_fault(system, remote,
                                                       nfaults=count))
    return loop


def careful_refs() -> Loop:
    count = 24576

    def loop() -> float:
        system = boot_two_cell()
        return _rate(count, lambda: measure_careful_reference(
            system, iterations=count))
    return loop


def session_generator() -> Loop:
    cfg = SessionTrafficConfig()
    count = 24 * cfg.chunk_sessions
    return lambda: _rate(count, lambda: generate_chunk(cfg, 0, count, 0.0))


def record_many() -> Loop:
    values = (np.arange(2_000_000, dtype=np.int64) * 7919) % 50_000_000
    passes = 8

    def work() -> None:
        histogram = Histogram("probe", list(SESSION_LATENCY_BOUNDS_NS))
        for _ in range(passes):
            histogram.record_many(values)
    return lambda: _rate(passes * len(values), work)


def snapshot_boot() -> float:
    started = time.perf_counter()
    boot_faultexp_system("oracle", 0)
    return time.perf_counter() - started


def _nothing(system) -> None:
    return None


def recorder_overhead() -> float:
    """pmake under the flight recorder over pmake without, each the
    better of two alternating runs."""
    def pmake(record: bool) -> float:
        system = boot_faultexp_system("oracle", 0)
        if record:
            attach_flight_recorder(system)
        gc.collect()
        started = time.perf_counter()
        PmakeWorkload().run(Platform(system))
        return time.perf_counter() - started

    plain, recorded = [], []
    for _ in range(2):
        plain.append(pmake(False))
        recorded.append(pmake(True))
    return min(recorded) / min(plain)


#: rate probes (best loop = largest): name -> set-up function
_RATES: Dict[str, Callable[[], Loop]] = {
    "sim.engine.timeout_ops_per_s": engine_timeout,
    "sim.engine.schedule_ops_per_s": engine_schedule,
    "hardware.coherence.scalar_access_per_s": coherence_scalar,
    "hardware.coherence.batch_access_per_s": coherence_batch,
    "hardware.firewall.checks_per_s": firewall_checks,
    "core.rpc.round_trips_per_s": rpc_round_trips,
    "unix.kernel.local_fault_per_s": lambda: page_faults(False),
    "core.sharing.remote_fault_per_s": lambda: page_faults(True),
    "core.careful.refs_per_s": careful_refs,
    "workloads.sessions.gen_per_s": session_generator,
    "sim.stats.record_many_per_s": record_many,
}


def run_all() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, setup in _RATES.items():
        loop = setup()
        gc.collect()
        out[name] = max(loop() for _ in range(LOOPS))
    out["sim.snapshot.boot_s"] = min(snapshot_boot() for _ in range(LOOPS))
    with SystemImage(boot_faultexp_system, "oracle", 0,
                     name="perfbench-probe") as image:
        forks = []
        for _ in range(LOOPS):
            image.run(_nothing)
            forks.append(image.fork_wall_s_last)
    out["sim.snapshot.fork_s"] = min(forks)
    out["obs.recorder.overhead_x"] = recorder_overhead()
    return out
