"""Throughput benchmark harness: sim-events/sec and memory-accesses/sec.

The containment benchmarks measure *simulated* latencies; this harness
measures how fast the simulator itself runs, so that machine sizes like
the ones the related fault-containment work evaluates (hundreds of nodes,
millions of pages) stay within reach.  It runs one fixed, fully
deterministic fault-injection scenario at three machine configurations:

* every cell exports a block of page frames writable to its neighbour
  cell (the paper's group-grant policy, driven through the real
  ``FirewallManager`` grant path);
* every cell runs a coherence *traffic driver* that performs real
  line-granularity reads and ownership requests against the frames its
  neighbour granted it — each one a firewall-checked access through
  ``CoherenceController``;
* every cell samples ``remotely_writable_pages()`` on the paper's 20 ms
  cadence (the Section 4.2 measurement);
* a node of the victim cell fail-stops at a fixed simulated time, which
  drives detection, agreement, and the preemptive-discard recovery scan
  over everything granted to the victim.

Wall-clock time is split at the injection point so the recovery phase is
timed separately (``recovery_wall_ms``).  All simulated results (event
counts, access counts, discard counts) are byte-deterministic for a
given seed; only the wall-clock figures vary run to run.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional

from repro.core.hive import HiveSystem, boot_hive
from repro.hardware.errors import BusError, FirewallViolation
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import NS_PER_MS, HardwareParams
from repro.obs.profile import tier_snapshot
from repro.sim.channels import attach_channels
from repro.sim.engine import Simulator
from repro.sim.shard import ChainCoordinator
from repro.sim.snapshot import run_booted

BENCH_SCHEMA = "hive-throughput/v1"

#: simulated counters every execution form of the scenario must agree
#: on byte-for-byte: parked chains against the per-wakeup run,
#: fork-then-run against fresh-boot-then-run.  ``tiers`` covers the
#: per-tier coherence attribution (hits, misses, memo replays) and
#: ``channels`` the intercell channel fingerprint.
EQUIV_KEYS = (
    "events", "accesses", "driver_accesses", "discarded_pages",
    "writable_page_samples", "samples", "recovery_detected", "sim_ms",
    "tiers", "channels",
)


@dataclass(frozen=True)
class ThroughputConfig:
    """One machine size for the fixed scenario."""

    name: str
    num_nodes: int
    num_cells: int
    cpus_per_node: int
    #: frames each cell grants writable to its neighbour cell
    shared_frames_per_cell: int
    #: coherence accesses issued per driver wakeup
    ops_per_wakeup: int
    #: simulated pacing gap between driver wakeups
    wakeup_gap_ns: int
    inject_ms: int
    recovery_window_ms: int
    duration_ms: int
    sample_interval_ms: int = 20


CONFIGS: Dict[str, ThroughputConfig] = {
    "small": ThroughputConfig(
        name="small", num_nodes=4, num_cells=4, cpus_per_node=1,
        shared_frames_per_cell=32, ops_per_wakeup=16,
        wakeup_gap_ns=50_000, inject_ms=120, recovery_window_ms=200,
        duration_ms=400),
    "medium": ThroughputConfig(
        name="medium", num_nodes=8, num_cells=4, cpus_per_node=1,
        shared_frames_per_cell=64, ops_per_wakeup=16,
        wakeup_gap_ns=40_000, inject_ms=150, recovery_window_ms=200,
        duration_ms=500),
    "large": ThroughputConfig(
        name="large", num_nodes=16, num_cells=16, cpus_per_node=1,
        shared_frames_per_cell=128, ops_per_wakeup=16,
        wakeup_gap_ns=30_000, inject_ms=200, recovery_window_ms=250,
        duration_ms=600),
}


def grant_frames(cell, client_cell: int, nframes: int,
                 frames_out: List[int], ready=None):
    """Allocate ``nframes`` local frames and grant them writable to the
    neighbour cell through the real firewall-management policy path;
    ``ready`` (if given) succeeds with ``frames_out`` once all are
    granted."""
    pfs = [cell.pfdats.alloc_frame() for _ in range(nframes)]
    for pf in pfs:
        yield from cell.firewall_mgr.grant_write(pf, client_cell)
        frames_out.append(pf.frame)
    if ready is not None:
        ready.succeed(frames_out)
    return None


def _traffic(sim: Simulator, system: HiveSystem, cell_id: int, cpu: int,
             ready, cfg: ThroughputConfig, stop_ns: int, counters: dict,
             coord: ChainCoordinator, per_wakeup: bool = False):
    """Issue real coherence reads/ownership requests against the frames
    the neighbour granted.  Stops when its cell dies or loses access.

    The driver registers itself as a parked chain: wakeups whose
    accesses are provably memo replays collapse into one park
    (``ParkedChain.credit``), and even real accesses park through the
    chain so the coordinator owns the clock.

    ``per_wakeup`` never credits: the driver executes every wakeup for
    real, which makes it the oracle parked runs are diffed against.
    """
    frames = yield ready
    machine = system.machine
    coh = machine.coherence
    line = machine.params.cache_line_size
    page = machine.params.page_size
    lines_per_page = page // line
    registry = system.registry
    # The access *sequence* is identical to the original per-access form
    # (frame index advances by one and the line offset by two per op);
    # each wakeup's ops now issue as one prepared batch.  The access
    # counter ``i`` advances by ``ops`` per wakeup and every term of the
    # pattern depends on ``i`` only through ``i mod lcm(nframes,
    # lines_per_page, 2)`` (the 2 covers the read/write parity), so the
    # whole run cycles through a short list of patterns prepared once up
    # front; an unchanged all-hit wakeup then replays from the batch
    # memo without re-walking the directory.
    nframes = len(frames)
    ops = cfg.ops_per_wakeup
    gap = cfg.wakeup_gap_ns
    access_prepared = coh.access_prepared
    # Inlined registry.is_live(cell_id): the registry's cell object for
    # an id is fixed at registration, so the per-wakeup liveness check
    # reduces to the dead-set test plus the cell's own alive flag.
    cell_obj = registry.cells[cell_id]
    dead_cells = registry._dead
    modulus = nframes * lines_per_page // gcd(nframes, lines_per_page)
    if modulus % 2:
        modulus *= 2
    period = modulus // gcd(ops, modulus)
    cycle = []
    for t in range(period):
        base = (t * ops) % modulus
        line_ids = [frames[(base + k) % nframes] * lines_per_page
                    + ((base + 2 * k) % lines_per_page)
                    for k in range(ops)]
        op_list = [(base + 2 * k) & 1 for k in range(ops)]
        cycle.append(coh.prepare_batch(line_ids, op_list))
    chain = coord.register_chain(coh, cpu, cycle, gap)
    j = 0
    while sim.now < stop_ns:
        if cell_id in dead_cells or not cell_obj.alive:
            return None
        if not per_wakeup:
            k, sleep_ns, j2 = chain.credit(j, stop_ns)
            if k:
                counters["accesses"] += ops * k
                j = j2
                yield chain.park(sleep_ns, k)
                continue
        try:
            lat = access_prepared(cpu, cycle[j])
        except (BusError, FirewallViolation):
            # The granter (or this cell's own node) died: the grant was
            # revoked by preemptive discard.  The driver retires.  The
            # ops that completed before the raise still count.
            counters["accesses"] += coh.last_batch_completed
            return None
        counters["accesses"] += ops
        # The live access may have rebuilt an all-hit memo without a
        # directory mutation; the chain's peek cache can't see that
        # through its generation key alone.
        chain.invalidate_peeks()
        j += 1
        if j == period:
            j = 0
        yield chain.park(lat + gap, 1)
    return None


def _sampler(sim: Simulator, cell, interval_ns: int, stop_ns: int,
             counters: dict):
    """The Section 4.2 measurement: sample remotely-writable pages."""
    while sim.now < stop_ns:
        if not cell.alive:
            return None
        counters["samples"] += 1
        counters["writable_page_samples"] += \
            cell.firewall_mgr.remotely_writable_pages()
        yield interval_ns
    return None


def boot_bench_system(config: str, seed: int = 1995) -> HiveSystem:
    """Boot the throughput scenario's machine (module-level so a
    :class:`repro.sim.snapshot.SystemImage` can host it)."""
    cfg = CONFIGS[config]
    params = HardwareParams(num_nodes=cfg.num_nodes,
                            cpus_per_node=cfg.cpus_per_node)
    sim = Simulator(crash_on_process_error=False)
    return boot_hive(sim, num_cells=cfg.num_cells,
                     machine_config=MachineConfig(params=params,
                                                  seed=seed))


def run_throughput(config: str, seed: int = 1995,
                   channels: bool = False,
                   per_wakeup: bool = False,
                   inject_ms: Optional[int] = None,
                   system: Optional[HiveSystem] = None) -> dict:
    """Run the fixed scenario at one machine size; returns the result row.

    ``channels`` attaches the intercell channel recorder, so the row
    carries the channel fingerprint the equivalence gates diff.

    ``per_wakeup`` runs the per-wakeup form of the scenario: no wakeup
    is credited ahead, each one executes and parks on its own.
    ``inject_ms`` overrides the config's fault-injection time.

    ``system`` runs the scenario on a system the caller booted (its
    setup cost is the caller's to report; the row's ``boot_wall_s``
    reads 0).  Otherwise :func:`repro.sim.snapshot.run_booted` boots one.
    """
    if system is not None:
        return _run_on(system, config, seed, channels, per_wakeup,
                       inject_ms)
    row, setup = run_booted(boot_bench_system, (config,), _run_on, config,
                            seed, channels, per_wakeup, inject_ms,
                            seed=seed)
    row["boot_wall_s"] = round(setup["boot_wall_s"], 4)
    return row


def _run_on(system: HiveSystem, config: str, seed: int, channels: bool,
            per_wakeup: bool, inject_ms: Optional[int]) -> dict:
    """The scenario on a booted system (module-level: it crosses the
    image's request pipe in a forked run)."""
    cfg = CONFIGS[config]
    sim = system.sim
    params = system.machine.params
    registry = system.registry
    victim = cfg.num_cells - 1
    stop_ns = cfg.duration_ms * NS_PER_MS
    if inject_ms is None:
        inject_ms = cfg.inject_ms
    inject_ns = inject_ms * NS_PER_MS
    counters = {"accesses": 0, "samples": 0, "writable_page_samples": 0}

    chan = None
    if channels:
        chan = attach_channels(system.machine, registry,
                               params.min_intercell_latency_ns(), sim=sim)
    coord = ChainCoordinator(sim)

    for c in range(cfg.num_cells):
        cell = registry.cell_object(c)
        client = (c + 1) % cfg.num_cells
        frames: List[int] = []
        ready = sim.event(f"grants{c}")
        sim.process(grant_frames(cell, client, cfg.shared_frames_per_cell,
                                 frames, ready), name=f"exporter{c}")
        client_cell = registry.cell_object(client)
        cpu = client_cell.cpu_ids[0]
        sim.process(_traffic(sim, system, client, cpu, ready, cfg,
                             stop_ns, counters, coord,
                             per_wakeup=per_wakeup),
                    name=f"traffic{client}")
        sim.process(_sampler(sim, cell, cfg.sample_interval_ms * NS_PER_MS,
                             stop_ns, counters), name=f"sampler{c}")

    system.injector.inject_at(inject_ns, FaultInjector.NODE_FAILURE,
                              registry.first_node_of(victim),
                              trigger="throughput-bench")

    # Cyclic GC passes contribute ~8% of wall on the large config and
    # cannot affect any simulated counter; suspend collection for the
    # measured window (the cycles it would have reclaimed are collected
    # right after).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.perf_counter()
        coord.run(until=inject_ns)
        wall_inject = time.perf_counter()
        coord.run(until=inject_ns + cfg.recovery_window_ms * NS_PER_MS)
        wall_recovered = time.perf_counter()
        coord.run(until=stop_ns)
        wall_end = time.perf_counter()
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()

    stats = system.machine.coherence.stats
    coh_accesses = (stats.read_hits + stats.read_misses
                    + stats.write_hits + stats.write_misses)
    records = [r for r in system.coordinator.records
               if victim in r.dead_cells]
    discarded = sum(r.discarded_pages for r in records)
    wall_s = wall_end - wall0
    events = sim.events_processed
    row = {
        "config": cfg.name,
        "nodes": cfg.num_nodes,
        "cells": cfg.num_cells,
        "cpus_per_node": cfg.cpus_per_node,
        "seed": seed,
        "sim_ms": stop_ns / NS_PER_MS,
        "boot_wall_s": 0.0,
        "wall_s": round(wall_s, 4),
        "recovery_wall_ms": round((wall_recovered - wall_inject) * 1e3, 3),
        "events": events,
        "events_per_sec": round(events / wall_s, 1),
        "accesses": coh_accesses,
        "accesses_per_sec": round(coh_accesses / wall_s, 1),
        "driver_accesses": counters["accesses"],
        "writable_page_samples": counters["writable_page_samples"],
        "samples": counters["samples"],
        "recovery_detected": bool(records),
        "discarded_pages": discarded,
        "inject_ms": inject_ms,
        "parking": coord.snapshot(),
        # Hot-path tier attribution (seed-deterministic counts).
        "tiers": tier_snapshot(system),
    }
    if chan is not None:
        row["channels"] = chan.snapshot()
    return row


def equiv_mismatches(a: dict, b: dict, labels=("a", "b")) -> dict:
    """Diff two result rows over :data:`EQUIV_KEYS` (empty = equivalent)."""
    mismatches = {}
    for key in EQUIV_KEYS:
        va, vb = a.get(key), b.get(key)
        if va != vb:
            mismatches[key] = {labels[0]: va, labels[1]: vb}
    return mismatches


def compare_parked(config: str, seed: int = 1995,
                   inject_ms: Optional[int] = None) -> dict:
    """The parked-chain equivalence gate for one config.

    Runs the scenario per wakeup (every wakeup executes and parks on
    its own) and parked (the default), channel recorder
    attached on both sides, and diffs every key in :data:`EQUIV_KEYS`.
    Returns a dict with ``match`` plus the per-key mismatches (empty
    when equivalent).
    """
    per_wakeup = run_throughput(config, seed=seed, channels=True,
                                per_wakeup=True, inject_ms=inject_ms)
    parked = run_throughput(config, seed=seed, channels=True,
                            inject_ms=inject_ms)
    mismatches = equiv_mismatches(per_wakeup, parked,
                                  ("per_wakeup", "parked"))
    return {
        "config": config,
        "inject_ms": parked["inject_ms"],
        "match": not mismatches,
        "mismatches": mismatches,
        "per_wakeup_events_per_sec": per_wakeup["events_per_sec"],
        "parked_events_per_sec": parked["events_per_sec"],
        "parks": parked["parking"]["parks"],
        "replayed_wakeups": parked["parking"]["replayed_wakeups"],
    }

