"""RPC round-trip microbenchmark: round-trips/sec of the intercell path.

The throughput bench (:mod:`repro.bench.throughput`) drives the firewall
and coherence hot paths but performs zero RPC; this harness exercises the
other hot path — the full client/server RPC round trip over SIPS (stub
charges, pending registration, send, service dispatch, reply completion,
deadline cancellation).

Each cell runs a fixed number of client coroutines that call its
neighbour cell in a deterministic mix of interrupt-level pings, queued
pings, and oversize (by-reference) pings.  Everything simulated is
seed-deterministic; only wall clock varies.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.parallel import best_of
from repro.core.hive import HiveSystem, boot_hive
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs.profile import rpc_tiers
from repro.sim.engine import Simulator
from repro.sim.snapshot import run_booted

#: simulated quantities that must be identical across repeats, fresh
#: boots and snapshot forks for one (config, seed)
RPC_DETERMINISTIC_KEYS = (
    "round_trips", "sim_now_ns", "calls", "send_retries", "timeouts",
    "spin_timeouts", "queued", "queued_fallback", "served_interrupt",
    "served_queued", "latency_n", "latency_total_ns", "sips_sends",
    "flow_control_rejections",
)

#: per-subsystem counters summed across cells into the result row
_RPC_COUNTER_KEYS = ("calls", "send_retries", "timeouts", "spin_timeouts",
                     "queued", "queued_fallback", "served_interrupt",
                     "served_queued")


@dataclass(frozen=True)
class RpcBenchConfig:
    """One machine size for the fixed RPC scenario."""

    name: str
    num_nodes: int
    num_cells: int
    #: concurrent client coroutines per cell
    clients_per_cell: int
    #: round trips each client performs
    calls_per_client: int
    #: every Nth call goes through the queued service class
    queued_every: int = 5
    #: every Nth call sends oversize (by-reference) arguments
    oversize_every: int = 7


RPC_CONFIGS: Dict[str, RpcBenchConfig] = {
    "small": RpcBenchConfig(
        name="small", num_nodes=2, num_cells=2,
        clients_per_cell=2, calls_per_client=300),
    "medium": RpcBenchConfig(
        name="medium", num_nodes=4, num_cells=4,
        clients_per_cell=2, calls_per_client=500),
    "large": RpcBenchConfig(
        name="large", num_nodes=8, num_cells=8,
        clients_per_cell=2, calls_per_client=800),
}


def _client(cell, dst: int, cfg: RpcBenchConfig, counters: dict):
    """One client coroutine: a deterministic mix of round trips."""
    rpc = cell.rpc
    q_every = cfg.queued_every
    o_every = cfg.oversize_every
    for i in range(cfg.calls_per_client):
        if q_every and i % q_every == q_every - 1:
            yield from rpc.call(dst, "ping_queued", {})
        elif o_every and i % o_every == o_every - 1:
            yield from rpc.call(dst, "ping", {}, arg_bytes=512)
        else:
            yield from rpc.call(dst, "ping", {})
        counters["round_trips"] += 1
    return None


def boot_rpc_system(config: str, seed: int = 1995) -> HiveSystem:
    """Boot the RPC scenario's machine (module-level, image-bootable)."""
    cfg = RPC_CONFIGS[config]
    params = HardwareParams(num_nodes=cfg.num_nodes)
    sim = Simulator(crash_on_process_error=False)
    return boot_hive(sim, num_cells=cfg.num_cells,
                     machine_config=MachineConfig(params=params,
                                                  seed=seed))


def run_rpc_bench(config: str, seed: int = 1995,
                  system: Optional[HiveSystem] = None,
                  snapshot: bool = False) -> dict:
    """Run the RPC scenario at one machine size; returns the result row.

    ``system`` runs it on a system the caller booted; otherwise
    :func:`repro.sim.snapshot.run_booted` boots one, or with
    ``snapshot`` forks it from the config's image (same counters;
    ``boot_wall_s`` is then the image's one-time boot, ``fork_wall_s``
    what this run paid instead, ``snapshot`` the image's mode).
    """
    if system is not None:
        return _run_on(system, config, seed)
    row, setup = run_booted(boot_rpc_system, (config,), _run_on, config,
                            seed, seed=seed, snapshot=snapshot)
    row["boot_wall_s"] = round(setup["boot_wall_s"], 4)
    if snapshot:
        row["fork_wall_s"] = round(setup["setup_wall_s"], 4)
        row["snapshot"] = setup["mode"]
    return row


def _run_on(system: HiveSystem, config: str, seed: int) -> dict:
    """The scenario on a booted system (module-level: it crosses the
    image's request pipe in a forked run)."""
    cfg = RPC_CONFIGS[config]
    sim = system.sim
    params = system.machine.params
    registry = system.registry
    cells = [registry.cell_object(c) for c in range(cfg.num_cells)]
    counters = {"round_trips": 0}
    procs = []
    total_calls = 0
    for c, cell in enumerate(cells):
        dst = (c + 1) % cfg.num_cells
        for k in range(cfg.clients_per_cell):
            procs.append(sim.process(_client(cell, dst, cfg, counters),
                                     name=f"rpcbench{c}.{k}"))
            total_calls += cfg.calls_per_client
    done = sim.all_of(procs)
    # Bench deadline: every round trip crosses a cell boundary at least
    # twice, so no call can finish faster than twice the minimum
    # intercell latency — derive the give-up horizon from that hardware
    # floor instead of an ad-hoc constant.  1000x floor per call is far
    # beyond any real schedule (observed means are ~100x the floor).
    latency_floor_ns = 2 * params.min_intercell_latency_ns()
    deadline_ns = total_calls * latency_floor_ns * 1000
    # As in the throughput bench: cyclic GC cannot affect simulated
    # counters, so keep it out of the measured window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.perf_counter()
        sim.run_until_event(done, deadline=sim.now + deadline_ns)
        wall = time.perf_counter() - wall0
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    if not done.triggered:
        raise RuntimeError(f"rpc bench {config!r} did not finish "
                           f"({counters['round_trips']}/{total_calls})")
    row = {
        "config": cfg.name,
        "nodes": cfg.num_nodes,
        "cells": cfg.num_cells,
        "seed": seed,
        "clients": cfg.num_cells * cfg.clients_per_cell,
        "boot_wall_s": 0.0,
        "fork_wall_s": 0.0,
        "wall_s": round(wall, 4),
        "round_trips": counters["round_trips"],
        "round_trips_per_sec": round(counters["round_trips"] / wall, 1),
        "sim_now_ns": sim.now,
        "sips_sends": system.machine.sips.sends,
        "flow_control_rejections":
            system.machine.sips.flow_control_rejections,
    }
    agg = {key: 0 for key in _RPC_COUNTER_KEYS}
    latency_n = 0
    latency_total = 0
    for cell in cells:
        m = cell.rpc.metrics
        for key in _RPC_COUNTER_KEYS:
            agg[key] += m.counter(key).value
        hist = m.histogram("latency_ns")
        latency_n += hist.total
        latency_total += hist.sum
    row.update(agg)
    row["latency_n"] = latency_n
    row["latency_total_ns"] = latency_total
    row["mean_latency_ns"] = (round(latency_total / latency_n, 1)
                              if latency_n else 0.0)
    row["latency_floor_ns"] = latency_floor_ns
    # Which dispatch the calls took (`repro report --check` reads it).
    row["tiers"] = {"rpc": rpc_tiers(system)}
    if latency_n and row["mean_latency_ns"] < latency_floor_ns:
        # A round trip beat the hardware: the RPC path (or a params
        # change) broke the latency model.
        raise RuntimeError(
            f"rpc bench {config!r}: mean latency "
            f"{row['mean_latency_ns']}ns under the intercell hardware "
            f"floor {latency_floor_ns}ns")
    return row


def run_rpc_suite(configs: Optional[List[str]] = None,
                  seed: int = 1995, repeats: int = 1,
                  snapshot: bool = False) -> Dict[str, dict]:
    """Run the RPC scenario at the requested sizes, best-of-``repeats``.

    Repeats must agree on every :data:`RPC_DETERMINISTIC_KEYS` entry
    (verified, not assumed); the fastest repeat is the headline row.
    ``snapshot`` forks each repeat from the config's snapshot image.
    """
    return {name: best_of([run_rpc_bench(name, seed=seed, snapshot=snapshot)
                           for _ in range(max(1, repeats))],
                          RPC_DETERMINISTIC_KEYS, f"rpc {name!r}")
            for name in (configs or RPC_CONFIGS)}
