"""Same simulation: what each seeded run printed, pinned.

Hive's results are seed-deterministic simulated numbers, so "this change
moved nothing" is checked exactly.  ``DIGESTS`` maps each run to the
sha256 of the canonical JSON (``sort_keys=True``) of its deterministic
output, wall-clock fields removed, or, where a readable literal already
pinned that output, to the literal itself.  On a mismatch the test
writes the run's JSON under ``tmp_path`` and names the file.

A change that moves an entry updates it here and names the cause in
CHANGES.md.  Other tests assert an entry through :func:`output`, which
computes each run once per session.
"""

import functools
import hashlib
import json
import re

import pytest

from repro.bench.faultexp import SW_COW_TREE, FaultExperimentRunner
from repro.bench.parallel import run_inject_campaign
from repro.bench.rpcbench import run_rpc_bench
from repro.bench.throughput import run_throughput
from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import attach_flight_recorder, to_jsonl
from repro.sim.engine import Simulator
from repro.workloads import (OceanWorkload, Platform, PmakeWorkload,
                             RaytraceWorkload)
from repro.workloads.micro import collect_anchors
from repro.workloads.sessions import SessionTrafficConfig, run_sessions

SEED = 1995
#: a wall-clock field: ``wall_s``, ``boot_wall_s``, ``recovery_wall_ms``,
#: ``events_per_sec`` ... (not ``firewall``)
WALL = re.compile(r"(^|_)wall(_|$)|_per_sec$")

DIGESTS = {
    # pmake / ocean / raytrace on 4 cells, 4 nodes with the three mounts,
    # as ``repro run`` boots them: elapsed ns, events, jobs, outputs and
    # every cell's counters (kernel, rpc, sharing, recovery, detection,
    # firewall metric sets)
    "pmake": (
        "3f8348db0a2edc0f28feb95265835f3a155655b70c855c045ba27d1c3b9d361a"),
    "ocean": (
        "448972093b4f7bb55394065101c77630b7bc024d11ba4b4e4849e55d124dd8d1"),
    "raytrace": (
        "47aaa82b16ca3ac772333cc221ef0c1a43120c160adf6ebe84842683b1fa11b5"),
    # the same three at 6 MiB per node, short of memory: frames borrowed
    # and returned, pages evicted, written back and swapped; also each
    # cell's swap-outs, frame states and ``check_system``'s problems
    "pmake 6 MiB": (
        "2d6d3345e55fa04fc79f36d51bfe6e46ef5da90ee4682abfa72f2a7ae0809d99"),
    "ocean 6 MiB": (
        "5ff9eefe062b8f7496b4c10301993babaa7448b80fd295ee7f54d5d2e4bc2864"),
    "raytrace 6 MiB": (
        "06e810a6053861bfbf89875a7b823ccc8646cb2e714202cbbc4427288db848ac"),
    # ``run_throughput(config, channels=True)``, wall fields removed.
    # The tiers, channels and counters are what the trace-replay side
    # printed on its last run (094e03b); events through
    # ``discarded_pages`` are what ``HIVE_BATCH=0`` and ``HIVE_WHEEL=0``
    # gave at c371ead (for seed 11: the scenario's counts do not move
    # with the seed).
    "throughput small": {
        "config": "small", "nodes": 4, "cells": 4, "cpus_per_node": 1,
        "seed": 1995, "inject_ms": 120, "sim_ms": 400.0,
        "events": 42_993, "accesses": 337_838, "driver_accesses": 337_584,
        "writable_page_samples": 960, "samples": 67,
        "recovery_detected": True, "discarded_pages": 32,
        "parking": {"chains": 4, "parks": 451, "replayed_wakeups": 20_648},
        "channels": {"digest": 860_718_583_250, "ops_by_kind": {
            "coh_read_miss": 286, "fw_grant": 128}, "ops_total": 414,
            "violations": 0, "window_ns": 200},
        "tiers": {
            "coherence": {"batches_total": 21_100, "inline_batches": 21,
                          "inline_rate": 0.000995260663507109,
                          "memo_hit_rate": 0.9990047393364929,
                          "memo_hits": 21_079, "scalar_batches": 0,
                          "scalar_rate": 0.0},
            "rpc": {"calls_total": 0, "fast_path": 0, "fast_rate": 0.0}}},
    "throughput medium": {
        "config": "medium", "nodes": 8, "cells": 4, "cpus_per_node": 1,
        "seed": 1995, "inject_ms": 150, "sim_ms": 500.0,
        "events": 66_851, "accesses": 525_872, "driver_accesses": 525_552,
        "writable_page_samples": 2_816, "samples": 84,
        "recovery_detected": True, "discarded_pages": 64,
        "parking": {"chains": 4, "parks": 584, "replayed_wakeups": 32_263},
        "channels": {"digest": 1_440_707_172_203, "ops_by_kind": {
            "coh_read_miss": 479, "fw_grant": 256}, "ops_total": 735,
            "violations": 0, "window_ns": 200},
        "tiers": {
            "coherence": {"batches_total": 32_848, "inline_batches": 41,
                          "inline_rate": 0.0012481734047735023,
                          "memo_hit_rate": 0.9987518265952265,
                          "memo_hits": 32_807, "scalar_batches": 0,
                          "scalar_rate": 0.0},
            "rpc": {"calls_total": 0, "fast_path": 0, "fast_rate": 0.0}}},
    # ``run_rpc_bench("small")``, wall fields removed: round trips
    # through ``flow_control_rejections`` are what ``HIVE_RPC_FAST=0``
    # and ``HIVE_WHEEL=0`` gave at c371ead (for seed 11: the scenario
    # draws no random number)
    "rpc_bench small": {
        "config": "small", "nodes": 2, "cells": 2, "clients": 4,
        "seed": 1995, "round_trips": 1_200, "sim_now_ns": 4_111_400,
        "calls": 1_200, "send_retries": 0, "timeouts": 0,
        "spin_timeouts": 0, "queued": 240, "queued_fallback": 0,
        "served_interrupt": 960, "served_queued": 240,
        "latency_n": 1_200, "latency_total_ns": 16_445_600,
        "sips_sends": 2_400, "flow_control_rejections": 0,
        "mean_latency_ns": 13_704.7, "latency_floor_ns": 400,
        "tiers": {"rpc": {"calls_total": 1_200, "fast_path": 1_200,
                          "fast_rate": 1.0}}},
    # ``sw_cow_tree`` seed 5 with a flight recorder attached: the trial,
    # every recovery record (``record_key``) and the span export, as
    # ``HIVE_BATCH=0``, ``HIVE_WHEEL=0`` and ``HIVE_RPC_FAST=0`` each gave
    # them at c371ead
    "sw_cow_tree seed 5": {
        "trial": {"scenario": "sw_cow_tree", "seed": 5,
                  "injected_at_ns": 2_088_225_995, "detected": True,
                  "last_entry_latency_ns": 204_432_533, "contained": True,
                  "survivors_alive": True, "outputs_ok": True,
                  "check_ok": True, "recovery_duration_ns": 42_378_600,
                  "notes": "", "fault_seed": None},
        "records": [
            [4, [3], 2_282_558_528,
             "careful reference alignment check: addr=0x41eb0e2",
             [[0, 2_292_658_528], [1, 2_292_658_528], [2, 2_292_658_528]],
             100_000, 2_335_037_128, 0, 0, 0, False],
            [3, [3], 2_282_557_408, "voted down twice accusing 0",
             [[0, 2_292_558_408], [1, 2_292_558_408], [2, 2_292_558_408]],
             1_000, 2_335_628_208, 0, 0, 0, False]],
        "discarded": 0,
        "spans": {
            "lines": 14_566,
            "sha256": "de826b05eaf258e9bb4deb219e8f46a1977b94cd0be47aee3e8e"
                      "e72d983bcd0f"}},
    # one trial each of four Table 7.4 scenarios on one worker:
    # summaries, availability, containment audit and tier counters
    "campaign": (
        "3f230534e70df5a9ba275299f85051460aa32c98a515d5e2be9f7d74e7867f9c"),
    # perfbench's quick session runs (200 k sessions each), wall fields
    # removed
    "sessions failover": (
        "4e5837a3570d8c48033872ddb30078c32da707de1cbcf7eb2a5c597296a327eb"),
    "sessions nofailover": (
        "203355aeb2d0f0906b1936a0a51bf031935b8795e88d2b2a6738973eb697f520"),
    # the anchors ``repro micro`` prints
    "micro": (
        "b892e798e1a067ec258814a27fa474954f979b9a729feac950d0a70d62e0cae9"),
}


def deterministic(value):
    """``value`` without its wall-clock fields, as plain JSON types."""
    if isinstance(value, dict):
        return {str(key): deterministic(item) for key, item in value.items()
                if not WALL.search(str(key))}
    if isinstance(value, (list, tuple)):
        return [deterministic(item) for item in value]
    return value


def _paper_app(workload_cls, mib=32):
    hive = boot_hive(Simulator(), num_cells=4, machine_config=MachineConfig(
        params=HardwareParams(num_nodes=4, cpus_per_node=1,
                              memory_per_node=mib << 20), seed=SEED))
    hive.namespace.mount("/tmp", 1)
    hive.namespace.mount("/usr", 2)
    hive.namespace.mount("/results", 0)
    result = workload_cls().run(Platform(hive))
    cells = {}
    for cell in hive.cells:
        cells[cell.kernel_id] = {
            name: {key: c.value for key, c in metrics.counters.items()}
            for name, metrics in (
                ("kernel", cell.metrics), ("rpc", cell.rpc.metrics),
                ("sharing", cell.sharing_metrics),
                ("recovery", cell.recovery_metrics),
                ("detection", cell.detection_metrics),
                ("firewall", cell.firewall_metrics))}
    out = {"elapsed_ns": result.elapsed_ns,
           "events": hive.sim.events_processed,
           "jobs_completed": result.jobs_completed,
           "jobs_failed": result.jobs_failed,
           "outputs_ok": result.outputs_ok, "cells": cells}
    if mib != 32:
        # A pressure run pins where memory went and the checker's verdict.
        out["swap_outs"] = [cell.swap.swap_outs for cell in hive.cells]
        out["frames"] = [cell.pfdats.frame_counts() for cell in hive.cells]
        out["problems"] = check_system(hive)
    return out


def _sw_cow_tree_seed_5():
    captured = {}

    def on_boot(system):
        captured["recorder"] = attach_flight_recorder(system)
        captured["system"] = system

    trial = FaultExperimentRunner(on_boot=on_boot).run_trial(SW_COW_TREE,
                                                              seed=5)
    spans = to_jsonl(captured["recorder"])
    records = captured["system"].coordinator.records
    return {"trial": trial.to_dict(),
            "records": [record_key(r) for r in records],
            "discarded": sum(r.discarded_pages for r in records),
            "spans": {"lines": spans.count("\n"),
                      "sha256": hashlib.sha256(spans.encode()).hexdigest()}}


def record_key(rec):
    """Every RecoveryRecord field, in a comparable form."""
    return [rec.round_id, sorted(rec.dead_cells), rec.hint_time_ns,
            rec.detection_reason, sorted(map(list, rec.entry_times.items())),
            rec.agreement_ns, rec.recovery_done_ns, rec.discarded_pages,
            rec.files_lost, rec.killed_processes, rec.rebooted]


def _campaign():
    payload = run_inject_campaign(
        ["hw_random", "hw_cow_search", "sw_address_map", "sw_cow_tree"],
        trials=1, seed_base=SEED, workers=1)
    return {"summaries": {name: [t.to_dict() for t in summary.trials]
                          for name, summary in payload["summaries"].items()},
            "availability": payload["availability"],
            "audit": payload["audit"], "tiers": payload["tiers"]}


def _sessions(**cfg):
    return run_sessions(SessionTrafficConfig(
        sessions=200_000, probe_every=2000, inject_ms=200, **cfg))


RUNS = {
    "pmake": lambda: _paper_app(PmakeWorkload),
    "ocean": lambda: _paper_app(OceanWorkload),
    "raytrace": lambda: _paper_app(RaytraceWorkload),
    "pmake 6 MiB": lambda: _paper_app(PmakeWorkload, 6),
    "ocean 6 MiB": lambda: _paper_app(OceanWorkload, 6),
    "raytrace 6 MiB": lambda: _paper_app(RaytraceWorkload, 6),
    "throughput small": lambda: run_throughput("small", channels=True),
    "throughput medium": lambda: run_throughput("medium", channels=True),
    "rpc_bench small": lambda: run_rpc_bench("small"),
    "sw_cow_tree seed 5": _sw_cow_tree_seed_5,
    "campaign": _campaign,
    "sessions failover": lambda: _sessions(seed=SEED, service="lognormal"),
    "sessions nofailover": lambda: _sessions(
        seed=SEED + 12, service="pareto", failover=False),
    "micro": lambda: collect_anchors(SEED),
}


@functools.lru_cache(maxsize=None)
def _canonical(name):
    return json.dumps(deterministic(RUNS[name]()), sort_keys=True)


def output(name):
    """The deterministic output of run ``name``, computed once a session."""
    return json.loads(_canonical(name))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_same_simulation(name, tmp_path):
    text = _canonical(name)
    pinned = DIGESTS[name]
    if isinstance(pinned, str):
        same = hashlib.sha256(text.encode()).hexdigest() == pinned
    else:
        same = json.loads(text) == deterministic(pinned)
    if not same:
        path = tmp_path / f"{name.replace(' ', '_')}.json"
        path.write_text(text)
        pytest.fail(f"{name} moved; its output is in {path}")
