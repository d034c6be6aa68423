"""The four workloads: one repetition each, through public calls only.

Imported only inside worker processes (it imports ``repro``).  Each
repetition function takes the seed, the worker's :class:`Clock` and the
``quick`` flag, times its calls into the program with ``clock.span`` and
returns a :class:`Rep`.  Work done between spans (reading counters) is
not timed.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.bench.faultexp import FaultExperimentRunner
from repro.bench.parallel import run_inject_campaign
from repro.bench.throughput import boot_bench_system, run_throughput
from repro.core.hive import boot_hive
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import snapshot_system, tier_snapshot
from repro.sim.engine import Simulator
from repro.workloads import (OceanWorkload, Platform, PmakeWorkload,
                             RaytraceWorkload)
from repro.workloads.sessions import SessionTrafficConfig, run_sessions


class Clock:
    """Spans around the harness's own calls, kept in memory.

    A span is ``[name, start, end, parent, rep]``; ``parent`` is the
    index of the enclosing span (``None`` at the top) and ``rep`` the
    repetition it belongs to.  ``wall_s``/``cpu_s`` add up the top-level
    spans of the current repetition, so untimed work between them (the
    harness reading counters) stays out of the score.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.rep = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def begin(self, rep: int) -> None:
        self.rep = rep
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        row = [name, 0.0, 0.0, parent, self.rep]
        self.spans.append(row)
        self._open.append(index)
        cpu0 = time.process_time()
        row[1] = time.perf_counter()
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            self._open.pop()
            if parent is None:
                self.wall_s += row[2] - row[1]
                self.cpu_s += time.process_time() - cpu0

    def note(self, name: str, seconds: float, parent: int) -> None:
        """A duration the program measured inside span ``parent``; only
        its length is known, so it is placed at the parent's start."""
        start = self.spans[parent][1]
        self.spans.append([name, start, start + seconds, parent, self.rep])


@dataclass
class Rep:
    """What one repetition hands back."""

    #: (operation, problems): an operation with problems failed
    ops: List[list] = field(default_factory=list)
    #: fixed work units of the input (jobs, accesses, trials, sessions)
    work: int = 0
    sim_s: float = 0.0
    #: deterministic results; must be equal in every repetition and
    #: worker of one seed
    digest: Dict[str, object] = field(default_factory=dict)
    #: additive raw counts behind the exact per-layer metrics
    counts: Dict[str, float] = field(default_factory=dict)

    def op(self, label: str, problems: List[str]) -> None:
        self.ops.append([label, problems])

    def add(self, counts: Dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def system_counts(system) -> Dict[str, float]:
    """Additive counts of one finished system (exact, seed-determined)."""
    snap = snapshot_system(system)
    tiers = tier_snapshot(system)
    coherence = snap["machine"]["coherence"]
    return {
        "events": system.sim.events_processed,
        "accesses": (coherence["read_hits"] + coherence["read_misses"]
                     + coherence["write_hits"] + coherence["write_misses"]),
        "memo_hits": tiers["coherence"]["memo_hits"],
        "batches": tiers["coherence"]["batches_total"],
        "directory_size": system.machine.coherence.directory_size(),
        "sips_sends": snap["machine"]["sips"]["sends"],
        "rpc_fast": tiers["rpc"]["fast_path"],
        "rpc_calls": tiers["rpc"]["calls_total"],
        "rpc_retries": sum(cell["rpc"].get("send_retries.count", 0)
                           for cell in snap["cells"].values()),
        "remote_faults": system.total_counter("faults.remote"),
        "page_faults": system.total_counter("faults"),
        "recovery_rounds": snap["recovery"]["rounds_completed"],
    }


# -- paper_apps --------------------------------------------------------------

APPS = (("pmake", PmakeWorkload), ("ocean", OceanWorkload),
        ("raytrace", RaytraceWorkload))

#: Table 7.2 of the paper, four-cell Hive: IRIX seconds x (1 + slowdown).
PAPER_4CELL_S = {"pmake": 5.77 * 1.11, "ocean": 6.07 * 0.99,
                 "raytrace": 4.35 * 1.01}


def paper_apps(seed: int, clock: Clock, quick: bool) -> Rep:
    """pmake, ocean and raytrace, each on a fresh 4-cell/4-node Hive
    with the three mounts: what ``repro run`` does."""
    rep = Rep()
    err_pct = 0.0
    for name, workload_cls in APPS:
        with clock.span("core.hive.boot_s"):
            hive = boot_hive(
                Simulator(), num_cells=4,
                machine_config=MachineConfig(
                    params=HardwareParams(num_nodes=4, cpus_per_node=1),
                    seed=seed))
            hive.namespace.mount("/tmp", 1)
            hive.namespace.mount("/usr", 2)
            hive.namespace.mount("/results", 0)
            platform = Platform(hive)
        with clock.span(f"workloads.{name}.run_s"):
            result = workload_cls().run(platform)
        with clock.span("core.invariants.check_s"):
            problems = list(check_system(hive))
        if result.jobs_failed:
            problems.append(f"{result.jobs_failed} jobs failed")
        if not result.outputs_ok:
            problems.append(f"outputs: {result.output_errors[:3]}")
        rep.op(name, problems)
        rep.work += result.jobs_completed
        rep.sim_s += result.elapsed_s
        rep.add(system_counts(hive))
        rep.digest[name] = [result.elapsed_ns, hive.sim.events_processed,
                            result.jobs_completed]
        err_pct += abs(result.elapsed_s / PAPER_4CELL_S[name] - 1) * 100
    rep.counts["paper_err_pct"] = err_pct / len(APPS)
    return rep


# -- coherence_storm ---------------------------------------------------------


def coherence_storm(seed: int, clock: Clock, quick: bool) -> Rep:
    """The 16-cell throughput scenario for three seeds: millions of
    coherence accesses, one node failure and recovery per seed.

    ``repro bench`` does not run ``check_system``, so the check is the
    harness's own and untimed; it costs 0.35 s on 16 cells, and the
    seeds run the same scenario, so only the last system is checked.
    """
    rep = Rep()
    seeds = range(seed, seed + (1 if quick else 3))
    for s in seeds:
        with clock.span("core.hive.boot_s"):
            system = boot_bench_system("large", seed=s)
        with clock.span("bench.throughput.run_s"):
            row = run_throughput("large", seed=s, system=system)
        problems = list(check_system(system)) if s == seeds[-1] else []
        if not row["recovery_detected"]:
            problems.append("the node failure was never recovered")
        rep.op(f"large-{s}", problems)
        rep.work += row["driver_accesses"]
        rep.sim_s += system.sim.now / 1e9
        rep.add(system_counts(system))
        rep.digest[str(s)] = [row[key] for key in (
            "events", "accesses", "driver_accesses", "discarded_pages",
            "writable_page_samples", "samples", "sim_ms")]
    return rep


# -- fault_campaign ----------------------------------------------------------

#: One hardware fault in pmake, one in raytrace, one kernel-data
#: corruption: the Table 7.4 classes every seed contains.  ``sw_cow_tree``
#: is left out: its ``self_pointer`` corruption (seed % 4 == 3, so also
#: seed 1995) is injected but never detected, and a benchmark operation
#: may not fail on a quarter of the seeds.
SCENARIOS = ("hw_random", "hw_cow_search", "sw_address_map")


def fault_campaign(seed: int, clock: Clock, quick: bool) -> Rep:
    """Three Table 7.4 trials inline, observers attached as campaigns
    attach them."""
    rep = Rep()
    with clock.span("bench.parallel.campaign_s") as campaign:
        payload = run_inject_campaign(list(SCENARIOS), trials=1,
                                      seed_base=seed, workers=1)
    crashed = {f["scenario"]: f["error"]
               for f in payload.get("failures", [])}
    audits = payload.get("audit", {}).get("trials", {})
    contained = 0
    for scenario in SCENARIOS:
        problems = []
        if scenario in crashed:
            problems.append(crashed[scenario].strip().splitlines()[-1])
        else:
            trial = payload["summaries"][scenario].trials[0]
            contained += trial.contained
            if not trial.contained:
                problems.append(
                    f"{scenario} seed {trial.seed} NOT CONTAINED "
                    f"(detected={trial.detected}, "
                    f"outputs_ok={trial.outputs_ok}, "
                    f"check_ok={trial.check_ok}) {trial.notes}".strip())
            rep.digest[scenario] = trial.to_dict()
        verdict = audits.get(f"{scenario}-{seed}", {}).get("verdict")
        if verdict != "contained":
            problems.append(f"containment audit verdict: {verdict}")
        rep.op(f"{scenario}-{seed}", problems)
    rep.work = len(SCENARIOS)
    availability = payload["availability"]
    rep.sim_s = availability["horizon_ns"] / 1e9
    rep.digest["horizon_ns"] = availability["horizon_ns"]
    setup = payload["snapshot"]
    clock.note("bench.faultexp.setup_s",
               setup["setup_wall_s_mean"] * setup["trials"], campaign)
    audit = payload.get("audit", {}).get("summary", {})
    rep.counts = {
        "rpc_fast": payload["tiers"]["rpc"]["fast_path"],
        "rpc_calls": payload["tiers"]["rpc"]["calls_total"],
        "memo_hits": payload["tiers"]["coherence"]["memo_hits"],
        "batches": payload["tiers"]["coherence"]["batches_total"],
        "recovery_rounds": availability["rounds_recovered"],
        "detect_ms_p50": availability["detection_latency_ns"]["p50"] / 1e6,
        "round_ms_p50": availability["recovery_latency_ns"]["p50"] / 1e6,
        "contained": contained,
        "trials": len(SCENARIOS),
        "absorbed": audit.get("by_verdict", {}).get("absorbed", 0),
    }
    return rep


def fault_campaign_counts(seed: int) -> Dict[str, float]:
    """The counts a campaign payload does not carry (events, page
    faults, SIPS sends): the same three trials run once more, untimed,
    through the runner's ``on_boot`` hook to get hold of the systems.
    Traced runs only."""
    systems: List[object] = []
    runner = FaultExperimentRunner(agreement="oracle",
                                   on_boot=systems.append)
    for scenario in SCENARIOS:
        runner.run_trial(scenario, seed)
    totals: Counter = Counter()
    for system in systems:
        totals.update(system_counts(system))
    return {key: totals[key] for key in (
        "events", "accesses", "directory_size", "sips_sends",
        "rpc_retries", "remote_faults", "page_faults")}


# -- sessions ----------------------------------------------------------------


def sessions(seed: int, clock: Clock, quick: bool) -> Rep:
    """Open-loop session traffic twice: lognormal service with failover,
    Pareto service without.  Open loop in simulated time: the host never
    waits on arrivals, so there is no generator lateness to report."""
    rep = Rep()
    count = 200_000 if quick else 3_000_000
    runs = (
        ("failover", SessionTrafficConfig(
            sessions=count, seed=seed, service="lognormal",
            probe_every=2000, inject_ms=200)),
        ("nofailover", SessionTrafficConfig(
            sessions=count, seed=seed + 12, service="pareto",
            failover=False, probe_every=2000, inject_ms=200)),
    )
    for label, cfg in runs:
        with clock.span(f"workloads.sessions.run_s.{label}") as run:
            row = run_sessions(cfg)
        clock.note("core.hive.boot_s", row["boot_wall_s"], run)
        problems = []
        if row["probes_completed"] != row["probes_launched"]:
            problems.append(
                f"{row['probes_launched'] - row['probes_completed']} "
                f"probe sessions lost")
        if row["completed"] + row["lost"] + row["lost_arrivals"] \
                != row["sessions"]:
            problems.append("sessions unaccounted for")
        if not row["faults"]:
            problems.append("the node failure was never injected")
        rep.op(label, problems)
        rep.work += row["sessions"]
        rep.sim_s += row["sim_horizon_ms"] / 1e3
        rep.digest[label] = [row[key] for key in (
            "completed", "lost", "lost_arrivals", "sim_horizon_ms",
            "latency_p50_ms", "latency_p99_ms", "coupling_accesses",
            "probes_completed")]
        rep.add({"accesses": row["coupling_accesses"]})
        if label == "failover":
            # The run a user of the frontend would quote.
            rep.counts.update({
                "lost_per_fault": row["sessions_lost_per_fault"],
                "latency_p50_ms": row["latency_p50_ms"],
                "latency_p99_ms": row["latency_p99_ms"],
            })
    return rep


#: workload name -> its repetition function (metrics.WORKLOADS has the
#: reasons and repetition counts, importable without ``repro``).
REP_FUNCTIONS: Dict[str, Callable[[int, Clock, bool], Rep]] = {
    "paper_apps": paper_apps,
    "coherence_storm": coherence_storm,
    "fault_campaign": fault_campaign,
    "sessions": sessions,
}

#: counts a workload's result rows do not carry, collected by one more
#: untimed pass in traced runs.
EXTRA_COUNTS: Dict[str, Callable[[int], Dict[str, float]]] = {
    "fault_campaign": fault_campaign_counts,
}
