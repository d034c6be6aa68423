"""Campaign runner for benchmarks and fault injection.

The paper's evaluation sweeps many machine sizes and many fault
scenarios (Tables 7.2-7.4); each cell of such a sweep is an isolated,
seed-deterministic simulation, so the sweep parallelizes perfectly
across processes.  :func:`run_suite` and :func:`run_inject_campaign`
shard ``(config, seed, repeat)`` / ``(scenario, seed)`` cells over a
``multiprocessing`` pool — or, at one worker, run them in this process
in order — and merge the per-shard JSON payloads into one report.
Every shard starts through :func:`repro.sim.snapshot.run_booted`.

Design rules:

* every worker is a module-level function taking one picklable tuple,
  so the pool works under both ``fork`` and ``spawn`` start methods;
* a worker never raises — it returns an ``{"status": "error"}`` shard
  carrying the traceback, so one crashed cell doesn't kill the sweep
  and the merged report can say exactly which cell failed;
* the merger *verifies* determinism: repeats of the same cell must
  agree on every simulated counter, and two shards claiming the same
  cell are an error, not a silent overwrite.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.faultexp import (
    PAPER_TABLE_7_4,
    FaultExperimentRunner,
    FaultTrialResult,
    ScenarioSummary,
    boot_faultexp_system,
)
from repro.bench.throughput import BENCH_SCHEMA, CONFIGS, run_throughput
from repro.obs.availability import merge_availability
from repro.obs.profile import merge_tier_snapshots
from repro.obs.provenance import merge_audits
from repro.sim.oplog import divergence_point, event_rows
from repro.sim.snapshot import run_booted


class CampaignError(RuntimeError):
    """A campaign produced shards that cannot be merged coherently."""


#: simulated counters that must be identical across repeats of one cell
DETERMINISTIC_KEYS = ("events", "accesses", "driver_accesses",
                      "discarded_pages", "writable_page_samples", "samples")


def _heartbeat(done: int, total: int, label: str, sim_ms: float,
               events: int, wall_s: float, extra: str = "") -> None:
    """One campaign progress line on stderr (``--progress`` runs)."""
    rate = events / wall_s if wall_s > 0 else 0.0
    sys.stderr.write(
        f"[campaign] shard {done}/{total} {label}: "
        f"sim-time {sim_ms:.0f} ms, {rate:,.0f} events/s{extra}\n")
    sys.stderr.flush()


def _run_shards(shards, worker, procs: int, on_shard=None) -> list:
    """Run the shard list, serially or on a pool.

    Completed shards stream through ``on_shard`` (the heartbeat hook) in
    completion order; the returned list is NOT order-stable under a
    pool — callers must sort by shard key before merging, or the merged
    payload would depend on scheduling.
    """
    if procs <= 1:
        raw = []
        for i, shard in enumerate(shards):
            result = worker(shard)
            raw.append(result)
            if on_shard is not None:
                on_shard(i + 1, result)
        return raw
    raw = []
    with _pool_context().Pool(processes=procs) as pool:
        for i, result in enumerate(
                pool.imap_unordered(worker, shards, chunksize=1)):
            raw.append(result)
            if on_shard is not None:
                on_shard(i + 1, result)
    return raw


def _pool_context():
    """Prefer ``fork`` (no re-import cost); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _effective_workers(requested: int) -> int:
    """Cap the pool at the machine's core count.

    Each shard is a CPU-bound single-threaded simulation, so running
    more of them than there are cores only adds contention: every
    shard's wall clock (and thus its reported events/sec) inflates
    while the campaign finishes no sooner.  ``--parallel 8`` on a
    2-core box therefore behaves like ``make -j``: up to 8, bounded
    by the hardware.
    """
    return max(1, min(requested, os.cpu_count() or requested))


def _warn_cpu_cap(workers: int, procs: int) -> bool:
    """True (and one stderr line) when the pool was capped by the host.

    A capped pool is not an error — the campaign still completes — but
    per-shard wall clocks are measured under a smaller pool than asked
    for, so the payload records it instead of shrinking silently.
    """
    capped = procs < workers
    if capped:
        sys.stderr.write(
            f"[campaign] warning: --parallel {workers} capped to "
            f"{procs} worker{'s' if procs != 1 else ''} "
            f"({os.cpu_count()} CPUs on this host)\n")
        sys.stderr.flush()
    return capped


# -- throughput bench campaign ---------------------------------------------


def _bench_shard_worker(shard: Tuple[str, int, int, bool]) -> dict:
    """One (config, seed, repeat) cell; runs in a pool worker process."""
    config, seed, repeat, snapshot = shard
    try:
        row = run_throughput(config, seed=seed, snapshot=snapshot)
        return {"status": "ok", "config": config, "seed": seed,
                "repeat": repeat, "row": row}
    except Exception:
        return {"status": "error", "config": config, "seed": seed,
                "repeat": repeat, "error": traceback.format_exc()}


def best_of(rows: Sequence[dict], keys: Sequence[str], what: str) -> dict:
    """The fastest of ``rows``, repeats of one seed-deterministic run.

    Timeit-style best-of: external load only ever slows a run down, so
    the minimum wall time is the least noisy estimate — but the spread
    is stamped on the row too (``wall_s_min`` / ``_max`` / ``_mean``,
    ``repeats``), so a regression cannot hide behind one lucky repeat.
    That the repeats agree on every simulated counter in ``keys`` is
    verified, not assumed: :class:`CampaignError` otherwise.
    """
    best = rows[0]
    for i, row in enumerate(rows):
        for key in keys:
            if row[key] != best[key]:
                raise CampaignError(
                    f"non-deterministic repeats for {what}: "
                    f"{key} {row[key]} != {best[key]} (repeat {i})")
        if row["wall_s"] < best["wall_s"]:
            best = row
    walls = [row["wall_s"] for row in rows]
    best["repeats"] = len(rows)
    best["wall_s_min"] = round(min(walls), 4)
    best["wall_s_max"] = round(max(walls), 4)
    best["wall_s_mean"] = round(sum(walls) / len(walls), 4)
    return best


def merge_bench_shards(shards: Sequence[dict], seed: int) -> dict:
    """Merge bench shard payloads into one ``run_suite``-shaped report.

    Raises :class:`CampaignError` for an empty shard list, for two
    shards claiming the same ``(config, repeat)`` cell, and for repeats
    of one config that disagree on a simulated counter (determinism
    violation).  Failed shards are reported under ``"failures"`` rather
    than raising, so a sweep with one crashed cell still yields the
    other cells' results plus a diagnosis.
    """
    if not shards:
        raise CampaignError("no shards to merge (empty campaign)")
    seen: set = set()
    by_config: Dict[str, List[dict]] = {}
    failures: List[dict] = []
    for shard in shards:
        key = (shard["config"], shard["repeat"])
        if key in seen:
            raise CampaignError(
                f"overlapping shards for cell {key!r}: each "
                f"(config, repeat) must be produced exactly once")
        seen.add(key)
        if shard["status"] != "ok":
            failures.append({"config": shard["config"],
                             "seed": shard["seed"],
                             "repeat": shard["repeat"],
                             "error": shard.get("error", "unknown")})
            continue
        by_config.setdefault(shard["config"], []).append(shard)
    results = {}
    for config, cells in by_config.items():
        cells.sort(key=lambda s: s["repeat"])
        results[config] = best_of([cell["row"] for cell in cells],
                                  DETERMINISTIC_KEYS, repr(config))
    payload = {"schema": BENCH_SCHEMA, "seed": seed, "results": results}
    if failures:
        payload["failures"] = failures
    return payload


def run_suite(configs: Optional[List[str]] = None,
              seed: int = 1995, repeats: int = 1, workers: int = 1,
              progress: bool = False, snapshot: bool = False) -> dict:
    """Run the throughput scenario at the requested sizes, ``repeats``
    times each, on ``workers`` processes (one: in this process, in
    order); returns the bench payload.

    ``results`` holds the :func:`best_of` row per config, ``failures``
    the ``(config, repeat)`` cells that raised, and ``"parallel"`` the
    pool size, the campaign wall clock and the summed per-shard wall
    clock (the serial-equivalent cost a pool amortized).  ``snapshot``
    forks every repeat from its config's image instead of booting it.
    ``progress`` prints one heartbeat line per completed shard on
    stderr (the CLI turns it on; library callers and tests stay
    silent).
    """
    names = list(configs) if configs else list(CONFIGS)
    shards = [(name, seed, r, snapshot)
              for name in names for r in range(max(1, repeats))]
    # Longest shards first so the big config doesn't trail the pool.
    shards.sort(key=lambda s: CONFIGS[s[0]].num_nodes
                * CONFIGS[s[0]].duration_ms, reverse=True)
    procs = _effective_workers(workers)
    cpu_capped = _warn_cpu_cap(workers, procs)

    def on_shard(done: int, shard: dict) -> None:
        if shard["status"] != "ok":
            _heartbeat(done, len(shards),
                       f"{shard['config']} repeat {shard['repeat']}",
                       0.0, 0, 0.0, "  FAILED")
            return
        row = shard["row"]
        _heartbeat(done, len(shards),
                   f"{shard['config']} repeat {shard['repeat']}",
                   row["sim_ms"], row["events"], row["wall_s"])

    wall0 = time.perf_counter()
    raw = _run_shards(shards, _bench_shard_worker, procs,
                      on_shard=on_shard if progress else None)
    campaign_wall = time.perf_counter() - wall0
    # Completion order is scheduling-dependent; restore the shard-key
    # order so every derived payload is byte-stable for a given seed.
    raw.sort(key=lambda s: (s["config"], s["repeat"]))
    payload = merge_bench_shards(raw, seed=seed)
    # Per-shard setup cost: a fresh boot, or (forked shards) the fork
    # wall — the amortization --snapshot buys shows up right here.
    shard_walls = [s["row"]["wall_s"]
                   + (s["row"].get("fork_wall_s", 0.0)
                      if s["row"].get("snapshot") == "fork"
                      else s["row"]["boot_wall_s"])
                   for s in raw if s["status"] == "ok"]
    payload["parallel"] = {
        "workers": workers,
        "effective_workers": procs,
        "shards": len(shards),
        "campaign_wall_s": round(campaign_wall, 4),
        "shard_wall_s_total": round(sum(shard_walls), 4),
        "cpu_count": os.cpu_count(),
        "cpu_capped": cpu_capped,
    }
    return payload


# -- fault-injection campaign ----------------------------------------------


def _trial_payload(system, scenario: str, seed: int,
                   fault_seed: Optional[int], agreement: str,
                   telemetry_dir: Optional[str], capture: bool) -> dict:
    """Attach observers, run one trial on a booted system, collect.

    Module-level so it can cross an image's request pipe: the same
    body serves fresh-boot shards (called in-process) and
    snapshot shards (called inside the forked child, where the
    observer attachment must happen — a fork inherits the *unobserved*
    image, so attaching here is what keeps telemetry from silently
    depending on a fresh boot).
    """
    from repro.obs import (attach_flight_recorder, attach_provenance,
                           availability_report, maybe_attach_watchdog,
                           tier_snapshot)

    recorder = attach_flight_recorder(system)
    # Provenance hooks are inert until a fault fires, so every
    # campaign trial carries a containment audit for free.
    tracer = attach_provenance(system)
    watchdog = maybe_attach_watchdog(system)

    wall0 = time.perf_counter()
    runner = FaultExperimentRunner(agreement=agreement)
    trial = runner.run_trial_on(system, scenario, seed,
                                fault_seed=fault_seed)
    wall_s = time.perf_counter() - wall0
    out: dict = {"status": "ok", "scenario": scenario, "seed": seed,
                 "fault_seed": fault_seed, "trial": trial.to_dict()}
    out["availability"] = availability_report(recorder, system)
    out["tiers"] = tier_snapshot(system)
    out["audit"] = tracer.audit_report()
    if watchdog is not None:
        out["watchdog"] = watchdog.report()
    out["heartbeat"] = {"sim_ms": system.sim.now / 1e6,
                        "events": system.sim.events_processed,
                        "wall_s": round(wall_s, 4)}
    if capture:
        out["event_rows"] = event_rows(recorder.events)
    if telemetry_dir:
        from repro.obs import write_telemetry
        shard_dir = os.path.join(
            telemetry_dir,
            f"{scenario}-{seed}" if fault_seed is None
            else f"{scenario}-{seed}-f{fault_seed}")
        write_telemetry(shard_dir, recorder, system)
        out["telemetry_dir"] = shard_dir
    return out


def _inject_shard_worker(
        shard: Tuple[str, int, Optional[int], str, Optional[str],
                     bool, bool]) -> dict:
    """One (scenario, seed, fault_seed) trial; runs in a pool worker.

    Every trial records a flight recorder (the spans are deterministic
    and the recording cost is noise next to the trial itself) and ships
    its availability ledger and tier counters back as JSON-safe dicts,
    so the merged campaign report carries recovery-latency percentiles
    and per-cell availability even when no telemetry dir was requested.
    ``capture`` additionally ships the recorder's event rows (replay
    campaigns diff every trial against trial 0 at merge time).
    ``snapshot`` forks the trial's system from the worker's image
    instead of booting; the golden contract keeps either path
    byte-identical, and ``out["setup"]`` records which was paid.
    """
    (scenario, seed, fault_seed, agreement, telemetry_dir, capture,
     snapshot) = shard
    try:
        out, setup = run_booted(
            boot_faultexp_system, (agreement,), _trial_payload, scenario,
            seed, fault_seed, agreement, telemetry_dir, capture,
            seed=seed, snapshot=snapshot)
        out["setup"] = setup
        return out
    except Exception:
        return {"status": "error", "scenario": scenario, "seed": seed,
                "fault_seed": fault_seed,
                "error": traceback.format_exc()}


def merge_inject_shards(shards: Sequence[dict]) -> dict:
    """Merge trial shards into the ``inject`` scenario report shape."""
    if not shards:
        raise CampaignError("no shards to merge (empty campaign)")
    seen: set = set()
    summaries: Dict[str, ScenarioSummary] = {}
    telemetry_dirs: List[str] = []
    failures: List[dict] = []
    avail_labels: List[str] = []
    avail_reports: List[dict] = []
    tier_snaps: List[dict] = []
    audit_labels: List[str] = []
    audit_reports: List[dict] = []
    watchdogs: Dict[str, dict] = {}
    event_logs: Dict[str, list] = {}
    for shard in shards:
        key = (shard["scenario"], shard["seed"], shard.get("fault_seed"))
        if key in seen:
            raise CampaignError(
                f"overlapping shards for trial {key!r}: each "
                f"(scenario, seed, fault_seed) must be produced "
                f"exactly once")
        seen.add(key)
        if shard["status"] != "ok":
            failure = {"scenario": shard["scenario"],
                       "seed": shard["seed"],
                       "error": shard.get("error", "unknown")}
            if shard.get("fault_seed") is not None:
                failure["fault_seed"] = shard["fault_seed"]
            failures.append(failure)
            continue
        summary = summaries.setdefault(
            shard["scenario"], ScenarioSummary(scenario=shard["scenario"]))
        summary.trials.append(FaultTrialResult.from_dict(shard["trial"]))
        fseed = shard.get("fault_seed")
        label = (f"{shard['scenario']}-{shard['seed']}" if fseed is None
                 else f"{shard['scenario']}-{shard['seed']}-f{fseed}")
        if shard.get("availability"):
            avail_labels.append(label)
            avail_reports.append(shard["availability"])
        if shard.get("tiers"):
            tier_snaps.append(shard["tiers"])
        if shard.get("audit"):
            audit_labels.append(label)
            audit_reports.append(shard["audit"])
        if shard.get("watchdog"):
            watchdogs[label] = shard["watchdog"]
        if shard.get("telemetry_dir"):
            telemetry_dirs.append(shard["telemetry_dir"])
        if shard.get("event_rows") is not None:
            event_logs.setdefault(shard["scenario"], []).append(
                (shard.get("fault_seed"), shard["event_rows"]))
    for summary in summaries.values():
        summary.trials.sort(
            key=lambda t: (t.seed,
                           t.seed if t.fault_seed is None else t.fault_seed))
    scenarios = {}
    for scenario, summary in summaries.items():
        workload, _n, avg, mx = PAPER_TABLE_7_4[scenario]
        have_latencies = bool(summary.latencies_ms)
        scenarios[scenario] = {
            "workload": workload,
            "trials": len(summary.trials),
            "contained": summary.contained_count,
            "detection_avg_ms": (summary.avg_latency_ms
                                 if have_latencies else None),
            "detection_max_ms": (summary.max_latency_ms
                                 if have_latencies else None),
            "paper_avg_ms": avg,
            "paper_max_ms": mx,
            "latencies_ms": summary.latencies_ms,
        }
    payload: dict = {"scenarios": scenarios, "summaries": summaries}
    if avail_reports:
        # Shards arrive pre-sorted by (scenario, seed) from the campaign
        # runner; the zip keeps labels aligned either way.
        order = sorted(range(len(avail_labels)),
                       key=lambda i: avail_labels[i])
        payload["availability"] = merge_availability(
            [avail_reports[i] for i in order],
            labels=[avail_labels[i] for i in order])
    if tier_snaps:
        payload["tiers"] = merge_tier_snapshots(tier_snaps)
    if audit_reports:
        payload["audit"] = merge_audits(audit_reports, audit_labels)
    if watchdogs:
        payload["watchdog"] = watchdogs
    if telemetry_dirs:
        payload["telemetry_dirs"] = sorted(telemetry_dirs)
    if event_logs:
        payload["replay"] = _merge_replay_streams(event_logs)
    if failures:
        payload["failures"] = failures
    return payload


def _merge_replay_streams(event_logs: Dict[str, list]) -> dict:
    """Diff each scenario's trial streams against its trial 0.

    ``event_logs`` maps scenario -> [(fault_seed, event rows), ...].
    Trial 0 is the stream with the smallest fault seed (the campaign
    records it first); every other trial executes the same traffic, so
    its divergence point localizes exactly where the moved fault
    schedule pushed the run off the recorded timeline.
    """
    out: Dict[str, dict] = {}
    for scenario, entries in sorted(event_logs.items()):
        entries = sorted(entries, key=lambda e: (e[0] is not None, e[0]))
        base_seed, base = entries[0]
        trials = []
        for fault_seed, rows in entries[1:]:
            div = divergence_point(base, rows)
            div["fault_seed"] = fault_seed
            trials.append(div)
        out[scenario] = {
            "base_fault_seed": base_seed,
            "trace_rows": len(base),
            "trials": trials,
        }
    return out


def run_inject_campaign(scenarios: List[str], trials: int,
                        seed_base: int = 1995, workers: int = 2,
                        agreement: str = "oracle",
                        telemetry_dir: Optional[str] = None,
                        progress: bool = False,
                        replay: bool = False,
                        snapshot: bool = False) -> dict:
    """Shard Table 7.4 trials across a process pool and merge.

    Each trial is one shard — the slowest scenario (sw_cow_tree) runs
    minutes-long trials, so trial granularity keeps the pool busy.
    ``progress`` prints one heartbeat line per completed trial.

    ``replay`` switches the sweep to record-once form: every trial of
    a scenario runs the *same* workload seed and only the fault seed
    moves, each shard ships its recorder's event rows, and the merged
    payload's ``"replay"`` section diffs trials 1..N against trial 0
    (identical-prefix length, divergence time).  Composes with any
    worker count — the streams are diffed at merge time, so no shard
    depends on another's output.

    ``snapshot`` forks each trial's system from its worker process's
    image instead of booting it fresh — the campaign
    amortizes boot entirely, and the merged payload's ``"snapshot"``
    section records per-trial setup wall vs the fresh-boot wall it
    replaced (``amortization_x``).  Counters stay byte-identical
    either way (the snapshot golden contract).
    """
    if replay:
        shards = [(scenario, seed_base, seed_base + i, agreement,
                   telemetry_dir, True, snapshot)
                  for scenario in scenarios for i in range(trials)]
    else:
        shards = [(scenario, seed_base + i, None, agreement,
                   telemetry_dir, False, snapshot)
                  for scenario in scenarios for i in range(trials)]
    # The historically slowest scenarios first (paper latency order).
    slow = {s: PAPER_TABLE_7_4[s][2] for s in PAPER_TABLE_7_4}
    shards.sort(key=lambda s: slow.get(s[0], 0), reverse=True)
    procs = _effective_workers(workers)
    cpu_capped = _warn_cpu_cap(workers, procs)

    def on_shard(done: int, shard: dict) -> None:
        label = f"{shard['scenario']} seed {shard['seed']}"
        if shard["status"] != "ok":
            _heartbeat(done, len(shards), label, 0.0, 0, 0.0, "  FAILED")
            return
        hb = shard.get("heartbeat")
        extra = ("  contained" if shard["trial"].get("contained")
                 else "  NOT contained")
        if hb is None:
            _heartbeat(done, len(shards), label, 0.0, 0, 0.0, extra)
        else:
            _heartbeat(done, len(shards), label, hb["sim_ms"],
                       hb["events"], hb["wall_s"], extra)

    wall0 = time.perf_counter()
    raw = _run_shards(shards, _inject_shard_worker, procs,
                      on_shard=on_shard if progress else None)
    campaign_wall = time.perf_counter() - wall0
    # Pool completion order is scheduling-dependent; sort by shard key
    # so the merged payload is byte-stable for a given seed base.
    raw.sort(key=lambda s: (s["scenario"], s["seed"],
                            s.get("fault_seed") or -1))
    payload = merge_inject_shards(raw)
    setups = [s["setup"] for s in raw
              if s.get("status") == "ok" and s.get("setup")]
    if setups:
        setup_walls = [s["setup_wall_s"] for s in setups]
        boot_walls = [s["boot_wall_s"] for s in setups]
        mean_setup = sum(setup_walls) / len(setup_walls)
        mean_boot = sum(boot_walls) / len(boot_walls)
        payload["snapshot"] = {
            "requested": snapshot,
            "mode": ("fork" if any(s["mode"] == "fork" for s in setups)
                     else "boot"),
            "trials": len(setups),
            "setup_wall_s_mean": round(mean_setup, 6),
            "setup_wall_s_max": round(max(setup_walls), 6),
            "boot_wall_s_mean": round(mean_boot, 6),
            "amortization_x": (round(mean_boot / mean_setup, 2)
                               if mean_setup > 0 else None),
        }
    payload["parallel"] = {
        "workers": workers,
        "effective_workers": procs,
        "shards": len(shards),
        "campaign_wall_s": round(campaign_wall, 4),
        "cpu_count": os.cpu_count(),
        "cpu_capped": cpu_capped,
    }
    return payload
