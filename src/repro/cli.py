"""Command-line interface: run workloads and experiments without code.

Usage::

    python -m repro run pmake --cells 4
    python -m repro run ocean --irix
    python -m repro run pmake --telemetry-out /tmp/telemetry
    python -m repro micro
    python -m repro inject hw_random --trials 3
    python -m repro inject sw_cow_tree --agreement voting
    python -m repro trace pmake
    python -m repro metrics raytrace --format json
    python -m repro report --trials 2 --parallel 4
    python -m repro report --check --out report.md

``run`` executes one of the paper's workloads on a chosen configuration
and prints the elapsed simulated time and health counters; ``micro``
prints the microbenchmark anchors against the paper's values; ``inject``
runs Table 7.4 fault-injection trials and reports containment; ``trace``
runs a workload under the flight recorder and prints the span summary;
``metrics`` prints the per-cell per-subsystem metrics snapshot;
``report`` runs (or loads) a fault-injection campaign and renders the
campaign observatory report — containment, per-cell availability,
recovery-latency percentiles, the containment audit and hot-path tier
hit rates.
``--telemetry-out DIR`` on run/inject/micro additionally writes the
machine-readable artifacts (JSONL spans, Chrome trace, metrics snapshot,
fault timeline, ``summary.json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.faultexp import ALL_SCENARIOS
from repro.bench.report import ComparisonTable
from repro.core.hive import boot_hive, boot_irix
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs import (
    attach_flight_recorder,
    load_jsonl,
    open_artifact,
    render_fault_timeline,
    render_snapshot,
    snapshot_system,
    write_bench_summary,
    write_telemetry,
)
from repro.sim.engine import Simulator
from repro.workloads import (
    OceanWorkload,
    Platform,
    PmakeWorkload,
    RaytraceWorkload,
)

WORKLOADS = {
    "pmake": PmakeWorkload,
    "ocean": OceanWorkload,
    "raytrace": RaytraceWorkload,
}


def _build_platform(args) -> Platform:
    params = HardwareParams(num_nodes=args.nodes,
                            cpus_per_node=args.cpus_per_node)
    sim = Simulator()
    if args.irix:
        kernel = boot_irix(sim, machine_config=MachineConfig(
            params=params, seed=args.seed, firewall_enabled=False))
        target = kernel
    else:
        target = boot_hive(sim, num_cells=args.cells,
                           machine_config=MachineConfig(params=params,
                                                        seed=args.seed),
                           agreement=args.agreement,
                           with_wax=args.wax)
    namespace = target.namespace
    namespace.mount("/tmp", 1 % args.nodes)
    namespace.mount("/usr", 2 % args.nodes)
    namespace.mount("/results", 0)
    return Platform(target)


def cmd_run(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    if args.telemetry_out and args.irix:
        print("error: --telemetry-out requires a Hive configuration "
              "(the flight recorder instruments cells)", file=sys.stderr)
        return 2
    platform = _build_platform(args)
    recorder = None
    if args.telemetry_out:
        recorder = attach_flight_recorder(platform.target)
    config = "IRIX" if args.irix else f"{args.cells}-cell Hive"
    print(f"running {args.workload} on {config} "
          f"({args.nodes} nodes, seed {args.seed})...")
    result = workload_cls().run(platform)
    print(f"elapsed (simulated) : {result.elapsed_s:.3f} s")
    print(f"jobs completed      : {result.jobs_completed}")
    print(f"jobs failed         : {result.jobs_failed}")
    print(f"outputs verified    : {result.outputs_ok}")
    if not args.irix:
        hive = platform.target
        print(f"remote page faults  : "
              f"{hive.total_counter('faults.remote')}")
        problems = check_system(hive)
        print(f"invariant check     : "
              f"{'clean' if not problems else problems}")
        if problems:
            return 1
    if recorder is not None:
        bench = {
            "command": "run",
            "workload": args.workload,
            "cells": args.cells,
            "nodes": args.nodes,
            "seed": args.seed,
            "elapsed_s": result.elapsed_s,
            "jobs_completed": result.jobs_completed,
            "jobs_failed": result.jobs_failed,
            "outputs_ok": result.outputs_ok,
            "spans": len(recorder.spans),
            "events": len(recorder.events),
            "spans_dropped": recorder.spans_dropped,
            "events_dropped": recorder.events_dropped,
        }
        paths = write_telemetry(args.telemetry_out, recorder,
                                platform.target, bench=bench,
                                compress=args.telemetry_compress)
        print(f"telemetry written   : {args.telemetry_out} "
              f"({', '.join(sorted(paths))})")
    return 0 if result.outputs_ok and result.jobs_failed == 0 else 1


def _run_traced(args):
    """Boot a Hive, attach the recorder, run the workload; no fault."""
    workload_cls = WORKLOADS[args.workload]
    platform = _build_platform(args)
    recorder = attach_flight_recorder(platform.target)
    result = workload_cls().run(platform)
    return platform.target, recorder, result


def _print_span_summary(records) -> None:
    """Records by subsystem and spans by name, from ``spans.jsonl``
    records (a saved artifact's, or a live recorder's)."""
    counts = {}
    by_name = {}
    for rec in records:
        counts[rec["category"]] = counts.get(rec["category"], 0) + 1
        if rec["type"] == "span":
            entry = by_name.setdefault(rec["name"], [0, 0])
            entry[0] += 1
            if rec["end_ns"] is not None:
                entry[1] += rec["end_ns"] - rec["start_ns"]
    print()
    print("records by subsystem:")
    for category in sorted(counts):
        print(f"  {category:>10}: {counts[category]}")
    print()
    print("spans by name (count, total simulated time):")
    for name in sorted(by_name):
        count, total = by_name[name]
        print(f"  {name:<22} {count:>7}  {total / 1e6:12.3f} ms")


def cmd_trace(args) -> int:
    if args.from_spans:
        # load_jsonl reads through open_artifact, so gzipped telemetry
        # (--telemetry-compress) loads exactly like a plain file.
        records = load_jsonl(args.from_spans)
        spans = sum(1 for r in records if r["type"] == "span")
        print(f"{args.from_spans}: {spans} spans, "
              f"{len(records) - spans} events")
        _print_span_summary(records)
        return 0
    system, recorder, result = _run_traced(args)
    print(f"{args.workload} on {args.cells}-cell Hive "
          f"(seed {args.seed}): {result.elapsed_s:.3f} s simulated, "
          f"{len(recorder.spans)} spans, {len(recorder.events)} events")
    _print_span_summary([r.to_dict() for r in (*recorder.spans,
                                               *recorder.events)])
    print()
    print(render_fault_timeline(recorder))
    if recorder.spans_dropped or recorder.events_dropped:
        print(f"(ring buffer dropped {recorder.spans_dropped} spans, "
              f"{recorder.events_dropped} events)")
    return 0


def cmd_metrics(args) -> int:
    system, recorder, result = _run_traced(args)
    snap = snapshot_system(system)
    if args.format == "json":
        import json

        # sort_keys gives a byte-stable key order for diffing/golden
        # files; the table renderer sorts internally already.
        print(json.dumps(snap, sort_keys=True, indent=2))
    else:
        print(render_snapshot(snap))
    return 0


def _scenarios(args) -> List[str]:
    return list(ALL_SCENARIOS) if args.scenario == "all" else [args.scenario]


def _campaign(args, **kw) -> dict:
    """The campaign ``inject`` / ``audit`` / ``report`` run from their
    shared flags; failed trials are named on stderr."""
    from repro.bench.parallel import run_inject_campaign

    payload = run_inject_campaign(
        _scenarios(args), trials=args.trials, seed_base=args.seed,
        workers=max(1, args.parallel), agreement=args.agreement,
        progress=args.progress, **kw)
    for failure in payload.get("failures", []):
        print(f"FAILED trial {failure['scenario']!r} seed "
              f"{failure['seed']}:\n{failure['error']}", file=sys.stderr)
    return payload


def _audit_verdict(audit: dict) -> tuple:
    """``(one-line verdict, absorbed count)`` of a merged audit."""
    summary = audit.get("summary", {})
    absorbed = summary.get("by_verdict", {}).get("absorbed", 0)
    return (f"{audit['verdict']} ({summary.get('near_misses', 0)} near "
            f"misses, {absorbed} absorbed)", absorbed)


def cmd_report(args) -> int:
    import json

    from repro.bench.report import (
        campaign_report_json,
        check_campaign_report,
        render_campaign_report,
    )

    if args.from_json:
        with open(args.from_json) as fh:
            payload = json.load(fh)
    else:
        payload = _campaign(args)
    if args.save_campaign:
        # "summaries" holds dataclass objects for the inject CLI; the
        # rest of the payload is JSON-safe and round-trips --from-json.
        safe = {k: v for k, v in payload.items() if k != "summaries"}
        with open(args.save_campaign, "w") as fh:
            json.dump(safe, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"campaign written    : {args.save_campaign}",
              file=sys.stderr)
    if args.format == "json":
        text = json.dumps(campaign_report_json(payload),
                          sort_keys=True, indent=2) + "\n"
    else:
        text = render_campaign_report(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written      : {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.check:
        problems = check_campaign_report(payload)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("report check        : clean", file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    import json

    from repro.obs import render_audit_markdown

    payload = _campaign(args)
    audit = payload.get("audit")
    if audit is None:
        print("error: campaign produced no audit payload", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(audit, sort_keys=True, indent=2) + "\n"
    else:
        text = render_audit_markdown(audit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"audit written       : {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.trace_out:
        from repro.obs.export import audit_to_chrome_trace

        # open_artifact gzips transparently for .json.gz paths, so big
        # propagation DAGs can ship compressed.
        with open_artifact(args.trace_out, "w") as fh:
            json.dump(audit_to_chrome_trace(audit), fh, sort_keys=True)
            fh.write("\n")
        print(f"trace written       : {args.trace_out}", file=sys.stderr)
    verdict, absorbed = _audit_verdict(audit)
    print(f"containment audit   : {verdict}", file=sys.stderr)
    breach = audit["verdict"] == "breach" or absorbed > 0
    return 1 if breach or payload.get("failures") else 0


def cmd_micro(args) -> int:
    from repro.workloads.micro import collect_anchors

    anchors = collect_anchors(args.seed)
    table = ComparisonTable("Microbenchmark anchors (paper vs measured)")
    labels = {
        "local_page_fault": "local page fault",
        "remote_page_fault": "remote page fault",
        "null_rpc": "null RPC",
        "null_queued_rpc": "null queued RPC",
        "careful_reference": "careful reference",
        "open_local": "open (local)",
        "read_4mb_local": "4 MB read (local)",
    }
    for key, label in labels.items():
        entry = anchors[key]
        table.add(label, entry["paper"], entry["measured"], entry["unit"])
    table.print()
    if args.telemetry_out:
        import os
        os.makedirs(args.telemetry_out, exist_ok=True)
        bench = {"command": "micro", "seed": args.seed, "anchors": anchors}
        path = os.path.join(args.telemetry_out, "summary.json")
        write_bench_summary(path, bench)
        print(f"anchors written to {path}")
    return 0


def cmd_inject(args) -> int:
    scenarios = _scenarios(args)
    print(f"fault-injection campaign: {', '.join(scenarios)} x "
          f"{args.trials} trials on {max(1, args.parallel)} workers "
          f"(agreement {args.agreement}, seed base {args.seed})")
    payload = _campaign(args, telemetry_dir=args.telemetry_out,
                        replay=args.replay, snapshot=args.snapshot)
    uncontained = 0
    for scenario in scenarios:
        row = payload["scenarios"].get(scenario)
        if row is None:
            continue
        avg = (f"{row['detection_avg_ms']:.1f}"
               if row["detection_avg_ms"] is not None else "n/a")
        mx = (f"{row['detection_max_ms']:.1f}"
              if row["detection_max_ms"] is not None else "n/a")
        print(f"{scenario} ({row['workload']}): "
              f"contained {row['contained']}/{row['trials']}, "
              f"detection avg {avg} ms / max {mx} ms "
              f"(paper {row['paper_avg_ms']}/{row['paper_max_ms']} ms)")
        if row["contained"] != row["trials"]:
            uncontained += 1
        summary = payload["summaries"][scenario]
        for trial in summary.trials:
            if not trial.contained:
                print(f"   NOT CONTAINED (seed {trial.seed}): "
                      f"{trial.reason}")
    absorbed = 0
    if payload.get("audit") is not None:
        verdict, absorbed = _audit_verdict(payload["audit"])
        print(f"containment audit: {verdict}")
    for scenario in sorted(payload.get("replay", {})):
        row = payload["replay"][scenario]
        print(f"replay streams {scenario}: base fault seed "
              f"{row['base_fault_seed']}, {row['trace_rows']} trace rows")
        for trial in row.get("trials", []):
            div = trial.get("divergence_ns")
            where = (f"diverges at {div / 1e6:.1f} ms "
                     f"(identical prefix {trial['identical_prefix']} rows)"
                     if div is not None else "identical stream")
            print(f"   f{trial['fault_seed']}: {where}")
    par = payload["parallel"]
    print(f"campaign: {par['shards']} trials on "
          f"{par['effective_workers']}/{par['workers']} workers "
          f"({par['cpu_count']} CPUs) in {par['campaign_wall_s']:.2f} s "
          f"wall")
    snap = payload.get("snapshot")
    if snap:
        print(f"   per-trial setup ({snap['mode']}): "
              f"{snap['setup_wall_s_mean'] * 1000:.1f} ms vs boot "
              f"{snap['boot_wall_s_mean'] * 1000:.1f} ms "
              f"({snap['amortization_x']}x over {snap['trials']} trials)")
    for telemetry_dir in payload.get("telemetry_dirs", []):
        print(f"   telemetry written to {telemetry_dir}")
    if args.telemetry_out:
        import os
        os.makedirs(args.telemetry_out, exist_ok=True)
        bench = {"command": "inject", "agreement": args.agreement,
                 "seed": args.seed, "scenarios": payload["scenarios"],
                 "parallel": par}
        write_bench_summary(
            os.path.join(args.telemetry_out, "summary.json"), bench)
    return 1 if payload.get("failures") or uncontained or absorbed else 0


def cmd_sessions(args) -> int:
    from repro.workloads.sessions import SessionTrafficConfig, run_sessions

    try:
        cfg = SessionTrafficConfig(
            sessions=args.sessions, seed=args.seed,
            interarrival=args.interarrival, service=args.service,
            mean_interarrival_ns=args.mean_interarrival_ns,
            mean_service_ns=args.mean_service_ns,
            probe_every=args.probe_every, inject_ms=args.inject_ms,
            victim_cell=args.victim_cell,
            failover=not args.no_failover)
        print(f"session traffic: {cfg.sessions:,} open-loop sessions on "
              f"{args.cells} cells / {args.nodes} nodes (seed {cfg.seed})")
        row = run_sessions(cfg, cells=args.cells, nodes=args.nodes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{row['sessions_per_sec']:>12,.1f} sessions/sec "
          f"({row['wall_s']:.2f} s wall, sim horizon "
          f"{row['sim_horizon_ms']:.0f} ms)")
    print(f"latency p50 {row['latency_p50_ms']:.3f} ms / p99 "
          f"{row['latency_p99_ms']:.3f} ms / mean "
          f"{row['latency_mean_ms']:.3f} ms")
    print(f"completed {row['completed']:,} / lost {row['lost']:,} "
          f"(+{row['lost_arrivals']:,} dead-cell arrivals) over "
          f"{row['faults']} fault(s) -> "
          f"{row['sessions_lost_per_fault']} lost/fault")
    print(f"mix: " + "  ".join(f"{name}={count:,}"
                               for name, count in row["by_type"].items()))
    if row["probes_launched"]:
        print(f"probes: {row['probes_completed']}/"
              f"{row['probes_launched']} kernel probe sessions completed")
    if row["coupling_accesses"]:
        print(f"coupling: {row['coupling_accesses']:,} coherence "
              f"accesses, {row['coupling_retired_cells']} client(s) "
              f"retired by revocation")
    if args.out:
        write_bench_summary(args.out, {"command": "sessions",
                                       "sessions": row})
        print(f"report written      : {args.out}")
    problems = []
    if row["completed"] + row["lost"] + row["lost_arrivals"] \
            != row["sessions"]:
        problems.append("sessions unaccounted for")
    if row["completed"] != sum(row["latency_hist"]["counts"]):
        problems.append("completed sessions differ from the latency "
                        "histogram total")
    if row["probes_completed"] != row["probes_launched"]:
        problems.append("probe sessions lost")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def cmd_bench(args) -> int:
    from repro.bench.throughput import (BENCH_SCHEMA, CONFIGS,
                                        compare_parked, run_throughput)

    names = list(CONFIGS) if args.config == "all" else [args.config]
    print(f"throughput bench: {', '.join(names)} (seed {args.seed}, "
          f"one run each; perfbench times the simulator)")
    results = {}
    for name in names:
        row = results[name] = run_throughput(name, seed=args.seed)
        coh = row["tiers"]["coherence"]
        print(f"{name:>7}: {row['nodes']} nodes / {row['cells']} cells, "
              f"{row['events']} events, {row['accesses']} accesses in "
              f"{row['wall_s']:.2f} s wall "
              f"({row['events_per_sec']:,.0f} events/sec)")
        print(f"         recovery discarded {row['discarded_pages']} "
              f"pages; {coh['memo_hits']} of {coh['batches_total']} "
              f"coherence batches replayed from the memo")
        if not row["recovery_detected"]:
            print("         WARNING: fault was not detected/recovered")
    payload = {"schema": BENCH_SCHEMA, "seed": args.seed, "results": results}
    parked_match = True
    if args.compare_parked:
        print("parked-chain equivalence run (parked vs per-wakeup)...")
        compare = {}
        for name in names:
            result = compare[name] = compare_parked(name, seed=args.seed)
            if not result["match"]:
                parked_match = False
                print(f"COUNTER MISMATCH (parked vs per-wakeup) in "
                      f"{name!r}: {sorted(result['mismatches'])}",
                      file=sys.stderr)
            print(f"{name:>7}: {result['replayed_wakeups']} wakeups "
                  f"replayed in {result['parks']} parks")
        payload["parked_compare"] = {"counters_match": parked_match,
                                     "results": compare}
        print(f"deterministic counters parked vs per-wakeup: "
              f"{'MATCH' if parked_match else 'MISMATCH'}")
    if args.rpc:
        from repro.bench.rpcbench import run_rpc_bench

        print(f"rpc microbench: {', '.join(names)}")
        rpc_results = {}
        for name in names:
            row = rpc_results[name] = run_rpc_bench(name, seed=args.seed)
            print(f"{name:>7}: {row['round_trips']} round trips, "
                  f"{row['round_trips_per_sec']:>10,.0f} rt/sec  "
                  f"mean latency {row['mean_latency_ns']:,.0f} ns")
        payload["rpc"] = {"results": rpc_results}
    if args.out:
        write_bench_summary(args.out, payload)
        print(f"bench written       : {args.out}")
    return 0 if parked_match else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hive (SOSP 1995) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=1995)

    def telemetry(p):
        p.add_argument("--telemetry-out", metavar="DIR", default=None,
                       help="write machine-readable telemetry "
                            "(spans.jsonl, trace.json, metrics.json, "
                            "timeline.txt, summary.json) into DIR")
        p.add_argument("--telemetry-compress", action="store_true",
                       help="gzip the stream artifacts "
                            "(spans.jsonl.gz, trace.json.gz); readers "
                            "like 'repro trace --from-spans' decompress "
                            "transparently")

    def hive_config(p):
        p.add_argument("--cells", type=int, default=4)
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--cpus-per-node", type=int, default=1)
        p.add_argument("--agreement", choices=["voting", "oracle"],
                       default="voting")

    def campaign(p):
        p.add_argument("--trials", type=_positive_int, default=1,
                       help="trials per scenario (default: 1)")
        p.add_argument("--agreement", choices=["voting", "oracle"],
                       default="oracle")
        p.add_argument("--parallel", type=int, default=2, metavar="N",
                       help="worker processes the trials are sharded "
                            "over (default: 2); results are "
                            "byte-identical at any worker count")
        p.add_argument("--progress", action="store_true",
                       help="print a heartbeat line (shard i/N, "
                            "sim-time, events/s) per completed trial")

    p_run = sub.add_parser("run", help="run a paper workload")
    p_run.add_argument("workload", choices=sorted(WORKLOADS))
    hive_config(p_run)
    p_run.add_argument("--irix", action="store_true",
                       help="run on the IRIX baseline instead of Hive")
    p_run.add_argument("--wax", action="store_true",
                       help="boot with the Wax policy process")
    common(p_run)
    telemetry(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run a workload under the flight recorder and "
                      "print the span summary + timeline")
    p_trace.add_argument("workload", nargs="?", default="pmake",
                         choices=sorted(WORKLOADS))
    p_trace.add_argument("--from-spans", metavar="FILE", default=None,
                         help="summarize a saved spans.jsonl (or "
                              "spans.jsonl.gz — decompressed "
                              "transparently) instead of running a "
                              "workload")
    hive_config(p_trace)
    common(p_trace)
    p_trace.set_defaults(fn=cmd_trace, irix=False, wax=False)

    p_metrics = sub.add_parser(
        "metrics", help="run a workload and print the per-cell "
                        "per-subsystem metrics snapshot")
    p_metrics.add_argument("workload", choices=sorted(WORKLOADS))
    p_metrics.add_argument("--format", choices=["table", "json"],
                           default="table",
                           help="output format; both render keys in "
                                "stable sorted order (default: table)")
    hive_config(p_metrics)
    common(p_metrics)
    p_metrics.set_defaults(fn=cmd_metrics, irix=False, wax=False)

    p_micro = sub.add_parser("micro",
                             help="print the microbenchmark anchors")
    common(p_micro)
    telemetry(p_micro)
    p_micro.set_defaults(fn=cmd_micro)

    p_inject = sub.add_parser("inject",
                              help="run Table 7.4 fault-injection trials")
    p_inject.add_argument("scenario",
                          choices=sorted(ALL_SCENARIOS) + ["all"])
    campaign(p_inject)
    p_inject.add_argument("--replay", action="store_true",
                          help="fix the workload seed "
                               "and sweep only the fault seed; each "
                               "trial records its op trace and the "
                               "merge reports where every stream "
                               "diverges from trial 0's")
    p_inject.add_argument("--snapshot", action="store_true",
                          help="fork each trial from a "
                               "per-worker snapshot image instead of "
                               "re-booting (same results, boot paid "
                               "once per worker)")
    common(p_inject)
    telemetry(p_inject)
    p_inject.set_defaults(fn=cmd_inject)

    p_audit = sub.add_parser(
        "audit", help="run fault-injection trials under the provenance "
                      "tracer and render the containment audit: taint "
                      "propagation DAG, near-miss ledger, per-trial "
                      "blocked/discarded/absorbed verdicts")
    p_audit.add_argument("scenario",
                         choices=sorted(ALL_SCENARIOS) + ["all"])
    campaign(p_audit)
    p_audit.add_argument("--format", choices=["markdown", "json"],
                         default="markdown",
                         help="json is byte-stable for golden files")
    p_audit.add_argument("--out", metavar="FILE", default=None,
                         help="write the audit here instead of stdout")
    p_audit.add_argument("--trace-out", metavar="FILE", default=None,
                         help="also write the propagation DAG as a "
                              "Chrome-trace (chrome://tracing) JSON file")
    common(p_audit)
    p_audit.set_defaults(fn=cmd_audit)

    p_bench = sub.add_parser(
        "bench", help="measure simulator throughput (events/sec, "
                      "memory accesses/sec) on a fixed fault scenario")
    p_bench.add_argument("--config",
                         choices=["small", "medium", "large", "all"],
                         default="all")
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="also write the payload as JSON here "
                              "(default: print only)")
    p_bench.add_argument("--rpc", action="store_true",
                         help="also run the RPC round-trip microbench")
    p_bench.add_argument("--compare-parked", action="store_true",
                         help="also run each config per wakeup (no "
                              "wakeup credited) and verify the parked "
                              "default's deterministic counters and "
                              "channel digests match byte-for-byte")
    common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_sessions = sub.add_parser(
        "sessions", help="run the open-loop session-traffic frontend: "
                         "heavy-tailed arrivals, per-cell FCFS server "
                         "pools, sessions-lost-per-fault accounting")
    p_sessions.add_argument("--sessions", type=int, default=1_000_000,
                            help="sessions to generate (default: 1M)")
    p_sessions.add_argument("--cells", type=int, default=4)
    p_sessions.add_argument("--nodes", type=int, default=4)
    p_sessions.add_argument("--interarrival",
                            choices=["lognormal", "pareto"],
                            default="lognormal")
    p_sessions.add_argument("--service",
                            choices=["lognormal", "pareto"],
                            default="pareto")
    p_sessions.add_argument("--mean-interarrival-ns", type=float,
                            default=10_000.0)
    p_sessions.add_argument("--mean-service-ns", type=float,
                            default=200_000.0)
    p_sessions.add_argument("--probe-every", type=int, default=0,
                            metavar="N",
                            help="every Nth session also runs as a real "
                                 "kernel process (default: off)")
    p_sessions.add_argument("--inject-ms", type=int, default=None,
                            metavar="T",
                            help="fail-stop a node of the victim cell "
                                 "at sim time T ms")
    p_sessions.add_argument("--victim-cell", type=int, default=None)
    p_sessions.add_argument("--no-failover", action="store_true",
                            help="arrivals at dead cells are lost "
                                 "instead of re-routed")
    p_sessions.add_argument("--out", metavar="FILE", default=None,
                            help="write the session report JSON here")
    common(p_sessions)
    p_sessions.set_defaults(fn=cmd_sessions)

    p_report = sub.add_parser(
        "report", help="run (or load) a fault-injection campaign and "
                       "render the campaign observatory report: "
                       "availability, recovery-latency percentiles, "
                       "containment audit, tier hit rates")
    p_report.add_argument("--scenario",
                          choices=sorted(ALL_SCENARIOS) + ["all"],
                          default="all")
    campaign(p_report)
    p_report.add_argument("--from-json", metavar="FILE", default=None,
                          help="render a campaign payload saved with "
                               "--save-campaign instead of running one")
    p_report.add_argument("--save-campaign", metavar="FILE", default=None,
                          help="also write the merged campaign payload "
                               "as JSON (feedable back via --from-json)")
    p_report.add_argument("--format", choices=["markdown", "json"],
                          default="markdown")
    p_report.add_argument("--out", metavar="FILE", default=None,
                          help="write the report here instead of stdout")
    p_report.add_argument("--check", action="store_true",
                          help="exit 1 on missing latency percentiles, "
                               "overlapping rounds or a cell confirmed "
                               "dead twice, uncontained/failed trials, "
                               "or tainted interactions absorbed by "
                               "healthy cells")
    common(p_report)
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
