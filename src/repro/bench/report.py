"""Paper-vs-measured report rendering for the benchmark harness, plus
the campaign observatory report (``repro report``).

The campaign report renders the merged fault-injection campaign payload
(availability ledger, hot-path tier counters, containment table) and the
committed ``BENCH_pr*.json`` trajectory into markdown or JSON.  Every
figure in it derives from deterministic simulation counters — wall-clock
rates never appear — so a same-seed campaign renders byte-identically.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

Number = Union[int, float]


@dataclass
class ComparisonRow:
    label: str
    paper: Optional[Number]
    measured: Optional[Number]
    unit: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if not self.paper or not isinstance(self.measured, (int, float)):
            return None
        return self.measured / self.paper


@dataclass
class ComparisonTable:
    """A table of paper-reported vs measured values, printable as text."""

    title: str
    rows: List[ComparisonRow] = field(default_factory=list)

    def add(self, label: str, paper: Optional[Number],
            measured: Optional[Number], unit: str = "") -> None:
        self.rows.append(ComparisonRow(label, paper, measured, unit))

    @staticmethod
    def _fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, str):
            return value
        if isinstance(value, float):
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            return f"{value:.2f}".rstrip("0").rstrip(".")
        return f"{value:,}"

    def render(self) -> str:
        label_w = max([len(r.label) for r in self.rows] + [len("metric")])
        lines = [self.title, "=" * len(self.title)]
        header = (f"{'metric'.ljust(label_w)}  {'paper':>12}  "
                  f"{'measured':>12}  {'ratio':>6}  unit")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
            lines.append(
                f"{row.label.ljust(label_w)}  {self._fmt(row.paper):>12}  "
                f"{self._fmt(row.measured):>12}  {ratio:>6}  {row.unit}")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()


# ---------------------------------------------------------------------------
# campaign observatory report
# ---------------------------------------------------------------------------

#: events/s drop (vs the previous committed bench file) that fails
#: ``repro report --check``.
REGRESSION_THRESHOLD = 0.30

_BENCH_RE = re.compile(r"^BENCH_pr(\d+)\.json$")


def _ms(ns: Number) -> str:
    return f"{ns / 1e6:.3f}"


def _pct(value: Number) -> str:
    return f"{value * 100:.2f}%"


def load_bench_trajectory(root: str = ".") -> List[Dict[str, Any]]:
    """All committed ``BENCH_pr<N>.json`` files under ``root``, sorted by
    PR number (oldest first).  Unreadable files are skipped."""
    entries = []
    for path in glob.glob(os.path.join(root, "BENCH_pr*.json")):
        match = _BENCH_RE.match(os.path.basename(path))
        if not match:
            continue
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        entries.append({"pr": int(match.group(1)),
                        "file": os.path.basename(path),
                        "payload": payload})
    entries.sort(key=lambda e: e["pr"])
    return entries


def trajectory_rows(trajectory: List[Dict[str, Any]],
                    config: str = "large") -> List[Dict[str, Any]]:
    """events/s per committed bench file for one config (None when the
    file predates that config or has no throughput section)."""
    rows = []
    for entry in trajectory:
        results = entry["payload"].get("results") or {}
        row = results.get(config)
        eps = row.get("events_per_sec") if isinstance(row, dict) else None
        # Prefer the uncontended single-process rate when the campaign
        # recorded one — pool contention makes shard rates pessimistic.
        single = (entry["payload"].get("single_process") or {}).get(config)
        if isinstance(single, dict):
            eps = single.get("events_per_sec", eps)
        cal = (entry["payload"].get("calibration") or {}).get("score")
        if not (isinstance(cal, (int, float)) and cal > 0):
            cal = None
        rows.append({"pr": entry["pr"], "file": entry["file"],
                     "events_per_sec": eps, "calibration": cal})
    return rows


def trajectory_gaps(trajectory: List[Dict[str, Any]]) -> List[int]:
    """PR numbers missing from the committed bench trajectory.

    A PR that lands without a ``BENCH_pr<N>.json`` (docs-only, or a
    bench-neutral change) leaves a hole; the report annotates it so a
    delta between non-adjacent files is never mistaken for a
    single-PR change.
    """
    present = sorted({e["pr"] for e in trajectory})
    if len(present) < 2:
        return []
    return [pr for pr in range(present[0] + 1, present[-1])
            if pr not in present]


def regression_delta(trajectory: List[Dict[str, Any]],
                     config: str = "large") -> Optional[Dict[str, Any]]:
    """Fractional events/s change between the two newest bench files
    that report the config; None when fewer than two do.

    Each file was written by whatever machine ran that PR, so a raw
    events/s ratio conflates code speed with host speed.  When both
    files carry the host-calibration anchor (``machine_calibration`` in
    :mod:`repro.bench.throughput`), ``delta`` is computed on the
    calibration-normalized rates (host term cancelled) and
    ``calibrated`` is True; otherwise ``delta`` is the raw ratio and
    ``calibrated`` is False — the gate then cannot distinguish a slower
    host from slower code and should not hard-fail.  ``raw_delta`` is
    always the unnormalized ratio.

    ``adjacent`` is False when PRs are missing between the two files
    compared (the delta then spans more than one PR of work).
    """
    rows = [r for r in trajectory_rows(trajectory, config)
            if isinstance(r["events_per_sec"], (int, float))
            and r["events_per_sec"] > 0]
    if len(rows) < 2:
        return None
    prev, cur = rows[-2], rows[-1]
    raw = ((cur["events_per_sec"] - prev["events_per_sec"])
           / prev["events_per_sec"])
    calibrated = (prev["calibration"] is not None
                  and cur["calibration"] is not None)
    if calibrated:
        prev_norm = prev["events_per_sec"] / prev["calibration"]
        cur_norm = cur["events_per_sec"] / cur["calibration"]
        delta = (cur_norm - prev_norm) / prev_norm
    else:
        delta = raw
    # The two newest usable files are adjacent in the usable list, so
    # every PR number strictly between them has no usable bench data.
    missing = list(range(prev["pr"] + 1, cur["pr"]))
    return {"config": config, "baseline": prev, "current": cur,
            "delta": delta, "raw_delta": raw, "calibrated": calibrated,
            "adjacent": not missing, "missing_prs": missing}


def trajectory_gate_warning(trajectory: List[Dict[str, Any]],
                            config: str = "large") -> Optional[str]:
    """Why the regression gate cannot run, or None when it can.

    ``repro report --check`` degrades gracefully in two situations:
    a fresh checkout (zero or one committed ``BENCH_pr*.json``), and a
    comparison where either file predates the host-calibration anchor
    (raw events/s across different machines are not comparable).  The
    gate is skipped with this warning rather than failing or crashing.
    """
    reg = regression_delta(trajectory, config)
    if reg is not None:
        if reg["calibrated"]:
            return None
        uncal = [r["file"] for r in (reg["baseline"], reg["current"])
                 if r["calibration"] is None]
        return (f"regression gate skipped: no host-calibration anchor "
                f"in {', '.join(uncal)} — raw events/s across "
                f"different machines are not comparable (raw delta "
                f"{reg['raw_delta'] * 100:+.1f}%)")
    usable = len([r for r in trajectory_rows(trajectory, config)
                  if isinstance(r["events_per_sec"], (int, float))
                  and r["events_per_sec"] > 0])
    return (f"regression gate skipped: {usable} usable BENCH_pr*.json "
            f"file(s) report {config!r} events/s (need 2)")


def _availability_lines(avail: Dict[str, Any]) -> List[str]:
    lines = ["## Availability", ""]
    lines.append("| cell | up (ms) | suspended (ms) | dead (ms) | "
                 "availability | faults |")
    lines.append("|---:|---:|---:|---:|---:|---:|")
    for cid in sorted(avail["cells"], key=int):
        row = avail["cells"][cid]
        lines.append(
            f"| {cid} | {_ms(row['up_ns'])} | {_ms(row['suspended_ns'])} "
            f"| {_ms(row['dead_ns'])} | {_pct(row['availability'])} "
            f"| {row['faults']} |")
    lines.append("")
    lines.append(f"Faults injected: {avail['faults_injected']}; rounds "
                 f"recovered: {avail['rounds_recovered']}; horizon "
                 f"{_ms(avail['horizon_ns'])} ms simulated (summed over "
                 f"trials).")
    lines.append("")
    lines.append("| latency | n | p50 (ms) | p95 (ms) | p99 (ms) | "
                 "max (ms) |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for label, key in (("recovery round", "recovery_latency_ns"),
                       ("detection", "detection_latency_ns")):
        snap = avail[key]
        lines.append(
            f"| {label} | {snap['n']} | {_ms(snap['p50'])} "
            f"| {_ms(snap['p95'])} | {_ms(snap['p99'])} "
            f"| {_ms(snap['max'])} |")
    work = avail["work_lost"]
    lines.append("")
    lines.append("Work lost per fault: "
                 f"{work['per_fault_discarded_pages']:.1f} pages "
                 f"discarded, {work['per_fault_killed_processes']:.1f} "
                 f"processes killed "
                 f"(totals: {work['discarded_pages']} pages, "
                 f"{work['killed_processes']} killed, "
                 f"{work['surviving_processes']} survived, "
                 f"{work['files_lost']} files lost).")
    return lines


def _tiers_lines(tiers: Dict[str, Any]) -> List[str]:
    lines = ["## Hot-path tiers", ""]
    coh = tiers.get("coherence")
    if coh:
        lines.append(
            f"- coherence batches: {coh['batches_total']} "
            f"(memo {_pct(coh['memo_hit_rate'])}, "
            f"inline {_pct(coh['inline_rate'])}, "
            f"scalar {_pct(coh['scalar_rate'])})")
    rpc = tiers.get("rpc")
    if rpc:
        lines.append(
            f"- RPC dispatches: {rpc['calls_total']} "
            f"(fast path {_pct(rpc['fast_rate'])})")
    return lines


def _scenario_lines(scenarios: Dict[str, Any]) -> List[str]:
    lines = ["## Containment (Table 7.4)", ""]
    lines.append("| scenario | workload | contained | detection avg/max "
                 "(ms) | paper avg/max (ms) |")
    lines.append("|---|---|---:|---:|---:|")
    for name in sorted(scenarios):
        row = scenarios[name]
        if row["detection_avg_ms"] is None:
            detect = "n/a"
        else:
            detect = (f"{row['detection_avg_ms']:.1f} / "
                      f"{row['detection_max_ms']:.1f}")
        lines.append(
            f"| {name} | {row['workload']} "
            f"| {row['contained']}/{row['trials']} | {detect} "
            f"| {row['paper_avg_ms']} / {row['paper_max_ms']} |")
    return lines


def _audit_lines(audit: Dict[str, Any]) -> List[str]:
    summary = audit.get("summary", {})
    verdicts = summary.get("by_verdict", {})
    lines = ["## Containment audit", ""]
    lines.append(
        f"- verdict: **{audit.get('verdict', '?')}** over "
        f"{summary.get('trials', 0)} trial(s), "
        f"{summary.get('faults', 0)} fault(s)")
    lines.append(
        f"- tainted interactions: {verdicts.get('blocked', 0)} blocked "
        f"(near misses), {verdicts.get('discarded', 0)} discarded by "
        f"recovery, {verdicts.get('absorbed', 0)} absorbed")
    defenses = summary.get("by_defense", {})
    if defenses:
        parts = [f"{name} {defenses[name]}" for name in sorted(defenses)]
        lines.append(f"- defenses that fired: {', '.join(parts)}")
    breaches = sorted(label for label, report in
                      audit.get("trials", {}).items()
                      if report.get("verdict") == "breach")
    if breaches:
        lines.append(f"- **breached trials**: {', '.join(breaches)}")
    return lines


def _trajectory_lines(trajectory: List[Dict[str, Any]],
                      config: str = "large") -> List[str]:
    lines = [f"## Throughput trajectory ({config} config)", ""]
    rows = trajectory_rows(trajectory, config)
    if not rows:
        lines.append("No committed BENCH_pr*.json files found.")
        return lines
    lines.append("| bench file | events/s | delta |")
    lines.append("|---|---:|---:|")
    prev = None
    for row in rows:
        eps = row["events_per_sec"]
        if not isinstance(eps, (int, float)):
            lines.append(f"| {row['file']} | - | - |")
            continue
        delta = "-"
        if prev:
            delta = f"{(eps - prev) / prev * 100:+.1f}%"
        lines.append(f"| {row['file']} | {eps:,.0f} | {delta} |")
        prev = eps
    gaps = trajectory_gaps(trajectory)
    if gaps:
        lines.append("")
        lines.append(
            "Trajectory gaps: no bench file for PR(s) "
            f"{', '.join(str(pr) for pr in gaps)} — deltas spanning a "
            "gap cover more than one PR of work.")
    reg = regression_delta(trajectory, config)
    if reg is not None:
        lines.append("")
        span = ("" if reg["adjacent"] else
                f", spanning missing PR(s) "
                f"{', '.join(str(pr) for pr in reg['missing_prs'])}")
        if reg["calibrated"]:
            verdict = ("REGRESSION"
                       if reg["delta"] < -REGRESSION_THRESHOLD else "ok")
            lines.append(
                f"Latest vs previous: {reg['delta'] * 100:+.1f}% "
                f"host-normalized (raw {reg['raw_delta'] * 100:+.1f}%) "
                f"({reg['baseline']['file']} -> {reg['current']['file']}"
                f"{span}): {verdict} "
                f"(threshold -{REGRESSION_THRESHOLD * 100:.0f}%).")
        else:
            lines.append(
                f"Latest vs previous: raw {reg['raw_delta'] * 100:+.1f}% "
                f"({reg['baseline']['file']} -> {reg['current']['file']}"
                f"{span}): UNVERIFIABLE — not both files carry the "
                f"host-calibration anchor, so host speed cannot be "
                f"cancelled; the regression gate is skipped.")
    return lines


def _snapshot_lines(payload: Dict[str, Any]) -> List[str]:
    """Boot-amortization section from a bench payload's snapshot
    equivalence run (``repro bench --compare-snapshot``)."""
    lines = ["## Snapshot-fork amortization", ""]
    compare = payload.get("snapshot_compare") or {}
    results = compare.get("results") or {}
    if results:
        match = "MATCH" if compare.get("counters_match") else "MISMATCH"
        lines.append(f"Forked vs fresh-boot counters: **{match}**.")
        lines.append("")
        lines.append("| config | boot (s) | fork (ms) | amortization | "
                     "mode |")
        lines.append("|---|---:|---:|---:|---|")
        for name in sorted(results):
            row = results[name]
            lines.append(
                f"| {name} | {row['boot_wall_s']:.3f} "
                f"| {row['fork_wall_s'] * 1000:.1f} "
                f"| {row['amortization_x']}x | {row['mode']} |")
    campaign = payload.get("snapshot_campaign") or {}
    if campaign:
        lines.append("")
        lines.append(
            f"Campaign per-trial setup ({campaign.get('mode', '?')}): "
            f"{campaign.get('setup_wall_s_mean', 0) * 1000:.1f} ms vs "
            f"boot {campaign.get('boot_wall_s_mean', 0) * 1000:.1f} ms "
            f"— {campaign.get('amortization_x', 0)}x over "
            f"{campaign.get('trials', 0)} trial(s).")
    return lines


def _sessions_lines(sessions: Dict[str, Any]) -> List[str]:
    """Session-traffic section from a bench payload's ``sessions`` row
    (``repro bench --sessions`` / ``repro sessions --out``)."""
    lines = ["## Session traffic (open loop)", ""]
    lines.append(
        f"- {sessions.get('sessions', 0):,} sessions generated at "
        f"{sessions.get('sessions_per_sec', 0):,.0f} sessions/s wall "
        f"({sessions.get('cells', '?')} cells x "
        f"{sessions.get('servers_per_cell', '?')} servers, seed "
        f"{sessions.get('seed', '?')})")
    lines.append(
        f"- latency p50 {sessions.get('latency_p50_ms', 0):.3f} ms / "
        f"p99 {sessions.get('latency_p99_ms', 0):.3f} ms / mean "
        f"{sessions.get('latency_mean_ms', 0):.3f} ms")
    lines.append(
        f"- {sessions.get('completed', 0):,} completed, "
        f"{sessions.get('lost', 0):,} lost over "
        f"{sessions.get('faults', 0)} fault(s) -> "
        f"{sessions.get('sessions_lost_per_fault', 0)} lost/fault")
    by_type = sessions.get("by_type") or {}
    if by_type:
        parts = [f"{name} {by_type[name]:,}" for name in sorted(by_type)]
        lines.append(f"- mix: {', '.join(parts)}")
    if sessions.get("probes_launched"):
        lines.append(
            f"- kernel probe sessions: "
            f"{sessions.get('probes_completed', 0)}/"
            f"{sessions.get('probes_launched', 0)} completed")
    return lines


def render_campaign_report(payload: Dict[str, Any],
                           trajectory: Optional[List[Dict[str, Any]]]
                           = None) -> str:
    """The campaign observatory report as markdown.

    Only deterministic counters appear, so same-seed campaigns render
    byte-identically.
    """
    lines = ["# Campaign report", ""]
    scenarios = payload.get("scenarios")
    if scenarios:
        lines += _scenario_lines(scenarios)
        lines.append("")
    avail = payload.get("availability")
    if avail:
        lines += _availability_lines(avail)
        lines.append("")
    audit = payload.get("audit")
    if audit:
        lines += _audit_lines(audit)
        lines.append("")
    tiers = payload.get("tiers")
    if tiers:
        lines += _tiers_lines(tiers)
        lines.append("")
    if trajectory is not None:
        lines += _trajectory_lines(trajectory)
        lines.append("")
        if trajectory:
            newest = trajectory[-1]["payload"]
            if (newest.get("snapshot_compare")
                    or newest.get("snapshot_campaign")):
                lines += _snapshot_lines(newest)
                lines.append("")
            if newest.get("sessions"):
                lines += _sessions_lines(newest["sessions"])
                lines.append("")
    failures = payload.get("failures")
    if failures:
        lines.append(f"**{len(failures)} trial(s) FAILED** — see the "
                     "campaign output for tracebacks.")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def campaign_report_json(payload: Dict[str, Any],
                         trajectory: Optional[List[Dict[str, Any]]]
                         = None) -> Dict[str, Any]:
    """The same report as a JSON-safe dict (serialize with
    ``sort_keys=True`` for byte-stable output)."""
    out: Dict[str, Any] = {}
    for key in ("scenarios", "availability", "audit", "tiers",
                "replay", "failures"):
        if payload.get(key):
            out[key] = payload[key]
    if trajectory is not None:
        out["trajectory"] = trajectory_rows(trajectory)
        out["trajectory_gaps"] = trajectory_gaps(trajectory)
        reg = regression_delta(trajectory)
        if reg is not None:
            out["regression"] = reg
    return out


def check_campaign_report(payload: Dict[str, Any],
                          trajectory: Optional[List[Dict[str, Any]]]
                          = None,
                          threshold: float = REGRESSION_THRESHOLD,
                          ) -> List[str]:
    """Problems that should fail ``repro report --check`` (empty list
    means healthy): missing availability percentiles, uncontained or
    failed trials, a >threshold events/s drop between the two newest
    committed bench files, and equivalence or default-path violations
    recorded in the newest one."""
    problems: List[str] = []
    avail = payload.get("availability")
    if not avail:
        problems.append("campaign payload has no availability section")
    else:
        lat = avail.get("recovery_latency_ns") or {}
        for key in ("p50", "p95", "p99"):
            if not isinstance(lat.get(key), (int, float)):
                problems.append(f"recovery latency {key} missing")
        if avail.get("faults_injected", 0) > 0 and lat.get("n", 0) == 0:
            problems.append("faults injected but no recovery rounds "
                            "recorded a latency")
    for failure in payload.get("failures", []):
        problems.append(f"trial {failure.get('scenario')!r} seed "
                        f"{failure.get('seed')} failed")
    for name in sorted(payload.get("scenarios") or {}):
        row = payload["scenarios"][name]
        # .get() so a hand-edited/legacy --from-json payload degrades
        # to a report problem instead of a KeyError crash.
        contained = row.get("contained", 0)
        trials = row.get("trials", 0)
        if contained != trials:
            problems.append(
                f"{name}: only {contained}/{trials} trials contained")
    audit = payload.get("audit")
    if audit:
        absorbed = (audit.get("summary", {}).get("by_verdict", {})
                    .get("absorbed", 0))
        if absorbed or audit.get("verdict") == "breach":
            problems.append(
                f"containment audit verdict "
                f"{audit.get('verdict')!r}: {absorbed} tainted "
                f"interaction(s) absorbed by healthy cells")
    if trajectory:
        reg = regression_delta(trajectory)
        # An uncalibrated comparison (either file predates the host-
        # calibration anchor) cannot tell a slower host from slower
        # code, so it warns (trajectory_gate_warning) instead of
        # failing here.
        if (reg is not None and reg["calibrated"]
                and reg["delta"] < -threshold):
            problems.append(
                f"events/s regression {reg['delta'] * 100:+.1f}% "
                f"(host-normalized) from {reg['baseline']['file']} to "
                f"{reg['current']['file']} "
                f"(threshold -{threshold * 100:.0f}%)")
        # Newest bench file's equivalence/sessions sections (older
        # files without them are a no-op, not a failure).
        newest = trajectory[-1]["payload"]
        compare = newest.get("snapshot_compare")
        if compare and not compare.get("counters_match"):
            problems.append(
                f"{trajectory[-1]['file']}: snapshot-forked counters "
                f"diverge from fresh-boot counters")
        compare = newest.get("parked_compare")
        if compare and not compare.get("counters_match"):
            problems.append(
                f"{trajectory[-1]['file']}: parked-chain counters "
                f"diverge from per-wakeup counters")
        sessions = newest.get("sessions")
        if sessions:
            for key in ("latency_p50_ms", "latency_p99_ms",
                        "sessions_per_sec"):
                if not isinstance(sessions.get(key), (int, float)):
                    problems.append(
                        f"{trajectory[-1]['file']}: sessions section "
                        f"missing {key}")
    return problems
