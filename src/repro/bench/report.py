"""Paper-vs-measured report rendering for the benchmark harness, plus
the campaign observatory report (``repro report``).

The campaign report renders the merged fault-injection campaign payload
(availability ledger, hot-path tier counters, containment table) into
markdown or JSON.  Every figure in it derives from deterministic
simulation counters — wall-clock rates never appear — so a same-seed
campaign renders byte-identically.
"""

from __future__ import annotations

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


def _ms(ns: Number) -> str:
    return f"{ns / 1e6:.3f}"


def _pct(value: Number) -> str:
    return f"{value * 100:.2f}%"


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
            f"inline {_pct(coh['inline_rate'])})")
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


def render_campaign_report(payload: Dict[str, Any]) -> str:
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
    failures = payload.get("failures")
    if failures:
        lines.append(f"**{len(failures)} trial(s) FAILED** — see the "
                     "campaign output for tracebacks.")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def campaign_report_json(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The same report as a JSON-safe dict (serialize with
    ``sort_keys=True`` for byte-stable output)."""
    out: Dict[str, Any] = {}
    for key in ("scenarios", "availability", "audit", "tiers",
                "replay", "failures"):
        if payload.get(key):
            out[key] = payload[key]
    return out


def _round_problems(rounds: List[Dict[str, Any]]) -> List[str]:
    """Rounds of one trial that broke "one round at a time": a round
    that starts before an earlier one is done, and a round confirming a
    cell dead that an earlier round confirmed and did not reboot."""
    problems: List[str] = []
    by_trial: Dict[Any, List[Dict[str, Any]]] = {}
    for row in rounds:
        by_trial.setdefault(row.get("trial"), []).append(row)
    for trial, rows in by_trial.items():
        done_by: float = 0
        confirmed: set = set()
        for row in sorted(rows, key=lambda r: r["start_ns"]):
            if row["start_ns"] < done_by:
                problems.append(f"trial {trial}: round {row['round']} "
                                f"overlaps an earlier round")
            done = row["done_ns"]
            done_by = max(done_by, float("inf") if done is None else done)
            if row["outcome"] != "recovered":
                continue
            for cell in sorted(confirmed.intersection(row["dead"])):
                problems.append(f"trial {trial}: round {row['round']} "
                                f"confirms cell {cell} dead again")
            confirmed.update(row["dead"])
            if row.get("reboot_ns") is not None:
                confirmed.difference_update(row["dead"])
    return problems


def check_campaign_report(payload: Dict[str, Any]) -> List[str]:
    """Problems that should fail ``repro report --check`` (empty list
    means healthy): missing availability percentiles, rounds that ran
    at once or confirmed a cell dead twice, uncontained or failed
    trials, and tainted interactions healthy cells absorbed."""
    problems: List[str] = []
    avail = payload.get("availability")
    if not avail:
        problems.append("campaign payload has no availability section")
    else:
        problems += _round_problems(avail.get("rounds", []))
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
    return problems
