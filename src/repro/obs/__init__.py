"""Observability: the flight recorder, metric aggregation, exporters,
availability accounting, and hot-path tier profiling."""

from repro.obs.availability import (
    availability_from_dicts,
    availability_report,
    merge_availability,
)
from repro.obs.export import (
    audit_to_chrome_trace,
    load_json,
    load_jsonl,
    open_artifact,
    render_fault_timeline,
    to_chrome_trace,
    to_jsonl,
    write_bench_summary,
    write_telemetry,
)
from repro.obs.metrics import render_snapshot, snapshot_system
from repro.obs.profile import merge_tier_snapshots, tier_snapshot
from repro.obs.provenance import (
    ProvenanceTracer,
    attach_provenance,
    merge_audits,
    render_audit_markdown,
)
from repro.obs.recorder import (
    FlightRecorder,
    Span,
    TelemetryEvent,
    attach_flight_recorder,
)
from repro.obs.watchdog import (
    InvariantWatchdog,
    attach_watchdog,
    maybe_attach_watchdog,
    watchdog_enabled,
)

__all__ = [
    "FlightRecorder",
    "InvariantWatchdog",
    "ProvenanceTracer",
    "Span",
    "TelemetryEvent",
    "attach_flight_recorder",
    "attach_provenance",
    "attach_watchdog",
    "audit_to_chrome_trace",
    "availability_from_dicts",
    "availability_report",
    "load_json",
    "load_jsonl",
    "maybe_attach_watchdog",
    "open_artifact",
    "merge_audits",
    "merge_availability",
    "merge_tier_snapshots",
    "render_audit_markdown",
    "render_fault_timeline",
    "render_snapshot",
    "snapshot_system",
    "tier_snapshot",
    "to_chrome_trace",
    "to_jsonl",
    "watchdog_enabled",
    "write_bench_summary",
    "write_telemetry",
]
