"""Telemetry exporters: JSONL, Chrome ``trace_event``, fault timeline.

Three consumers, three formats:

* :func:`to_jsonl` — one JSON object per line, time-ordered, for ad-hoc
  ``jq``/pandas analysis and byte-for-byte determinism checks;
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON Object
  Format (complete-``X`` spans + instant-``i`` events, microsecond
  timestamps, ``pid`` = cell, ``tid`` = subsystem), loadable in
  ``about:tracing`` and Perfetto;
* :func:`render_fault_timeline` — a plain-text reconstruction of each
  recovery round: inject → hint → agreement → discard → recovery done,
  with per-phase latencies (the Table 7.4 debugging view).

``write_telemetry`` drops all of them (plus a metrics snapshot and an
optional ``summary.json`` run summary) into one directory.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.metrics import snapshot_system
from repro.obs.recorder import FlightRecorder


def _json_line(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def open_artifact(path: str, mode: str = "r"):
    """Open a telemetry artifact, gzipping transparently by extension.

    A ``.gz`` suffix (``spans.jsonl.gz``, ``trace.json.gz``) routes
    through :mod:`gzip` in text mode; anything else is a plain file.
    Writers and readers share this helper, so every artifact the
    exporters emit can be read back with the same call regardless of
    compression.
    """
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a (possibly gzipped) JSONL artifact back into dicts."""
    with open_artifact(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_json(path: str) -> Any:
    """Read a (possibly gzipped) JSON artifact."""
    with open_artifact(path) as fh:
        return json.load(fh)


def to_jsonl(recorder: FlightRecorder) -> str:
    """All events and spans, one JSON object per line, time-ordered.

    Spans sort by start time; the (time, kind, id) sort key is total, so
    equal-seed runs serialize identically.
    """
    keyed = []
    for ev in recorder.events:
        keyed.append(((ev.time_ns, 0, 0), ev.to_dict()))
    for span in recorder.spans:
        keyed.append(((span.start_ns, 1, span.span_id), span.to_dict()))
    keyed.sort(key=lambda item: item[0])
    lines = [_json_line(payload) for _key, payload in keyed]
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(recorder: FlightRecorder,
                    system=None) -> Dict[str, Any]:
    """The Chrome ``trace_event`` JSON Object Format.

    ``pid`` is the cell id (-1 for system-wide activity), ``tid`` the
    subsystem category, timestamps/durations in microseconds.
    """
    events: List[Dict[str, Any]] = []
    pids = set()
    for span in recorder.spans:
        pid = span.cell if span.cell is not None else -1
        pids.add(pid)
        end_ns = span.end_ns if span.end_ns is not None else span.start_ns
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": (end_ns - span.start_ns) / 1000.0,
            "pid": pid,
            "tid": span.category,
            "args": args,
        })
    for ev in recorder.events:
        pid = ev.cell if ev.cell is not None else -1
        pids.add(pid)
        events.append({
            "name": ev.name,
            "cat": ev.category,
            "ph": "i",
            "s": "g",
            "ts": ev.time_ns / 1000.0,
            "pid": pid,
            "tid": ev.category,
            "args": dict(ev.attrs),
        })
    metadata = []
    for pid in sorted(pids):
        label = f"cell {pid}" if pid >= 0 else "system"
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# fault timeline
# ---------------------------------------------------------------------------

def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:10.3f} ms"


#: near-miss lines shown per recovery round before eliding the rest
_TIMELINE_NEAR_MISS_CAP = 6


def _near_miss_lines(events: List) -> List[str]:
    """Render blocked-taint events, eliding beyond the per-round cap."""
    lines = []
    for ev in events[:_TIMELINE_NEAR_MISS_CAP]:
        frame = ev.attrs.get("frame")
        where = f" frame {frame}" if frame is not None else ""
        lines.append(
            f"  near miss        @ {_fmt_ms(ev.time_ns)}  "
            f"{ev.attrs.get('channel')}:{ev.attrs.get('kind')} "
            f"cell {ev.attrs.get('src')} -> cell {ev.cell}{where} "
            f"blocked by {ev.attrs.get('defense')}")
    if len(events) > _TIMELINE_NEAR_MISS_CAP:
        lines.append(f"  (+{len(events) - _TIMELINE_NEAR_MISS_CAP} "
                     f"more near misses)")
    return lines


def render_fault_timeline(recorder: FlightRecorder) -> str:
    """Reconstruct each recovery round as a phase-by-phase timeline.

    Blocked-taint (near-miss) events from the provenance tracer are
    interleaved with the inject and recovery entries of the round they
    occurred in, so the view shows which defenses fired on the way to
    containment.
    """
    injections = [e for e in recorder.events
                  if e.name in ("fault.inject", "fault.corrupt")]
    hints = recorder.events_named("detect.hint")
    near_misses = sorted(recorder.events_named("taint.blocked"),
                         key=lambda e: e.time_ns)
    rounds = sorted(recorder.spans_named("recovery.round"),
                    key=lambda s: s.start_ns)
    lines: List[str] = []
    if not rounds:
        lines.append("fault timeline: no recovery rounds recorded")
        for inj in injections:
            lines.append(f"  inject        @ {_fmt_ms(inj.time_ns)}  "
                         f"{inj.attrs.get('kind', inj.name)} "
                         f"(cell {inj.cell}, "
                         f"trigger={inj.attrs.get('trigger', '-')})")
        lines.extend(_near_miss_lines(near_misses))
        return "\n".join(lines)
    lines.append(f"fault timeline — {len(rounds)} recovery "
                 f"round{'s' if len(rounds) != 1 else ''}")
    consumed: set = set()
    nm_idx = 0
    for round_num, round_span in enumerate(rounds):
        round_id = round_span.attrs.get("round")
        dead = round_span.attrs.get("dead", [])
        lines.append("")
        lines.append(f"round {round_id}: dead={dead}  "
                     f"outcome={round_span.attrs.get('outcome', '?')}  "
                     f"reason: {round_span.attrs.get('reason', '?')}")
        # Every injection that belongs to this round: not yet attributed
        # to an earlier round, at or before round start, and targeting
        # one of the round's dead cells when any were confirmed — so
        # correlated multi-cell failures handled by one recovery window
        # are all listed, not just the last inject.  An injection with
        # no resolvable cell matches any round.
        round_injects = []
        for idx, inj in enumerate(injections):
            if idx in consumed or inj.time_ns > round_span.start_ns:
                continue
            if dead and inj.cell is not None and inj.cell not in dead:
                continue
            round_injects.append((idx, inj))
        if dead:
            for idx, _inj in round_injects:
                consumed.add(idx)
        elif round_injects:
            # Voted-down/aborted rounds confirmed nobody dead, so there
            # is no cell set to match on; show the latest candidate but
            # leave it attributable to a later round.
            round_injects = round_injects[-1:]
        inject = round_injects[0][1] if round_injects else None
        prev_ns = None
        if inject is not None:
            prev_ns = inject.time_ns
        for _idx, inj in round_injects:
            lines.append(
                f"  inject           @ {_fmt_ms(inj.time_ns)}  "
                f"{inj.attrs.get('kind', inj.name)} on cell "
                f"{inj.cell} (trigger={inj.attrs.get('trigger', '-')})")
        # Near misses up to this round's end (everything left, for the
        # last round — blocks can land after recovery.done).
        round_end = round_span.end_ns
        last_round = round_num == len(rounds) - 1
        nm_here = []
        while nm_idx < len(near_misses):
            ev = near_misses[nm_idx]
            if (not last_round and round_end is not None
                    and ev.time_ns > round_end):
                break
            nm_here.append(ev)
            nm_idx += 1
        lines.extend(_near_miss_lines(nm_here))
        first_hint = None
        for h in hints:
            if h.time_ns <= round_span.start_ns + 1:
                first_hint = first_hint or h
        if first_hint is not None:
            delta = ("" if prev_ns is None else
                     f"  (+{(first_hint.time_ns - prev_ns) / 1e6:.3f} ms)")
            lines.append(
                f"  first hint       @ {_fmt_ms(first_hint.time_ns)}"
                f"{delta}  cell {first_hint.cell} suspects "
                f"{first_hint.attrs.get('suspect')}: "
                f"{first_hint.attrs.get('reason')}")
            prev_ns = first_hint.time_ns
        agreement = [s for s in recorder.spans_named("recovery.agreement")
                     if s.attrs.get("round") == round_id]
        if agreement:
            ag = agreement[0]
            delta = ("" if prev_ns is None else
                     f"  (+{(ag.start_ns - prev_ns) / 1e6:.3f} ms suspend)")
            lines.append(f"  agreement start  @ {_fmt_ms(ag.start_ns)}"
                         f"{delta}")
            if ag.end_ns is not None:
                lines.append(
                    f"  agreement done   @ {_fmt_ms(ag.end_ns)}  "
                    f"(+{(ag.end_ns - ag.start_ns) / 1e6:.3f} ms, "
                    f"{ag.attrs.get('rounds', '?')} round(s))")
                prev_ns = ag.end_ns
        cell_spans = [s for s in recorder.spans_named("recovery.cell")
                      if s.attrs.get("round") == round_id]
        if cell_spans:
            last_entry = max(s.start_ns for s in cell_spans)
            lines.append(
                f"  last cell enters @ {_fmt_ms(last_entry)}  "
                f"({len(cell_spans)} surviving cells)")
            if inject is not None:
                lines.append(
                    f"  detection latency (inject → last entry): "
                    f"{(last_entry - inject.time_ns) / 1e6:.3f} ms")
            prev_ns = last_entry
        cleanup = [s for s in recorder.spans_named("recovery.cleanup")
                   if s.attrs.get("round") == round_id
                   and s.end_ns is not None]
        if cleanup:
            discard_done = max(s.end_ns for s in cleanup)
            discarded = sum(s.attrs.get("discarded", 0) for s in cleanup)
            killed = sum(s.attrs.get("killed", 0) for s in cleanup)
            delta = ("" if prev_ns is None else
                     f"  (+{(discard_done - prev_ns) / 1e6:.3f} ms)")
            lines.append(
                f"  discard done     @ {_fmt_ms(discard_done)}{delta}  "
                f"{discarded} pages discarded, {killed} processes killed")
            prev_ns = discard_done
        done_events = [e for e in recorder.events_named("recovery.done")
                       if e.attrs.get("round") == round_id]
        done_ns = (done_events[0].time_ns if done_events
                   else round_span.end_ns)
        if done_ns is not None:
            delta = ("" if prev_ns is None else
                     f"  (+{(done_ns - prev_ns) / 1e6:.3f} ms)")
            lines.append(f"  recovery done    @ {_fmt_ms(done_ns)}{delta}")
            if inject is not None:
                lines.append(
                    f"  total (inject → recovery done): "
                    f"{(done_ns - inject.time_ns) / 1e6:.3f} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# containment-audit chrome trace
# ---------------------------------------------------------------------------

def audit_to_chrome_trace(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Render a containment audit as Chrome ``trace_event`` JSON.

    Accepts either a merged audit (``{"trials": {label: report}}``, the
    shape ``repro audit`` produces) or a single per-trial report from
    :meth:`ProvenanceTracer.audit_report`.  Each trial becomes one
    ``pid`` row; fault injections render as instant events and every
    propagation-DAG edge as a complete span covering its
    ``first_ns``..``last_ns`` window, with the verdict, defense, and
    interaction count in ``args``.
    """
    trials = payload.get("trials")
    if trials is None:
        trials = {"trial": payload}
    events: List[Dict[str, Any]] = []
    metadata: List[Dict[str, Any]] = []
    for pid, label in enumerate(sorted(trials)):
        report = trials[label]
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"{label} [{report.get('verdict', '?')}]"},
        })
        for fault in report.get("faults", []):
            events.append({
                "name": f"fault {fault['taint']} -> cell {fault['cell']}",
                "cat": "taint",
                "ph": "i",
                "s": "p",
                "ts": fault["time_ns"] / 1000.0,
                "pid": pid,
                "tid": "fault",
                "args": {k: v for k, v in fault.items()
                         if k != "time_ns"},
            })
        for edge in report.get("dag", {}).get("edges", []):
            first = edge.get("first_ns", 0)
            last = edge.get("last_ns", first)
            events.append({
                "name": f"{edge['src']} -> {edge['dst']} "
                        f"[{edge['verdict']}]",
                "cat": edge.get("channel", "taint"),
                "ph": "X",
                "ts": first / 1000.0,
                "dur": max(last - first, 0) / 1000.0,
                "pid": pid,
                "tid": edge.get("channel", "taint"),
                "args": dict(edge),
            })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# directory writer
# ---------------------------------------------------------------------------

def write_bench_summary(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_telemetry(out_dir: str, recorder: FlightRecorder, system,
                    bench: Optional[Dict[str, Any]] = None,
                    compress: bool = False) -> Dict[str, str]:
    """Write every telemetry artifact into ``out_dir``; returns paths.

    ``compress`` gzips the two line/stream artifacts (``spans.jsonl.gz``
    and ``trace.json.gz``) — the ones that grow with simulated time —
    while the small snapshots stay plain.  Readers go through
    :func:`open_artifact`, so both forms load identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    gz = ".gz" if compress else ""
    paths = {
        "spans": os.path.join(out_dir, "spans.jsonl" + gz),
        "trace": os.path.join(out_dir, "trace.json" + gz),
        "metrics": os.path.join(out_dir, "metrics.json"),
        "timeline": os.path.join(out_dir, "timeline.txt"),
    }
    with open_artifact(paths["spans"], "w") as fh:
        fh.write(to_jsonl(recorder))
    with open_artifact(paths["trace"], "w") as fh:
        json.dump(to_chrome_trace(recorder, system), fh, sort_keys=True)
        fh.write("\n")
    with open(paths["metrics"], "w") as fh:
        json.dump(snapshot_system(system), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(paths["timeline"], "w") as fh:
        fh.write(render_fault_timeline(recorder) + "\n")
    if bench is not None:
        paths["bench"] = os.path.join(out_dir, "summary.json")
        write_bench_summary(paths["bench"], bench)
    return paths
