"""Availability accounting: per-cell up/suspended/dead timelines derived
from flight-recorder fault and recovery telemetry.

The paper's availability argument (Section 2) is that a fault costs the
machine only the failed cell plus a recovery pause on the survivors.
This module turns one run's recorded spans and events into exactly that
ledger: for every cell, how long it was **up**, **suspended** (a live
cell parked at a recovery barrier), or **dead** (failed, until reboot),
plus per-round work-lost figures (pages discarded, files lost,
processes killed vs. survived) and recovery-round latency percentiles.

The derivation core (:func:`availability_from_dicts`) consumes plain
span/event dicts — the shape ``Span.to_dict``/``TelemetryEvent.to_dict``
produce and ``spans.jsonl`` stores — so the same code serves a live
:class:`~repro.obs.recorder.FlightRecorder` (via
:func:`availability_report`) and cross-shard campaign merging, where
only serialized telemetry crosses the process boundary.

Everything reported is a pure function of simulated time and
deterministic counters, so same-seed runs produce byte-identical
reports (the campaign acceptance bar).

Timeline rules:

* a cell confirmed dead by a recovery round is **dead** from its
  ``fault.inject`` (falling back to its ``panic`` event, then to the
  round start) until the round's ``recovery.master`` span ends with
  ``rebooted=True`` (the round's row then carries that ``reboot_ns``)
  — or to the horizon if never rebooted;
* survivors of a recovered round are **suspended** from round start to
  the round's ``recovery.done`` event (user level resumes there; the
  round span itself extends through diagnostics and reboot);
* a voted-down or aborted round suspends every live cell for the full
  round span (nobody died, everybody paused);
* a cell that panics but is never confirmed dead by any round counts
  dead from the panic to the horizon (nobody recovered it);
* everything else is up.

Correlated faults that kill several cells inside one recovery window
are handled by the same rules: each dead cell matches its own inject,
and all of them share the round's reboot edge.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.stats import Histogram

#: the span and event names the derivation reads; a live recorder's
#: other records never become dicts
LEDGER_RECORDS = frozenset({"recovery.round", "recovery.master",
                            "fault.inject", "panic", "recovery.done"})

#: recovery-latency bucket ladder (ns): recovery rounds sit in the
#: hundreds-of-microseconds to hundreds-of-milliseconds regime
#: (Table 7.4's ~0.3 ms hardware detection up to ~400 ms software tail).
RECOVERY_LATENCY_BOUNDS_NS = [
    100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000,
    100_000_000, 200_000_000, 500_000_000, 1_000_000_000, 2_000_000_000,
]


def _span_like(rec: Dict[str, Any]) -> bool:
    return rec.get("type") == "span" or "start_ns" in rec


def _overlap_clamped(start: int, end: Optional[int], horizon: int) -> int:
    lo = max(0, start)
    hi = horizon if end is None else min(end, horizon)
    return max(0, hi - lo)


def availability_from_dicts(records: Iterable[Dict[str, Any]],
                            cell_ids: Optional[List[int]] = None,
                            horizon_ns: Optional[int] = None,
                            ) -> Dict[str, Any]:
    """Derive the availability ledger from span/event dicts.

    ``records`` may mix spans and events in any order (e.g. parsed
    ``spans.jsonl`` lines).  ``cell_ids`` fixes the cell population;
    when omitted it is inferred from the telemetry, which misses cells
    that never appear in any span or event.  ``horizon_ns`` is the
    accounting window end; it defaults to the latest timestamp seen.
    """
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for rec in records:
        (spans if _span_like(rec) else events).append(rec)
    spans.sort(key=lambda s: (s["start_ns"], s.get("span_id", 0)))
    events.sort(key=lambda e: e["time_ns"])

    rounds = [s for s in spans if s["name"] == "recovery.round"]
    masters = [s for s in spans if s["name"] == "recovery.master"]
    injects = [e for e in events if e["name"] == "fault.inject"]
    panics = [e for e in events if e["name"] == "panic"]
    dones = {e["attrs"]["round"]: e for e in events
             if e["name"] == "recovery.done" and "round" in e["attrs"]}

    observed: set = set()
    for rec in spans + events:
        if rec.get("cell") is not None and rec["cell"] >= 0:
            observed.add(rec["cell"])
    for span in rounds:
        observed.update(span["attrs"].get("dead", []))
    cells = sorted(cell_ids) if cell_ids is not None else sorted(observed)

    if horizon_ns is None:
        horizon_ns = 0
        for span in spans:
            horizon_ns = max(horizon_ns, span["start_ns"],
                             span.get("end_ns") or 0)
        for ev in events:
            horizon_ns = max(horizon_ns, ev["time_ns"])
    horizon = int(horizon_ns)

    suspended = {c: 0 for c in cells}
    dead_ns = {c: 0 for c in cells}
    faults_by_cell = {c: 0 for c in cells}
    for inj in injects:
        if inj.get("cell") in faults_by_cell:
            faults_by_cell[inj["cell"]] += 1

    ever_dead: set = set()
    consumed_injects: set = set()
    latency_hist = Histogram("recovery_round_ns",
                             RECOVERY_LATENCY_BOUNDS_NS)
    detect_hist = Histogram("detection_ns", RECOVERY_LATENCY_BOUNDS_NS)
    round_rows: List[Dict[str, Any]] = []
    totals = {"discarded_pages": 0, "files_lost": 0,
              "killed_processes": 0, "surviving_processes": 0}

    for span in rounds:
        round_id = span["attrs"].get("round")
        outcome = span["attrs"].get("outcome")
        dead = sorted(span["attrs"].get("dead", []))
        start = span["start_ns"]
        end = span.get("end_ns")
        if outcome != "recovered" or not dead:
            # Nobody died; every live cell paused for the whole span.
            for c in cells:
                suspended[c] += _overlap_clamped(start, end, horizon)
            round_rows.append({
                "round": round_id, "outcome": outcome, "dead": dead,
                "start_ns": start, "done_ns": end,
                "detect_ns": None, "recovery_ns": None,
                "work_lost": None,
            })
            continue

        done_ev = dones.get(round_id)
        done_ns = done_ev["time_ns"] if done_ev is not None else end
        master = next((m for m in masters
                       if m["attrs"].get("round") == round_id), None)
        reboot_ns = (master.get("end_ns") if master is not None
                     and master["attrs"].get("rebooted") else None)

        # Each dead cell goes down at its own inject (correlated faults
        # each match their own), else its panic, else the round start.
        detect_ns: Optional[int] = None
        for c in dead:
            down_at = None
            for idx, inj in enumerate(injects):
                if (idx not in consumed_injects and inj.get("cell") == c
                        and inj["time_ns"] <= (done_ns or horizon)):
                    down_at = inj["time_ns"]
                    consumed_injects.add(idx)
                    break
            if down_at is None:
                for p in panics:
                    if p.get("cell") == c and p["time_ns"] <= start:
                        down_at = p["time_ns"]
                        break
            if down_at is None:
                down_at = start
            else:
                lat = start - down_at
                if lat >= 0:
                    detect_hist.record(lat)
                    detect_ns = (lat if detect_ns is None
                                 else max(detect_ns, lat))
            if c in dead_ns:
                dead_ns[c] += _overlap_clamped(down_at, reboot_ns, horizon)
            ever_dead.add(c)

        for c in cells:
            if c not in dead:
                suspended[c] += _overlap_clamped(start, done_ns, horizon)

        recovery_ns = (done_ns - start) if done_ns is not None else None
        if recovery_ns is not None and recovery_ns >= 0:
            latency_hist.record(recovery_ns)
        work = None
        if done_ev is not None:
            attrs = done_ev["attrs"]
            work = {key: attrs.get(key, 0) for key in totals}
            for key in totals:
                totals[key] += work[key]
        row = {
            "round": round_id, "outcome": outcome, "dead": dead,
            "start_ns": start, "done_ns": done_ns,
            "detect_ns": detect_ns, "recovery_ns": recovery_ns,
            "work_lost": work,
        }
        if reboot_ns is not None:
            row["reboot_ns"] = reboot_ns
        round_rows.append(row)

    # A panicked cell no round ever recovered stays down to the horizon.
    for p in panics:
        c = p.get("cell")
        if c in dead_ns and c not in ever_dead:
            dead_ns[c] += _overlap_clamped(p["time_ns"], None, horizon)
            ever_dead.add(c)

    cell_rows: Dict[str, Any] = {}
    for c in cells:
        down = min(dead_ns[c], horizon)
        susp = min(suspended[c], max(0, horizon - down))
        up = max(0, horizon - down - susp)
        cell_rows[str(c)] = {
            "up_ns": up,
            "suspended_ns": susp,
            "dead_ns": down,
            "availability": up / horizon if horizon else 1.0,
            "faults": faults_by_cell[c],
        }

    n_recovered = sum(1 for r in round_rows
                      if r["outcome"] == "recovered" and r["dead"])
    work_lost: Dict[str, Any] = dict(totals)
    work_lost["per_fault_discarded_pages"] = (
        totals["discarded_pages"] / n_recovered if n_recovered else 0.0)
    work_lost["per_fault_killed_processes"] = (
        totals["killed_processes"] / n_recovered if n_recovered else 0.0)

    return {
        "horizon_ns": horizon,
        "cells": cell_rows,
        "rounds": round_rows,
        "recovery_latency_ns": latency_hist.snapshot(),
        "detection_latency_ns": detect_hist.snapshot(),
        # Full histogram state rides along so campaign shards stay
        # mergeable (snapshot percentiles alone are not additive).
        "recovery_latency_hist": latency_hist.to_dict(),
        "detection_latency_hist": detect_hist.to_dict(),
        "work_lost": work_lost,
        "faults_injected": len(injects),
        "rounds_recovered": n_recovered,
    }


def merge_availability(reports: List[Dict[str, Any]],
                       labels: Optional[List[str]] = None,
                       ) -> Dict[str, Any]:
    """Fold per-shard availability ledgers into one campaign ledger.

    Each shard is an independent simulated machine, so per-cell time
    buckets and work-lost counters add, horizons add, and the latency
    histograms merge bucket-wise — giving campaign-wide percentiles
    with exactly the semantics of one histogram fed every shard's
    rounds.  ``labels`` (parallel to ``reports``) tag each shard's
    round rows with a ``"trial"`` key so round ids stay unambiguous
    after concatenation.  The merged ledger has the same shape as a
    single-shard one (histogram state included), so merging is
    associative: merging merged ledgers is fine.
    """
    if labels is not None and len(labels) != len(reports):
        raise ValueError("labels must parallel reports")
    horizon = 0
    cells: Dict[str, Dict[str, Any]] = {}
    rounds: List[Dict[str, Any]] = []
    latency_hist: Optional[Histogram] = None
    detect_hist: Optional[Histogram] = None
    totals = {"discarded_pages": 0, "files_lost": 0,
              "killed_processes": 0, "surviving_processes": 0}
    faults = recovered = 0
    for i, rep in enumerate(reports):
        horizon += rep["horizon_ns"]
        for cid, row in rep["cells"].items():
            agg = cells.setdefault(cid, {"up_ns": 0, "suspended_ns": 0,
                                         "dead_ns": 0, "faults": 0})
            for key in ("up_ns", "suspended_ns", "dead_ns", "faults"):
                agg[key] += row[key]
        for row in rep["rounds"]:
            tagged = dict(row)
            if labels is not None:
                tagged["trial"] = labels[i]
            rounds.append(tagged)
        shard_lat = Histogram.from_dict(rep["recovery_latency_hist"])
        shard_det = Histogram.from_dict(rep["detection_latency_hist"])
        if latency_hist is None:
            latency_hist, detect_hist = shard_lat, shard_det
        else:
            latency_hist.merge(shard_lat)
            detect_hist.merge(shard_det)
        for key in totals:
            totals[key] += rep["work_lost"][key]
        faults += rep["faults_injected"]
        recovered += rep["rounds_recovered"]
    if latency_hist is None:
        latency_hist = Histogram("recovery_round_ns",
                                 RECOVERY_LATENCY_BOUNDS_NS)
        detect_hist = Histogram("detection_ns", RECOVERY_LATENCY_BOUNDS_NS)
    for row in cells.values():
        row["availability"] = row["up_ns"] / horizon if horizon else 1.0
    work_lost: Dict[str, Any] = dict(totals)
    work_lost["per_fault_discarded_pages"] = (
        totals["discarded_pages"] / recovered if recovered else 0.0)
    work_lost["per_fault_killed_processes"] = (
        totals["killed_processes"] / recovered if recovered else 0.0)
    return {
        "horizon_ns": horizon,
        "cells": {cid: cells[cid] for cid in sorted(cells, key=int)},
        "rounds": rounds,
        "recovery_latency_ns": latency_hist.snapshot(),
        "detection_latency_ns": detect_hist.snapshot(),
        "recovery_latency_hist": latency_hist.to_dict(),
        "detection_latency_hist": detect_hist.to_dict(),
        "work_lost": work_lost,
        "faults_injected": faults,
        "rounds_recovered": recovered,
    }


def availability_report(recorder, system=None,
                        horizon_ns: Optional[int] = None,
                        ) -> Dict[str, Any]:
    """Availability ledger for a live recorder (and optionally the booted
    system, which pins the cell population and the horizon).

    Only the records :func:`availability_from_dicts` reads become
    dicts, and with ``system`` only their spans are built.  Without it
    the population and horizon still come from every record, read off
    the objects as the derivation would infer them from the dicts.
    """
    events = recorder.events
    if system is not None:
        cell_ids = [cell.kernel_id for cell in system.cells]
        if horizon_ns is None:
            horizon_ns = system.sim.now
    else:
        spans = list(recorder.spans)
        observed = {r.cell for r in chain(spans, events)
                    if r.cell is not None and r.cell >= 0}
        for span in spans:
            if span.name == "recovery.round":
                observed.update(span.attrs.get("dead", []))
        cell_ids = sorted(observed)
        if horizon_ns is None:
            horizon_ns = max(chain(
                (0,), (s.start_ns for s in spans),
                (s.end_ns or 0 for s in spans),
                (e.time_ns for e in events)))
    records = [s.to_dict() for s in recorder.spans_named(*LEDGER_RECORDS)]
    records += [e.to_dict() for e in events if e.name in LEDGER_RECORDS]
    return availability_from_dicts(records, cell_ids=cell_ids,
                                   horizon_ns=horizon_ns)
