"""Fault-provenance tracing and the containment audit.

Hive's central claim is *fault containment* (Section 2): a fault in one
cell must not corrupt work in healthy cells, because every intercell
channel — RPC over SIPS, careful references, firewall-guarded writes,
loaned/borrowed frames, pfdat imports — either blocks the damage or the
recovery rounds confine it.  This module turns that claim into
inspectable evidence.  When a fault is injected, the faulting cell is
*tainted* (deterministic ids ``t0``, ``t1``, ...) and every subsequent
intercell interaction involving it is recorded and classified:

``blocked``
    a defense stopped the interaction outright — a firewall or bus
    error on a wild write, a careful-reference sanity check
    (alignment/range/type-tag/bus-error), an RPC sanity reject or
    timeout.  These are the *near-misses* of Table 7.4's defenses.
``discarded``
    the interaction was accepted at the time but recovery neutralised
    it — the tainted page was preemptively discarded, the import was
    dropped, or a recovery round confirmed the sick cell dead after
    the interaction (the paper's pessimistic-discard policy).
``absorbed``
    a healthy cell consumed tainted state that no defense blocked and
    no recovery action cleaned: a containment breach.

Interactions that represent *actual memory damage* (wild writes that
landed) are ``hard``: only an explicit page discard resolves them; the
recovery-round fallback is not enough, because the damaged frame
outlives the round unless it was dropped.

Determinism: taint ids, interaction sequence numbers, and timestamps
all derive from the simulation; :meth:`ProvenanceTracer.audit_report`
is a pure function of the run, so same-seed runs produce byte-identical
audit JSON and campaign shards merge associatively (the same contract
as availability ledgers).

Overhead discipline: an absent tracer is ``None``, so an untraced run
costs one attribute load and one ``is not None`` branch per
instrumented site, and an attached tracer short-circuits every hook on
an empty-taint check until the first fault fires.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: interaction channels (also the DAG edge labels)
CH_RPC = "rpc"
CH_CAREFUL = "careful"
CH_WILDWRITE = "wildwrite"
CH_PAGE = "page"
CH_FIREWALL = "firewall"
CH_EXPOSURE = "exposure"

#: verdicts
V_BLOCKED = "blocked"
V_DISCARDED = "discarded"
V_ABSORBED = "absorbed"
V_PENDING = "pending"

AUDIT_SCHEMA = "hive-audit-v1"


class ProvenanceTracer:
    """Records tainted intercell interactions for one system.

    Interactions are deduplicated on ``(taint, channel, kind, src, dst,
    frame, op, defense)``; repeats bump the record's ``n`` and
    ``last_ns`` so steady-state traffic (retried careful reads, RPC
    timeouts to a dead cell) stays bounded while counts remain exact.
    """

    def __init__(self, sim, recorder=None):
        self.sim = sim
        self._rec = recorder  # optional FlightRecorder for taint.* events
        self._registry = None  # set by attach_provenance
        self._system = None
        self.faults: List[Dict[str, Any]] = []
        self._tainted_cells: Dict[int, str] = {}
        self._tainted_frames: Dict[int, str] = {}
        self._records: List[Dict[str, Any]] = []
        self._by_key: Dict[Tuple, Dict[str, Any]] = {}
        # (cell, frame) -> how recovery dropped the page
        self._discards: Dict[Tuple[int, int], str] = {}
        self.process_kills: List[Dict[str, Any]] = []
        # taint id -> completion time of the recovery round that
        # confirmed the tainted cell dead
        self._recovered: Dict[str, int] = {}
        self.sips_tainted_sends: Dict[str, int] = {}

    # -- taint origin ---------------------------------------------------

    def is_tainted(self, cell_id) -> bool:
        return cell_id in self._tainted_cells

    def active_taint(self) -> Optional[str]:
        if not self.faults:
            return None
        return self.faults[-1]["taint"]

    def fault_injected(self, cell_id, kind, site=None, mode=None,
                       trigger=None) -> None:
        """Taint ``cell_id`` and snapshot its current exposure.

        The snapshot records what healthy cells have already accepted
        from the now-sick cell: write grants into their frames and
        pages imported from its memory.  Those are the interactions a
        post-hoc observer could not reconstruct, because they predate
        the fault.
        """
        taint = f"t{len(self.faults)}"
        self.faults.append({
            "taint": taint,
            "cell": cell_id,
            "kind": kind,
            "site": site,
            "mode": mode,
            "trigger": trigger,
            "time_ns": self.sim.now,
        })
        self._tainted_cells[cell_id] = taint
        rec = self._rec
        if rec is not None:
            rec.event("taint.origin", "taint", cell=cell_id, taint=taint,
                      kind=kind, site=site, mode=mode)
        self._snapshot_exposure(cell_id, taint)

    def _snapshot_exposure(self, sick_cell: int, taint: str) -> None:
        system = self._system
        if system is None:
            return
        for cell in system.cells:
            if cell.kernel_id == sick_cell or not cell.alive:
                continue
            for pf in cell.pfdats.writable_by(sick_cell):
                self._accept(CH_EXPOSURE, "writable_grant", sick_cell,
                             cell.kernel_id, frame=pf.frame, taint=taint)
            for pf in cell.pfdats.imported_from_cell(sick_cell):
                self._accept(CH_EXPOSURE, "import", sick_cell,
                             cell.kernel_id, frame=pf.frame, taint=taint)

    # -- recording ------------------------------------------------------

    def _record(self, verdict, channel, kind, src, dst, frame=None,
                op=None, defense=None, hard=False, taint=None):
        if taint is None:
            taint = self._tainted_cells.get(src) or \
                self._tainted_cells.get(dst) or self.active_taint()
        key = (taint, channel, kind, src, dst, frame, op, defense)
        entry = self._by_key.get(key)
        now = self.sim.now
        if entry is not None:
            entry["n"] += 1
            entry["last_ns"] = now
            return entry
        entry = {
            "seq": len(self._records),
            "taint": taint,
            "channel": channel,
            "kind": kind,
            "src": src,
            "dst": dst,
            "frame": frame,
            "op": op,
            "verdict": verdict,
            "defense": defense,
            "hard": hard,
            "n": 1,
            "first_ns": now,
            "last_ns": now,
        }
        self._by_key[key] = entry
        self._records.append(entry)
        if verdict == V_BLOCKED:
            rec = self._rec
            if rec is not None:
                rec.event("taint.blocked", "taint", cell=dst, src=src,
                          taint=taint, channel=channel, kind=kind,
                          defense=defense, frame=frame, op=op)
        return entry

    def _blocked(self, channel, kind, src, dst, defense, frame=None,
                 op=None):
        return self._record(V_BLOCKED, channel, kind, src, dst,
                            frame=frame, op=op, defense=defense)

    def _accept(self, channel, kind, src, dst, frame=None, op=None,
                hard=False, taint=None):
        return self._record(V_PENDING, channel, kind, src, dst,
                            frame=frame, op=op, hard=hard, taint=taint)

    # -- hooks: careful references --------------------------------------

    def careful_blocked(self, remote_cell, local_cell, check,
                        detail) -> None:
        if not self._tainted_cells:
            return
        self._blocked(CH_CAREFUL, "read", remote_cell, local_cell, check)

    def careful_ok(self, remote_cell, local_cell) -> None:
        if remote_cell not in self._tainted_cells:
            return
        self._accept(CH_CAREFUL, "read", remote_cell, local_cell)

    # -- hooks: RPC -----------------------------------------------------

    def rpc_blocked(self, caller_cell, dst_cell, op, defense) -> None:
        # Client side: a call into a tainted cell failed closed — the
        # reply was never consumed, so the taint did not cross.
        self._blocked(CH_RPC, "call", dst_cell, caller_cell, defense,
                      op=op)

    def rpc_reply(self, caller_cell, dst_cell, op) -> None:
        # Client side: a reply from a tainted cell was consumed.
        self._accept(CH_RPC, "reply", dst_cell, caller_cell, op=op)

    def rpc_served(self, src_cell, server_cell, op, rejected=None) -> None:
        # Server side: a request *from* a tainted cell was handled.
        if src_cell not in self._tainted_cells:
            return
        if rejected is not None:
            self._blocked(CH_RPC, "request", src_cell, server_cell,
                          rejected, op=op)
        else:
            self._accept(CH_RPC, "request", src_cell, server_cell, op=op)

    # -- hooks: wild writes and firewall --------------------------------

    def wild_write(self, sick_cell, home_cell, frame, landed,
                   defense=None) -> None:
        if not landed:
            self._blocked(CH_WILDWRITE, "write", sick_cell, home_cell,
                          defense, frame=frame)
            return
        taint = self._tainted_cells.get(sick_cell) or self.active_taint()
        if taint is not None:
            self._tainted_frames[frame] = taint
        if home_cell is not None and home_cell != sick_cell:
            # Actual damage to a healthy cell's memory: only an
            # explicit discard of that frame can resolve this.
            self._accept(CH_WILDWRITE, "write", sick_cell, home_cell,
                         frame=frame, hard=True, taint=taint)

    def write_granted(self, owner_cell, client_cell, frame) -> None:
        if client_cell not in self._tainted_cells:
            return
        self._accept(CH_FIREWALL, "grant", client_cell, owner_cell,
                     frame=frame)

    # -- hooks: page sharing --------------------------------------------

    def page_imported(self, importer_cell, data_home, frame) -> None:
        if not self._tainted_cells:
            return
        hard = frame in self._tainted_frames
        if data_home in self._tainted_cells or hard:
            self._accept(CH_PAGE, "import", data_home, importer_cell,
                         frame=frame, hard=hard,
                         taint=self._tainted_frames.get(frame))

    def page_exported(self, owner_cell, client_cell, frame,
                      writable) -> None:
        # Writable exports are covered by the firewall grant hook; a
        # read-only export to a tainted cell is outbound flow only.
        if writable or client_cell not in self._tainted_cells:
            return
        self._accept(CH_PAGE, "export", client_cell, owner_cell,
                     frame=frame)

    def frames_loaned(self, owner_cell, borrower_cell, frames) -> None:
        if not self._tainted_cells:
            return
        if borrower_cell in self._tainted_cells:
            # Loaned frames are fully writable by the sick borrower;
            # preemptive discard reclaims them via the reserved list.
            for frame in frames:
                self._accept(CH_PAGE, "loan", borrower_cell, owner_cell,
                             frame=frame)
        elif owner_cell in self._tainted_cells:
            # A healthy cell borrowed frames in the sick cell's memory;
            # the borrowed-from-dead discard loop resolves them.
            for frame in frames:
                self._accept(CH_PAGE, "borrow", owner_cell,
                             borrower_cell, frame=frame)

    # -- hooks: SIPS ----------------------------------------------------

    def sips_sent(self, src_node, dst_node, kind) -> None:
        if not self._tainted_cells:
            return
        registry = self._registry
        if registry is None:
            return
        try:
            src_cell = registry.cell_of_node(src_node)
        except KeyError:
            return
        if src_cell in self._tainted_cells:
            self.sips_tainted_sends[kind] = \
                self.sips_tainted_sends.get(kind, 0) + 1

    # -- hooks: recovery resolutions ------------------------------------

    def page_discarded(self, cell_id, frame, dead_cell) -> None:
        if not self._tainted_cells:
            return
        self._discards.setdefault((cell_id, frame), "page_discard")

    def import_dropped(self, cell_id, frame, data_home) -> None:
        if not self._tainted_cells:
            return
        self._discards.setdefault((cell_id, frame), "import_drop")

    def process_killed(self, cell_id, pid, reason) -> None:
        if not self._tainted_cells:
            return
        if len(self.process_kills) < 1000:
            self.process_kills.append({
                "cell": cell_id,
                "pid": pid,
                "reason": reason,
                "time_ns": self.sim.now,
                "taint": self.active_taint(),
            })

    def recovery_done(self, record) -> None:
        for cell_id in record.dead_cells:
            taint = self._tainted_cells.get(cell_id)
            if taint is not None and taint not in self._recovered:
                self._recovered[taint] = self.sim.now

    # -- audit ----------------------------------------------------------

    def _resolve(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Classify one interaction record (non-destructively)."""
        out = {k: entry[k] for k in (
            "seq", "taint", "channel", "kind", "src", "dst", "frame",
            "op", "verdict", "defense", "hard", "n", "first_ns",
            "last_ns")}
        out["resolution"] = None
        if entry["verdict"] != V_PENDING:
            return out
        how = None
        if entry["frame"] is not None:
            how = self._discards.get((entry["dst"], entry["frame"]))
        if how is None and not entry["hard"]:
            done = self._recovered.get(entry["taint"])
            if done is not None and done >= entry["first_ns"]:
                how = "recovery_round"
        if how is not None:
            out["verdict"] = V_DISCARDED
            out["resolution"] = how
        else:
            out["verdict"] = V_ABSORBED
        return out

    def audit_report(self) -> Dict[str, Any]:
        """The per-trial containment audit: JSON-safe and deterministic.

        Safe to call repeatedly; pending records are resolved into the
        report without mutating tracer state.
        """
        interactions = [self._resolve(e) for e in self._records]
        by_verdict: Dict[str, int] = {}
        by_defense: Dict[str, int] = {}
        by_channel: Dict[str, int] = {}
        resolutions: Dict[str, int] = {}
        for it in interactions:
            by_verdict[it["verdict"]] = \
                by_verdict.get(it["verdict"], 0) + it["n"]
            by_channel[it["channel"]] = \
                by_channel.get(it["channel"], 0) + it["n"]
            if it["verdict"] == V_BLOCKED and it["defense"] is not None:
                by_defense[it["defense"]] = \
                    by_defense.get(it["defense"], 0) + it["n"]
            if it["resolution"] is not None:
                resolutions[it["resolution"]] = \
                    resolutions.get(it["resolution"], 0) + it["n"]
        absorbed = by_verdict.get(V_ABSORBED, 0)
        if not self.faults:
            verdict = "no_fault"
        elif absorbed:
            verdict = "breach"
        else:
            verdict = "contained"
        return {
            "schema": AUDIT_SCHEMA,
            "faults": [dict(f) for f in self.faults],
            "interactions": interactions,
            "summary": {
                "records": len(interactions),
                "interactions": sum(it["n"] for it in interactions),
                "by_verdict": by_verdict,
                "by_defense": by_defense,
                "by_channel": by_channel,
                "resolutions": resolutions,
                "near_misses": by_verdict.get(V_BLOCKED, 0),
                "process_kills": len(self.process_kills),
                "sips_tainted_sends": dict(self.sips_tainted_sends),
            },
            "recovered": dict(self._recovered),
            "process_kills": [dict(k) for k in self.process_kills],
            "dag": _build_dag(self.faults, interactions),
            "verdict": verdict,
        }


def _build_dag(faults: List[Dict[str, Any]],
               interactions: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate interactions into a propagation DAG.

    Nodes are fault origins and cells; edges group interactions by
    ``(src, dst, channel, verdict)`` with counts and first/last times.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for fault in faults:
        fid = f"fault:{fault['taint']}"
        nodes[fid] = {"id": fid, "type": "fault", "cell": fault["cell"],
                      "kind": fault["kind"], "time_ns": fault["time_ns"]}
        cid = f"cell:{fault['cell']}"
        nodes.setdefault(cid, {"id": cid, "type": "cell",
                               "cell": fault["cell"]})
    edges: Dict[Tuple, Dict[str, Any]] = {}
    for fault in faults:
        key = (f"fault:{fault['taint']}", f"cell:{fault['cell']}",
               "inject", fault["kind"])
        edges[key] = {"src": key[0], "dst": key[1], "channel": "inject",
                      "verdict": fault["kind"], "n": 1,
                      "first_ns": fault["time_ns"],
                      "last_ns": fault["time_ns"]}
    for it in interactions:
        for cell in (it["src"], it["dst"]):
            if cell is None:
                continue
            cid = f"cell:{cell}"
            nodes.setdefault(cid, {"id": cid, "type": "cell",
                                   "cell": cell})
        key = (f"cell:{it['src']}", f"cell:{it['dst']}", it["channel"],
               it["verdict"])
        edge = edges.get(key)
        if edge is None:
            edges[key] = {"src": key[0], "dst": key[1],
                          "channel": it["channel"],
                          "verdict": it["verdict"], "n": it["n"],
                          "first_ns": it["first_ns"],
                          "last_ns": it["last_ns"]}
        else:
            edge["n"] += it["n"]
            edge["first_ns"] = min(edge["first_ns"], it["first_ns"])
            edge["last_ns"] = max(edge["last_ns"], it["last_ns"])
    return {
        "nodes": [nodes[k] for k in sorted(nodes)],
        "edges": [edges[k] for k in sorted(edges)],
    }


def attach_provenance(system, tracer: Optional[ProvenanceTracer] = None,
                      ) -> ProvenanceTracer:
    """Wire a tracer into a booted :class:`~repro.core.hive.HiveSystem`.

    Mirrors :func:`~repro.obs.recorder.attach_flight_recorder`: only
    stable observer interfaces are used — ``cell.prov`` handles (read
    by the RPC, careful-reference, sharing, and recovery hooks), the
    SIPS fabric's ``prov`` slot, ``injector.observers``,
    ``coordinator.observers``, and ``registry.register_observers`` so
    rebooted cells are traced too.  Attach after the flight recorder if
    taint events should land on the shared timeline.
    """
    tracer = tracer if tracer is not None else \
        ProvenanceTracer(system.sim, recorder=system.recorder)
    system.provenance = tracer
    registry = system.registry
    tracer._registry = registry
    tracer._system = system
    system.machine.sips.prov = tracer

    def on_injection(record) -> None:
        try:
            cell = registry.cell_of_node(record.node_id)
        except KeyError:
            cell = None
        if cell is not None:
            tracer.fault_injected(cell, kind=record.kind,
                                  trigger=record.trigger)

    system.injector.observers.append(on_injection)

    coordinator = registry.coordinator
    if coordinator is not None:
        coordinator.observers.append(tracer.recovery_done)

    def wire_cell(cell) -> None:
        if cell.prov is tracer:
            return  # already traced (idempotent re-attach)
        cell.prov = tracer

    for cell in system.cells:
        wire_cell(cell)
    registry.register_observers.append(wire_cell)
    return tracer


# -- campaign merging ---------------------------------------------------

def merge_audits(reports: Iterable[Dict[str, Any]],
                 labels: Iterable[str]) -> Dict[str, Any]:
    """Fold per-trial audits into one campaign audit, deterministically.

    Trials are keyed by label (PR 6's ``scenario-seed`` convention) and
    kept verbatim, so a campaign-merged audit's per-trial entry is
    byte-identical to the single-process audit of the same trial; the
    folded summary just adds counts, making the merge associative and
    order-independent after the label sort.
    """
    pairs = sorted(zip(labels, reports), key=lambda p: p[0])
    trials: Dict[str, Dict[str, Any]] = {}
    by_verdict: Dict[str, int] = {}
    by_defense: Dict[str, int] = {}
    by_channel: Dict[str, int] = {}
    faults = 0
    verdicts: Dict[str, int] = {}
    for label, report in pairs:
        if label in trials:
            raise ValueError(f"duplicate audit label: {label}")
        trials[label] = report
        summary = report.get("summary", {})
        for bucket, total in (("by_verdict", by_verdict),
                              ("by_defense", by_defense),
                              ("by_channel", by_channel)):
            for key, n in summary.get(bucket, {}).items():
                total[key] = total.get(key, 0) + n
        faults += len(report.get("faults", []))
        v = report.get("verdict", "no_fault")
        verdicts[v] = verdicts.get(v, 0) + 1
    if verdicts.get("breach"):
        verdict = "breach"
    elif verdicts.get("contained"):
        verdict = "contained"
    else:
        verdict = "no_fault"
    return {
        "schema": AUDIT_SCHEMA,
        "trials": trials,
        "summary": {
            "trials": len(trials),
            "faults": faults,
            "by_verdict": by_verdict,
            "by_defense": by_defense,
            "by_channel": by_channel,
            "near_misses": by_verdict.get(V_BLOCKED, 0),
            "verdicts": verdicts,
        },
        "verdict": verdict,
    }


# -- rendering ----------------------------------------------------------

def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:.3f} ms"


def render_audit_markdown(payload: Dict[str, Any]) -> str:
    """Render a merged campaign audit (or a single-trial audit wrapped
    by :func:`merge_audits`) as markdown."""
    lines: List[str] = ["# Containment audit", ""]
    summary = payload.get("summary", {})
    lines.append(f"- verdict: **{payload.get('verdict', 'no_fault')}**")
    lines.append(f"- trials: {summary.get('trials', 0)}  "
                 f"faults: {summary.get('faults', 0)}")
    bv = summary.get("by_verdict", {})
    lines.append(f"- interactions: blocked {bv.get(V_BLOCKED, 0)}, "
                 f"discarded {bv.get(V_DISCARDED, 0)}, "
                 f"absorbed {bv.get(V_ABSORBED, 0)}")
    lines.append("")
    by_defense = summary.get("by_defense", {})
    if by_defense:
        lines.append("## Near-misses by defense")
        lines.append("")
        lines.append("| defense | blocked interactions |")
        lines.append("|---|---|")
        for defense in sorted(by_defense):
            lines.append(f"| {defense} | {by_defense[defense]} |")
        lines.append("")
    for label in sorted(payload.get("trials", {})):
        report = payload["trials"][label]
        lines.append(f"## Trial `{label}` — {report.get('verdict')}")
        lines.append("")
        for fault in report.get("faults", []):
            site = fault.get("site") or fault.get("trigger") or ""
            detail = f" {site}" if site else ""
            lines.append(f"- fault `{fault['taint']}`: {fault['kind']}"
                         f"{detail} on cell {fault['cell']} at "
                         f"{_fmt_ms(fault['time_ns'])}")
        recovered = report.get("recovered", {})
        for taint in sorted(recovered):
            lines.append(f"- recovery confirmed `{taint}` dead at "
                         f"{_fmt_ms(recovered[taint])}")
        dag = report.get("dag", {})
        edges = dag.get("edges", [])
        if edges:
            lines.append("")
            lines.append("| edge | channel | verdict | n | first |")
            lines.append("|---|---|---|---|---|")
            for edge in edges:
                lines.append(
                    f"| {edge['src']} → {edge['dst']} | {edge['channel']}"
                    f" | {edge['verdict']} | {edge['n']} | "
                    f"{_fmt_ms(edge['first_ns'])} |")
        absorbed = [it for it in report.get("interactions", [])
                    if it["verdict"] == V_ABSORBED]
        if absorbed:
            lines.append("")
            lines.append("### Containment breaches")
            lines.append("")
            for it in absorbed:
                lines.append(
                    f"- {it['channel']}/{it['kind']} cell {it['src']} → "
                    f"cell {it['dst']}"
                    + (f" frame {it['frame']}" if it["frame"] is not None
                       else "")
                    + f" ×{it['n']} at {_fmt_ms(it['first_ns'])}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
