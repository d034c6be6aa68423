"""System-wide metrics aggregation: one snapshot tree per system.

``snapshot_system`` walks a booted system and collects every per-cell,
per-subsystem :class:`~repro.sim.stats.MetricSet` plus the hardware-level
counters (coherence directory, SIPS fabric, per-node firewalls) into one
JSON-serializable tree, keyed ``cells.<id>.<subsystem>`` and
``machine.<subsystem>``.  ``cells.<id>.frames`` says where the cell's
memory is: its frames per placement state (DESIGN.md §3m), counted as
the frame-ledger invariant files them.
"""

from __future__ import annotations

from typing import Any, Dict, List


def _firewall_hardware(machine, node_ids: List[int]) -> Dict[str, int]:
    checks = violations = updates = 0
    for node in node_ids:
        fw = machine.memory.firewalls[node]
        checks += fw.checks
        violations += fw.violations
        updates += fw.updates
    return {"hw_checks": checks, "hw_violations": violations,
            "hw_updates": updates}


def snapshot_system(system) -> Dict[str, Any]:
    """Aggregate every subsystem's metrics into one snapshot tree."""
    machine = system.machine
    tree: Dict[str, Any] = {
        "time_ns": system.sim.now,
        "cells": {},
        "machine": {},
    }
    for cell in system.cells:
        entry: Dict[str, Any] = {
            "alive": cell.alive,
            "incarnation": cell.incarnation,
            "kernel": cell.metrics.snapshot(),
            "rpc": cell.rpc.metrics.snapshot(),
            "sharing": cell.sharing_metrics.snapshot(),
            "recovery": cell.recovery_metrics.snapshot(),
            "detection": cell.detection_metrics.snapshot(),
            "careful": {
                "reads": cell.careful.reads,
                "faults_detected": cell.careful.faults_detected,
            },
            "frames": cell.pfdats.frame_counts(),
        }
        firewall = cell.firewall_metrics.snapshot()
        firewall["grants_total"] = cell.firewall_mgr.grants
        firewall["revokes_total"] = cell.firewall_mgr.revokes
        firewall["remotely_writable_pages"] = \
            cell.firewall_mgr.remotely_writable_pages()
        firewall.update(_firewall_hardware(machine, cell.node_ids))
        entry["firewall"] = firewall
        detection = entry["detection"]
        detection["clock_checks"] = cell.detector.clock_checks
        detection["hints_recorded"] = len(cell.detector.hints)
        recovery = entry["recovery"]
        recovery["rounds_entered"] = len(cell.recovery_entries)
        tree["cells"][str(cell.kernel_id)] = entry

    stats = machine.coherence.stats
    coherence: Dict[str, Any] = {
        "read_hits": stats.read_hits,
        "read_misses": stats.read_misses,
        "write_hits": stats.write_hits,
        "write_misses": stats.write_misses,
        "remote_write_misses": stats.remote_write_misses,
        "avg_remote_write_miss_ns": stats.avg_remote_write_miss_ns,
        "invalidations": stats.invalidations,
        "firewall_checks": stats.firewall_checks,
    }
    hist = getattr(machine.coherence, "remote_write_hist", None)
    if hist is not None:
        for key, value in hist.snapshot().items():
            coherence[f"remote_write_miss_ns.{key}"] = value
    tree["machine"]["coherence"] = coherence

    sips = machine.sips
    tree["machine"]["sips"] = {
        "sends": sips.sends,
        "sends_by_kind": dict(getattr(sips, "sends_by_kind", {})),
        "flow_control_rejections": sips.flow_control_rejections,
    }
    tree["machine"]["firewall"] = _firewall_hardware(
        machine, list(range(machine.params.num_nodes)))

    coordinator = system.coordinator
    records = coordinator.records if coordinator is not None else []
    tree["recovery"] = {
        "rounds_completed": len(records),
        "reboots": system.registry.reboots,
        "rounds": [
            {
                "round_id": r.round_id,
                "dead_cells": sorted(r.dead_cells),
                "agreement_ns": r.agreement_ns,
                "last_entry_ns": r.last_entry_ns,
                "recovery_done_ns": r.recovery_done_ns,
                "discarded_pages": r.discarded_pages,
                "files_lost": r.files_lost,
                "killed_processes": r.killed_processes,
                "surviving_processes": r.surviving_processes,
                "rebooted": r.rebooted,
            }
            for r in records
        ],
    }
    return tree


def render_snapshot(tree: Dict[str, Any]) -> str:
    """Human-readable rendering of a snapshot tree (``repro metrics``)."""
    lines: List[str] = [f"metrics @ {tree['time_ns'] / 1e6:.3f} ms"]
    for cell_id in sorted(tree["cells"], key=int):
        entry = tree["cells"][cell_id]
        state = "alive" if entry["alive"] else "dead"
        lines.append(f"cell {cell_id} ({state}, "
                     f"incarnation {entry['incarnation']})")
        for subsystem in ("kernel", "rpc", "sharing", "firewall",
                          "recovery", "detection", "careful", "frames"):
            flat = entry[subsystem]
            nonzero = {k: v for k, v in sorted(flat.items()) if v}
            if not nonzero:
                continue
            parts = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                              else f"{k}={v}" for k, v in nonzero.items())
            lines.append(f"  {subsystem:>9}: {parts}")
    for subsystem in ("coherence", "sips", "firewall"):
        flat = tree["machine"][subsystem]
        parts = ", ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(flat.items())
            if not isinstance(v, dict) and v)
        lines.append(f"machine {subsystem}: {parts or '(idle)'}")
    recovery = tree["recovery"]
    lines.append(f"recovery: {recovery['rounds_completed']} rounds, "
                 f"{recovery['reboots']} reboots")
    return "\n".join(lines)
