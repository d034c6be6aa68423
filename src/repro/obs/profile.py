"""Hot-path tier profiling: which tier served the work.

Two subsystems resolve work in tiers — coherence batches (memo replay
/ inlined sequential) and RPC dispatch (one coalesced path).  This
module aggregates the per-subsystem attribution counters into one
JSON-stable snapshot so campaigns and benchmarks can report *tier hit
rates* — how often each tier actually fired — instead of guessing from
end-to-end timings.

Counter sources:

* coherence tiers are plain always-on ints on the controller (one
  increment per batch — noise-level cost);
* the RPC dispatch counter lives in each cell's RPC ``MetricSet``.

Where the engine's wall-clock goes is not counted here: ``python3 -m
perfbench --trace`` reports ``sim.engine.self_s`` / ``.fn_calls`` per
layer from cProfile on the one run loop.

Every figure is a deterministic function of the simulated event stream,
so merged campaign snapshots are byte-stable across same-seed runs.
"""

from __future__ import annotations

from typing import Any, Dict, List


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def coherence_tiers(coherence) -> Dict[str, Any]:
    """Batch-tier counts and hit rates for one coherence controller."""
    snap = coherence.tier_snapshot()
    total = snap["memo_hits"] + snap["inline_batches"]
    snap["batches_total"] = total
    snap["memo_hit_rate"] = _rate(snap["memo_hits"], total)
    snap["inline_rate"] = _rate(snap["inline_batches"], total)
    return snap


def rpc_tiers(system) -> Dict[str, Any]:
    """RPC dispatch counts summed over all cells.

    Every call takes the one coalesced dispatch, which the ledger has
    always called ``fast_path``; the key names stay so rows compare
    across committed bench files.
    """
    calls = sum(cell.rpc.metrics.counter("fast_path").value
                for cell in system.cells)
    return {
        "fast_path": calls,
        "calls_total": calls,
        "fast_rate": _rate(calls, calls),
    }


def tier_snapshot(system) -> Dict[str, Any]:
    """One combined tier snapshot for a booted system."""
    return {
        "coherence": coherence_tiers(system.machine.coherence),
        "rpc": rpc_tiers(system),
    }


def merge_tier_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard tier snapshots into one campaign-wide snapshot.

    Counts add; rates are recomputed from the merged counts (never
    averaged — shard sizes differ).
    """
    merged: Dict[str, Any] = {
        "coherence": {"memo_hits": 0, "inline_batches": 0},
        "rpc": {"fast_path": 0, "calls_total": 0},
    }
    coh = merged["coherence"]
    rpc = merged["rpc"]
    for snap in snaps:
        if not snap:
            continue
        shard = snap["coherence"]
        for key in ("memo_hits", "inline_batches"):
            coh[key] += shard[key]
        rpc["fast_path"] += snap["rpc"]["fast_path"]
        rpc["calls_total"] += snap["rpc"]["calls_total"]

    total = sum(coh.values())
    coh["batches_total"] = total
    coh["memo_hit_rate"] = _rate(coh["memo_hits"], total)
    coh["inline_rate"] = _rate(coh["inline_batches"], total)

    rpc["fast_rate"] = _rate(rpc["fast_path"], rpc["calls_total"])
    return merged
