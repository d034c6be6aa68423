"""A run's event log as plain rows, and where two such logs first differ.

``repro inject --replay`` runs every trial of a scenario on the same
workload seed and moves only the fault seed.  Each trial ships its
flight recorder's events as ``[time_ns, name, cell]`` rows
(:func:`event_rows`): plain lists, so they cross the campaign's process
boundary as they are.  The merge diffs every trial against trial 0 with
:func:`divergence_point`, which locates where the moved fault pushed the
run off the base timeline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

Row = List[Any]


def event_rows(events: Iterable) -> List[Row]:
    """One ``[time_ns, name, cell]`` row per TelemetryEvent-like."""
    return [[ev.time_ns, ev.name, ev.cell] for ev in events]


def divergence_point(base: List[Row], other: List[Row]) -> Dict[str, Any]:
    """Row-wise diff of two event logs: where do they first differ?

    Returns the length of the identical prefix, the first divergent
    simulated time (None when neither log diverges from the other), and
    the identical fraction relative to the longer log.
    """
    n = min(len(base), len(other))
    total = max(len(base), len(other))
    prefix = next((i for i in range(n) if base[i] != other[i]), n)
    if prefix == total:
        time = None
    elif prefix < n:
        time = min(base[prefix][0], other[prefix][0])
    else:
        # One log is a strict prefix of the other: the longer one's
        # next row is where they part.
        time = max(base, other, key=len)[prefix][0]
    return {
        "identical_prefix": prefix,
        "divergence_ns": time,
        "identical_fraction": prefix / total if total else 1.0,
        "rows": {"base": len(base), "other": len(other)},
    }
