"""Typed intercell channels: every cross-cell interaction, enumerated.

Hive's containment argument rests on cells interacting only through a
small set of hardware mechanisms — RPC/SIPS messages, remote coherence
misses, and firewall status changes.  This module makes that seam
explicit in the simulator: when a :class:`CellChannels` instance is
attached to the hardware layer (``coherence.channels`` /
``sips.channels`` / the firewall manager's machine hook), every
intercell operation is *published* as a typed op — ``(kind, source
cell, destination cell, source node, destination node, issue time,
latency)``.

The ops are an audit signal, counted and fingerprinted, not kept.  Each
is validated against the lookahead invariant (no op may cross a cell
boundary faster than ``HardwareParams.min_intercell_latency_ns()``) and
folded into a running digest, so two runs can be compared
channel-op-for-channel-op, not just counter-for-counter — the
equivalence gates in :mod:`repro.bench.throughput` attach one to both
sides (``channels=True``) and diff the snapshot.

Publishing is a ``None``-checked hook exactly like the fault-provenance
tracer: a simulator without channels attached (the default) pays one
attribute test per *slow-path* operation and nothing on hit paths.
Cache hits never cross a cell boundary, so they are not channel traffic
by definition.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict

#: channel op kinds — the complete enumeration of intercell traffic
SIPS_REQUEST = "sips_request"
SIPS_REPLY = "sips_reply"
COH_READ_MISS = "coh_read_miss"
COH_WRITE_MISS = "coh_write_miss"
FW_GRANT = "fw_grant"
FW_REVOKE = "fw_revoke"

OP_KINDS = (SIPS_REQUEST, SIPS_REPLY, COH_READ_MISS, COH_WRITE_MISS,
            FW_GRANT, FW_REVOKE)


class ChannelViolation(Exception):
    """An op crossed a cell boundary faster than the minimum intercell
    latency — the hardware parameters contradict their own floor."""


class CellChannels:
    """All directed intercell channels for one machine.

    Construction needs the node->cell ownership map (cells are a kernel
    concept; the hardware publishers only know node ids) and the
    lookahead, which callers should take from
    ``HardwareParams.min_intercell_latency_ns()``.

    Ops between nodes of the *same* cell are intracell traffic and are
    not recorded — the channel set is exactly the containment boundary.
    """

    def __init__(self, node_to_cell: Dict[int, int], window_ns: int,
                 now_fn=None):
        if window_ns <= 0:
            raise ValueError(f"window width must be positive: {window_ns}")
        self.node_to_cell = dict(node_to_cell)
        self.window_ns = window_ns
        #: callable returning the current simulated time; publishers at
        #: the hardware layer have no simulator reference, so the clock
        #: is injected here (typically ``lambda: sim.now``).
        self.now_fn = now_fn or (lambda: 0)
        self.ops_total = 0
        self.ops_by_kind: Dict[str, int] = {k: 0 for k in OP_KINDS}
        #: commutative digest (sum of per-op CRCs mod 2**64) — a cheap
        #: whole-run fingerprint two runs can compare directly.  Order-
        #: independent on purpose: parked and per-wakeup execution may
        #: dispatch ops tied at one instant in different relative order,
        #: but must publish the identical multiset.
        self.digest = 0
        #: lookahead-invariant violations observed (0 on a sound run)
        self.violations = 0
        self.strict = True

    # -- publishing (hardware-layer hooks) ----------------------------

    def publish(self, kind: str, src_node: int, dst_node: int,
                latency_ns: int) -> None:
        """Record one intercell op; no-op for intracell traffic."""
        n2c = self.node_to_cell
        src_cell = n2c.get(src_node)
        dst_cell = n2c.get(dst_node)
        if src_cell is None or dst_cell is None or src_cell == dst_cell:
            return
        if latency_ns < self.window_ns:
            # Nothing may out-run the lookahead.  A violation here means
            # the floor was derived from the wrong parameter set.
            self.violations += 1
            if self.strict:
                raise ChannelViolation(
                    f"{kind} cell{src_cell}->cell{dst_cell} latency "
                    f"{latency_ns}ns under lookahead {self.window_ns}ns")
        op = (kind, src_cell, dst_cell, src_node, dst_node,
              self.now_fn(), latency_ns)
        self.ops_total += 1
        self.ops_by_kind[kind] += 1
        self.digest = (self.digest + zlib.crc32(repr(op).encode())) \
            & 0xFFFFFFFFFFFFFFFF

    # convenience wrappers with the publisher-side vocabulary ---------

    def sips(self, src_node: int, dst_node: int, kind: str,
             latency_ns: int) -> None:
        self.publish(SIPS_REQUEST if kind == "request" else SIPS_REPLY,
                     src_node, dst_node, latency_ns)

    def coherence_miss(self, src_node: int, home_node: int, write: bool,
                       latency_ns: int) -> None:
        self.publish(COH_WRITE_MISS if write else COH_READ_MISS,
                     src_node, home_node, latency_ns)

    def firewall(self, src_node: int, dst_node: int, grant: bool,
                 latency_ns: int) -> None:
        self.publish(FW_GRANT if grant else FW_REVOKE,
                     src_node, dst_node, latency_ns)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic summary for bench rows and equivalence gates."""
        return {
            "window_ns": self.window_ns,
            "ops_total": self.ops_total,
            "ops_by_kind": {k: v for k, v in
                            sorted(self.ops_by_kind.items()) if v},
            "digest": self.digest,
            "violations": self.violations,
        }


def attach_channels(machine, registry, window_ns: int,
                    sim=None) -> CellChannels:
    """Wire a :class:`CellChannels` into a booted machine.

    ``registry`` provides the node->cell ownership map; the hook slots
    (``coherence.channels``, ``sips.channels``, ``machine.channels``)
    are plain attributes checked against None on the slow paths.
    """
    node_to_cell = {}
    for cell_id in registry.cells:
        for node in registry.nodes_of(cell_id):
            node_to_cell[node] = cell_id
    channels = CellChannels(
        node_to_cell, window_ns,
        now_fn=(lambda: sim.now) if sim is not None else None)
    machine.channels = channels
    machine.coherence.channels = channels
    machine.sips.channels = channels
    return channels
