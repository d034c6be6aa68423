"""Million-session open-loop traffic frontend.

The paper's workloads (pmake, ocean, raytrace) are *closed* — a fixed
set of jobs that the machine finishes.  A standalone-server Hive also
faces *open* traffic: sessions arrive whether or not the machine keeps
up, with heavy-tailed interarrival and service-size distributions, and
the interesting fault metric is how many in-flight sessions one cell
failure costs (the availability observatory's work-lost view, at
session granularity).

This module generates that traffic at million-session scale against a
booted :class:`~repro.core.hive.HiveSystem`:

* **per-session RNG substreams** — every draw of session ``sid`` is a
  pure function of ``(seed, sid, draw-index)`` through a SplitMix64
  counter stream; session ``sid`` owns the disjoint counter block
  ``[sid*DRAWS_PER_SESSION, (sid+1)*DRAWS_PER_SESSION)``, so substreams
  are deterministic and non-overlapping by construction, independent of
  chunking (the property the tests pin down);
* **open-loop queueing** — arrivals follow a lognormal or Pareto
  interarrival process; each session carries a heavy-tailed service
  demand scaled by its type (compile / compute / fs-heavy mix) and is
  placed round-robin on a per-cell FCFS server pool.  The exact FCFS
  recurrence ``finish_i = max(arrival_i, finish_{i-1}) + service_i``
  runs vectorized (cumsum + running max), so a million sessions cost
  array passes, not a million engine events;
* **real sharing traffic** — the generator advances the simulator
  chunk by chunk, and a deterministic fraction of sessions issues real
  coherence accesses against firewall-granted remote frames (the
  throughput bench's grant path), so kernel clocks, fault detection and
  recovery interleave with the session timeline; sampled *probe*
  sessions additionally run as real kernel processes (map/touch/compute)
  through the :class:`~repro.workloads.base.Platform` adapter;
* **fault accounting** — a session is *lost* when its cell died while
  it was in flight (arrived, service not yet completed); arrivals after
  a known death fail over to the surviving cells, or without failover
  are *lost arrivals*, counted apart.  Every session is exactly one of
  completed (its latency is recorded), lost or a lost arrival.  A
  session is settled as soon as the clock passes its finish or its
  cell's death is in the ledger, so host memory holds one latency and
  one lost bit per session plus the still-open ones.
  ``sessions_lost_per_fault`` lands next to the availability
  observatory's ledger in the report.

Everything is seed-deterministic: counters, placements, losses and
latency histograms are byte-identical run to run; only wall-clock
rates vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.hive import HiveSystem, boot_hive
from repro.hardware.errors import BusError, FirewallViolation
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import NS_PER_MS, HardwareParams
from repro.sim.engine import Simulator
from repro.sim.snapshot import run_booted
from repro.sim.stats import Histogram
from repro.workloads.base import Platform

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None

#: session types and their service-time scale / coherence-coupling weight
SESSION_TYPES: Tuple[str, ...] = ("compile", "compute", "fs")
_SERVICE_SCALE = {"compile": 1.25, "compute": 1.0, "fs": 0.75}
_COUPLING_WEIGHT = {"compile": 1.0, "compute": 0.25, "fs": 2.0}

#: uniform draws reserved per session (indices are the substream layout:
#: 0/1 feed the interarrival draw, 2/3 the service draw, 4 the type mix;
#: unused indices stay reserved so changing a distribution never makes
#: two sessions' streams overlap).
DRAWS_PER_SESSION = 5
DRAW_ARRIVAL, DRAW_ARRIVAL2, DRAW_SERVICE, DRAW_SERVICE2, DRAW_TYPE = range(5)

#: latency buckets for session latencies (µs to tens of seconds — open
#: queues under overload run far past the RPC-scale default bounds).
SESSION_LATENCY_BOUNDS_NS = tuple(
    int(x) for x in (
        1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8,
        1e9, 3e9, 1e10, 3e10, 1e11))


def _require_numpy() -> None:
    if np is None:  # pragma: no cover
        raise RuntimeError(
            "the sessions workload requires numpy for vectorized "
            "generation (install numpy or use the kernel workloads)")


# -- per-session substreams -------------------------------------------------

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: "np.ndarray") -> "np.ndarray":
    """Vectorized SplitMix64 finalizer over uint64 counters."""
    x = (x + np.uint64(_SM_GAMMA)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_SM_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_SM_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _stream_base(seed: int) -> int:
    """The per-seed stream key (itself SplitMix64-whitened so adjacent
    seeds land in unrelated counter regions)."""
    arr = np.asarray([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return int(_splitmix64(_splitmix64(arr))[0])


def session_uniforms(seed: int, sids: "np.ndarray",
                     draw: int) -> "np.ndarray":
    """Uniform(0, 1] draw ``draw`` of each session in ``sids``.

    Session ``sid``'s substream is the counter block
    ``[sid*DRAWS_PER_SESSION, (sid+1)*DRAWS_PER_SESSION)`` hashed
    against the seed's stream key — deterministic, vectorized, and
    non-overlapping across sessions by construction.
    """
    _require_numpy()
    if not 0 <= draw < DRAWS_PER_SESSION:
        raise ValueError(f"draw index {draw} out of range")
    counters = (np.asarray(sids, dtype=np.uint64)
                * np.uint64(DRAWS_PER_SESSION) + np.uint64(draw))
    bits = _splitmix64(counters + np.uint64(_stream_base(seed)))
    # Top 53 bits -> (0, 1]: never 0, so log() is always safe.
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def _heavy_tailed(kind: str, mean: float, shape: float, u1: "np.ndarray",
                  u2: "np.ndarray") -> "np.ndarray":
    """Heavy-tailed positive samples with the requested mean.

    ``lognormal``: ``shape`` is sigma; mu is solved so E[X] = mean (the
    normal deviate comes from a Box-Muller transform of the session's
    two uniforms).  ``pareto``: ``shape`` is alpha (> 1); the scale is
    solved so E[X] = mean.
    """
    if kind == "lognormal":
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        mu = np.log(mean) - 0.5 * shape * shape
        return np.exp(mu + shape * z)
    if kind == "pareto":
        if shape <= 1.0:
            raise ValueError("pareto shape must be > 1 for a finite mean")
        xm = mean * (shape - 1.0) / shape
        return xm * np.power(u1, -1.0 / shape)
    raise ValueError(f"unknown distribution {kind!r}")


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class SessionTrafficConfig:
    """The open-loop traffic scenario."""

    sessions: int = 100_000
    seed: int = 1995
    #: interarrival process: mean gap and distribution shape
    mean_interarrival_ns: float = 10_000.0
    interarrival: str = "lognormal"
    interarrival_shape: float = 1.0
    #: service demand: mean and distribution shape
    mean_service_ns: float = 200_000.0
    service: str = "pareto"
    service_shape: float = 1.9
    #: session-type mix (weights over SESSION_TYPES, normalized)
    mix: Tuple[float, float, float] = (0.5, 0.3, 0.2)
    #: FCFS session servers per cell
    servers_per_cell: int = 8
    #: sessions generated (and sim-advanced) per vectorized chunk
    chunk_sessions: int = 65_536
    #: mean real coherence accesses issued per session (type-weighted)
    coupling_ops_per_session: float = 0.02
    #: remote frames each cell grants its neighbour for the coupling
    coupling_frames: int = 8
    #: every Nth session also runs as a real kernel process (0 = off)
    probe_every: int = 0
    #: fail-stop a node of the victim cell at this sim time (None = no
    #: fault); the victim defaults to the last cell
    inject_ms: Optional[int] = None
    victim_cell: Optional[int] = None
    #: re-route arrivals from dead cells to survivors
    failover: bool = True

    def __post_init__(self) -> None:
        for name in ("sessions", "probe_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative: "
                                 f"{getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "sessions": self.sessions, "seed": self.seed,
            "mean_interarrival_ns": self.mean_interarrival_ns,
            "interarrival": self.interarrival,
            "interarrival_shape": self.interarrival_shape,
            "mean_service_ns": self.mean_service_ns,
            "service": self.service, "service_shape": self.service_shape,
            "mix": tuple(self.mix),
            "servers_per_cell": self.servers_per_cell,
            "chunk_sessions": self.chunk_sessions,
            "coupling_ops_per_session": self.coupling_ops_per_session,
            "coupling_frames": self.coupling_frames,
            "probe_every": self.probe_every,
            "inject_ms": self.inject_ms,
            "victim_cell": self.victim_cell,
            "failover": self.failover,
        }


def generate_chunk(cfg: SessionTrafficConfig, start_sid: int, count: int,
                   t0_ns: float) -> Dict[str, "np.ndarray"]:
    """Arrivals, service demands and types for sessions
    ``[start_sid, start_sid + count)``, starting the clock at ``t0_ns``.

    Pure per-session substream math — the same session gets the same
    draws whatever chunk boundaries it lands in.
    """
    _require_numpy()
    sids = np.arange(start_sid, start_sid + count, dtype=np.uint64)
    seed = cfg.seed
    inter = _heavy_tailed(
        cfg.interarrival, cfg.mean_interarrival_ns, cfg.interarrival_shape,
        session_uniforms(seed, sids, DRAW_ARRIVAL),
        session_uniforms(seed, sids, DRAW_ARRIVAL2))
    arrivals = t0_ns + np.cumsum(inter)
    service = _heavy_tailed(
        cfg.service, cfg.mean_service_ns, cfg.service_shape,
        session_uniforms(seed, sids, DRAW_SERVICE),
        session_uniforms(seed, sids, DRAW_SERVICE2))
    weights = np.asarray(cfg.mix, dtype=np.float64)
    cum = np.cumsum(weights / weights.sum())
    types = np.searchsorted(
        cum, session_uniforms(seed, sids, DRAW_TYPE), side="left")
    types = np.minimum(types, len(SESSION_TYPES) - 1).astype(np.int8)
    scale = np.asarray([_SERVICE_SCALE[t] for t in SESSION_TYPES])
    service = service * scale[types]
    return {"sids": sids, "arrivals": arrivals, "service": service,
            "types": types}


# -- report -----------------------------------------------------------------


@dataclass
class SessionReport:
    """What one traffic run produced (JSON-safe via :meth:`to_dict`)."""

    sessions: int
    completed: int
    lost: int
    lost_arrivals: int
    faults: int
    sessions_lost_per_fault: float
    wall_s: float
    sessions_per_sec: float
    sim_horizon_ms: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_hist: dict
    by_type: Dict[str, int]
    coupling_accesses: int
    coupling_retired_cells: int
    probes_launched: int
    probes_completed: int
    cells: int
    servers_per_cell: int
    seed: int
    config: dict = field(default_factory=dict)
    availability: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "sessions": self.sessions,
            "completed": self.completed,
            "lost": self.lost,
            "lost_arrivals": self.lost_arrivals,
            "faults": self.faults,
            "sessions_lost_per_fault": self.sessions_lost_per_fault,
            "wall_s": self.wall_s,
            "sessions_per_sec": self.sessions_per_sec,
            "sim_horizon_ms": self.sim_horizon_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_hist": self.latency_hist,
            "by_type": dict(self.by_type),
            "coupling_accesses": self.coupling_accesses,
            "coupling_retired_cells": self.coupling_retired_cells,
            "probes_launched": self.probes_launched,
            "probes_completed": self.probes_completed,
            "cells": self.cells,
            "servers_per_cell": self.servers_per_cell,
            "seed": self.seed,
            "config": dict(self.config),
        }
        if self.availability is not None:
            out["availability"] = self.availability
        return out


# -- coupling: real coherence traffic from the session stream ---------------


class _CouplingDriver:
    """Issues real firewall-checked coherence accesses on behalf of the
    session stream (the throughput bench's grant path, re-used)."""

    def __init__(self, system: HiveSystem, cfg: SessionTrafficConfig):
        self.system = system
        self.cfg = cfg
        self.accesses = 0
        self.retired: set = set()
        self._cycles: Dict[int, list] = {}
        self._cursor: Dict[int, int] = {}
        self._cpu: Dict[int, int] = {}
        self._carry: Dict[int, float] = {}
        if cfg.coupling_ops_per_session <= 0:
            return
        sim = system.sim
        registry = system.registry
        machine = system.machine
        coh = machine.coherence
        line = machine.params.cache_line_size
        lines_per_page = machine.params.page_size // line
        cell_ids = registry.all_cell_ids()
        grants: Dict[int, list] = {}

        def _granter(cell, client: int, frames_out: list):
            pfs = [cell.pfdats.alloc_frame()
                   for _ in range(cfg.coupling_frames)]
            for pf in pfs:
                yield from cell.firewall_mgr.grant_write(pf, client)
                frames_out.append(pf.frame)
            return None

        for c in cell_ids:
            client = cell_ids[(cell_ids.index(c) + 1) % len(cell_ids)]
            frames: list = []
            grants[client] = frames
            sim.process(_granter(registry.cell_object(c), client, frames),
                        name=f"session-granter{c}")
        # The grant path is pure simulation: drain it before traffic.
        sim.run(until=sim.now + 2_000_000)
        ops = 16
        for client, frames in grants.items():
            if not frames:
                continue
            cycle = []
            for t in range(4):
                base = t * ops
                line_ids = [
                    frames[(base + k) % len(frames)] * lines_per_page
                    + ((base + 2 * k) % lines_per_page)
                    for k in range(ops)]
                op_list = [(base + 2 * k) & 1 for k in range(ops)]
                cycle.append(coh.prepare_batch(line_ids, op_list))
            self._cycles[client] = cycle
            self._cursor[client] = 0
            self._cpu[client] = registry.cell_object(client).cpu_ids[0]
            self._carry[client] = 0.0

    def issue(self, per_cell_weight: Dict[int, float]) -> None:
        """Issue the chunk's coupling accesses (deterministic counts:
        a fractional-accumulator per client cell, 16 ops per batch)."""
        if not self._cycles:
            return
        coh = self.system.machine.coherence
        registry = self.system.registry
        for client, cycle in sorted(self._cycles.items()):
            if client in self.retired or not registry.is_live(client):
                continue
            self._carry[client] += per_cell_weight.get(client, 0.0)
            batches = int(self._carry[client] // 16)
            self._carry[client] -= batches * 16
            cursor = self._cursor[client]
            cpu = self._cpu[client]
            for _ in range(batches):
                try:
                    coh.access_prepared(cpu, cycle[cursor & 3])
                except (BusError, FirewallViolation):
                    # The granter died and revoked: this client retires
                    # from the sharing pool (exactly like the bench
                    # driver), the sessions themselves keep flowing.
                    self.retired.add(client)
                    break
                self.accesses += 16
                cursor += 1
            self._cursor[client] = cursor


# -- probe sessions: sampled real kernel work -------------------------------


def _probe_program(service_ns: int, box: dict):
    def program(ctx):
        region = yield from ctx.map_anon(2)
        yield from ctx.touch_many(region, 0, 2, write=True)
        yield from ctx.compute(service_ns)
        box["completed"] += 1
        return None
    return program


# -- the run ----------------------------------------------------------------


def run_session_traffic(system: HiveSystem, cfg: SessionTrafficConfig,
                        recorder=None) -> SessionReport:
    """Drive the open-loop session stream against a booted system.

    Advances the simulator in lockstep with the generated arrivals, so
    kernel clock loops, the optional fail-stop fault, detection and
    recovery all interleave with the session timeline; session-level
    queueing runs vectorized on the side.  ``recorder`` (a flight
    recorder attached by the caller) adds the availability ledger to
    the report.
    """
    _require_numpy()
    sim = system.sim
    registry = system.registry
    cell_ids = registry.all_cell_ids()
    ncells = len(cell_ids)
    nservers = cfg.servers_per_cell
    if cfg.victim_cell is not None and cfg.victim_cell not in cell_ids:
        raise ValueError(f"victim_cell {cfg.victim_cell} is not a cell of "
                         f"this system (cells {cell_ids[0]}.."
                         f"{cell_ids[-1]})")

    # Death ledger: (time_ns, cell) per fail-stop, straight from the
    # injector; cells that die without a hardware record (sw panics)
    # are caught by the liveness sweep at chunk boundaries.
    deaths: Dict[int, float] = {}

    def note_injection(record) -> None:
        cell = registry.cell_of_node(record.node_id)
        deaths.setdefault(cell, float(record.time_ns))

    system.injector.observers.append(note_injection)
    if cfg.inject_ms is not None:
        victim = (cfg.victim_cell if cfg.victim_cell is not None
                  else cell_ids[-1])
        system.injector.inject_at(cfg.inject_ms * NS_PER_MS,
                                  FaultInjector.NODE_FAILURE,
                                  registry.first_node_of(victim),
                                  trigger="session-traffic")

    coupling = _CouplingDriver(system, cfg)
    platform = Platform(system) if cfg.probe_every else None
    probe_box = {"completed": 0}
    probes_launched = 0

    weights = np.asarray(cfg.mix, dtype=np.float64)
    weights = weights / weights.sum()
    coupling_weight = np.asarray(
        [_COUPLING_WEIGHT[t] for t in SESSION_TYPES])

    # Per session: its latency and a lost bit.  A session is settled as
    # soon as the clock and the death ledger decide it; only the rest
    # (index, finish, cell) are carried from one chunk to the next.
    latency = np.empty(cfg.sessions, dtype=np.float64)
    lost = np.zeros(cfg.sessions, dtype=bool)
    carried = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
               np.empty(0, dtype=np.int64))

    def settle(idx, finish, cells, now: float):
        """Set the lost bit of every session on a cell in the death
        ledger whose service ran past the death; a session finishing
        at or before ``now`` completed, because a later death is
        recorded at a later instant.  Returns the undecided rest."""
        undecided = finish > now
        for dead_cell, died_at in deaths.items():
            on = cells == dead_cell
            lost[idx[on & (finish > died_at)]] = True
            undecided &= ~on
        return idx[undecided], finish[undecided], cells[undecided]

    lost_arrivals = 0
    last_finish: Dict[Tuple[int, int], float] = {}
    server_rr: Dict[int, int] = {c: 0 for c in cell_ids}
    by_type = {name: 0 for name in SESSION_TYPES}

    wall0 = time.perf_counter()
    t_cursor = finish_max = float(sim.now)
    produced = 0
    while produced < cfg.sessions:
        count = min(cfg.chunk_sessions, cfg.sessions - produced)
        chunk = generate_chunk(cfg, produced, count, t_cursor)
        sids = chunk["sids"]
        arrivals = chunk["arrivals"]
        service = chunk["service"]
        types = chunk["types"]
        t_cursor = float(arrivals[-1])
        rows = slice(produced, produced + count)
        produced += count

        # Advance the machine through the chunk's arrival window: the
        # fault, detection, recovery and kernel clocks all run here.
        sim.run(until=int(t_cursor))
        for c in cell_ids:  # sweep for deaths with no injector record
            if c not in deaths and not registry.is_live(c):
                deaths.setdefault(c, float(sim.now))

        # Real sharing traffic proportional to the chunk's type mix.
        if coupling._cycles:
            tcounts = np.bincount(types, minlength=len(SESSION_TYPES))
            ops = float((tcounts * coupling_weight).sum()
                        * cfg.coupling_ops_per_session)
            per_cell = {c: ops / ncells for c in cell_ids}
            coupling.issue(per_cell)

        # Placement: static round-robin, with arrivals after a known
        # death failing over to the surviving cells (without failover
        # they are lost arrivals: lost bit set, never served).
        cells_arr = np.asarray(cell_ids, dtype=np.int64)[
            (sids % np.uint64(ncells)).astype(np.int64)]
        if deaths:
            live = [c for c in cell_ids if c not in deaths]
            live_arr = np.asarray(live, dtype=np.int64)
            for dead_cell, died_at in sorted(deaths.items()):
                mask = (cells_arr == dead_cell) & (arrivals >= died_at)
                if not mask.any():
                    continue
                idx = np.flatnonzero(mask)
                if cfg.failover and live:
                    cells_arr[idx] = live_arr[
                        (sids[idx] % np.uint64(len(live))).astype(np.int64)]
                elif not cfg.failover:
                    lost[rows.start + idx] = True
                    lost_arrivals += idx.size

        # Per-cell FCFS server pool: exact vectorized recurrence.
        chunk_finish = np.empty(count, dtype=np.float64)
        for c in cell_ids:
            cidx = np.flatnonzero(cells_arr == c)
            if cidx.size == 0:
                continue
            srv = (server_rr[c] + np.arange(cidx.size)) % nservers
            server_rr[c] = (server_rr[c] + cidx.size) % nservers
            for s in range(nservers):
                qidx = cidx[srv == s]
                if qidx.size == 0:
                    continue
                a = arrivals[qidx]
                sv = service[qidx]
                cs = np.cumsum(sv)
                prev = last_finish.get((c, s), 0.0)
                gap = np.maximum.accumulate(
                    np.maximum(a - (cs - sv), prev))
                q_finish = cs + gap
                chunk_finish[qidx] = q_finish
                last_finish[(c, s)] = float(q_finish[-1])

        # Sampled probe sessions run as real kernel processes on their
        # session's cell.
        if platform is not None and cfg.probe_every:
            probe_sids = np.flatnonzero(
                sids % np.uint64(cfg.probe_every) == 0)
            for i in probe_sids:
                cell = int(cells_arr[i])
                if not registry.is_live(cell):
                    continue
                platform.spawn_init(
                    cell_ids.index(cell),
                    _probe_program(int(service[i]), probe_box),
                    f"session-probe{int(sids[i])}")
                probes_launched += 1

        for t, name in enumerate(SESSION_TYPES):
            by_type[name] += int((types == t).sum())
        np.subtract(chunk_finish, arrivals, out=latency[rows])
        finish_max = max(finish_max, float(chunk_finish.max()))
        now = float(sim.now)
        carried = [np.concatenate(parts) for parts in zip(
            settle(*carried, now),
            settle(np.arange(rows.start, rows.stop), chunk_finish,
                   cells_arr, now))]

    # Drain: let queued service, probes and recovery run out.
    horizon = int(max(t_cursor, finish_max)) + 200 * NS_PER_MS
    sim.run(until=horizon)
    for c in cell_ids:
        if c not in deaths and not registry.is_live(c):
            deaths.setdefault(c, float(sim.now))
    # Against the final death ledger, whatever is still open completed
    # unless its cell died before its service finished.
    settle(*carried, np.inf)
    not_served = int(lost.sum())
    lost_count = not_served - lost_arrivals  # in flight when cell died
    completed = cfg.sessions - not_served
    wall_s = time.perf_counter() - wall0

    # Compact the lost sessions out of ``latency`` in place, chunk by
    # chunk, feeding the histogram as it goes: the completed latencies
    # end up in session order at the front, with no full-size copy.
    hist = Histogram("session_latency_ns",
                     list(SESSION_LATENCY_BOUNDS_NS))
    kept = 0
    for start in range(0, cfg.sessions, cfg.chunk_sessions):
        rows = slice(start, start + cfg.chunk_sessions)
        done = latency[rows][~lost[rows]]
        hist.record_many(done.astype(np.int64))
        latency[kept:kept + done.size] = done
        kept += done.size
    latencies = latency[:kept]
    if latencies.size:
        mean = float(latencies.mean())
        # Last: overwrite_input partially sorts ``latencies`` in place,
        # which the order-sensitive mean above must not see.
        p50, p99 = (float(p) for p in np.percentile(
            latencies, (50, 99), overwrite_input=True))
    else:
        p50 = p99 = mean = 0.0
    faults = len(deaths)

    availability = None
    if recorder is not None:
        from repro.obs import availability_report
        availability = availability_report(recorder, system)

    return SessionReport(
        sessions=cfg.sessions,
        completed=completed,
        lost=lost_count,
        lost_arrivals=lost_arrivals,
        faults=faults,
        sessions_lost_per_fault=(round(lost_count / faults, 2) if faults
                                 else 0.0),
        wall_s=round(wall_s, 4),
        sessions_per_sec=round(cfg.sessions / wall_s, 1) if wall_s else 0.0,
        sim_horizon_ms=round(horizon / NS_PER_MS, 3),
        latency_p50_ms=round(p50 / NS_PER_MS, 4),
        latency_p99_ms=round(p99 / NS_PER_MS, 4),
        latency_mean_ms=round(mean / NS_PER_MS, 4),
        latency_hist=hist.to_dict(),
        by_type=by_type,
        coupling_accesses=coupling.accesses,
        coupling_retired_cells=len(coupling.retired),
        probes_launched=probes_launched,
        probes_completed=probe_box["completed"],
        cells=ncells,
        servers_per_cell=nservers,
        seed=cfg.seed,
        config=cfg.to_dict(),
        availability=availability,
    )


# -- top-level runner ------------------------------------------------------


def boot_session_system(cells: int = 4, nodes: int = 4,
                        seed: int = 1995) -> HiveSystem:
    """Boot a machine for session traffic."""
    params = HardwareParams(num_nodes=nodes)
    sim = Simulator(crash_on_process_error=False)
    return boot_hive(sim, num_cells=cells,
                     machine_config=MachineConfig(params=params, seed=seed))


def _session_payload(system: HiveSystem,
                     cfg: SessionTrafficConfig) -> dict:
    """Attach the flight recorder, run the traffic, return the report
    dict."""
    from repro.obs import attach_flight_recorder

    recorder = attach_flight_recorder(system)
    return run_session_traffic(system, cfg, recorder=recorder).to_dict()


def run_sessions(cfg: SessionTrafficConfig, cells: int = 4,
                 nodes: int = 4) -> dict:
    """Boot a system and run the traffic scenario; returns the session
    report dict with the boot's ``boot_wall_s`` attached."""
    out, setup = run_booted(boot_session_system, (cells, nodes),
                            _session_payload, cfg, seed=cfg.seed)
    out["boot_wall_s"] = round(setup["boot_wall_s"], 4)
    return out
