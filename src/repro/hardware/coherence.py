"""Directory-based cache coherence with firewall permission checks.

Each node's coherence controller (MAGIC, in FLASH) keeps directory state
for the memory homed on the node and checks the firewall "on each request
for cache line ownership (read misses do not count as ownership requests)
and on most cache line writebacks" (Section 4.2).

The model tracks per-line sharing state sparsely, only for lines the
simulation actually touches, using a simplified MESI protocol:

* a line is either *unowned* (memory holds the only copy), *shared* by a
  set of CPUs, or *owned exclusively* (dirty) by one CPU;
* a read by a CPU that already caches the line is a cache hit (one cycle);
  any other read is a miss costing the 700 ns FLASH average (fetching from
  a dirty remote owner also downgrades the owner to shared and charges the
  firewall check the owner's writeback passes);
* a write by the exclusive owner is a hit; any other write is an ownership
  request: the firewall is checked at the line's home, sharers are
  invalidated, and the full miss latency is charged — plus the firewall
  check latency when the check is enabled.

Capacity and conflict evictions are not modelled at line granularity;
workload-level cache behaviour enters through per-workload miss-rate
parameters (:mod:`repro.workloads`).  Line-level state exists to make the
microbenchmarks honest: the careful-reference clock read really does miss
every tick because the remote cell really did write the line.

On a node failure the directory tells us exactly which lines' only
up-to-date copy was cached on the failed node — the set the memory fault
model says may be lost.  The fault model also guarantees this set only
contains lines the failed node was *authorized to write* (firewall), which
a property test asserts.

There is one directory, the sparse ``_lines`` dict, so host memory grows
with the lines the simulation touches, not with the machine's memory.
It is doubly indexed for the failure paths: per-node sets of owned and
shared lines make ``frames_with_dirty_lines_owned_by_node`` and
``drop_node_cache_state`` O(lines the node actually touched) instead of
O(every line in the directory).  Entries whose state empties out (no
owner, no sharers) are pruned so the directory never grows monotonically
across reintegration rounds.

Prepared access path
--------------------
:meth:`CoherenceController.prepare_batch` validates an access pattern
(global line indices and read/write ops, all from one CPU) once, and
:meth:`access_prepared` issues it.  An issue is a sequential loop with
the scalar hit checks inlined: hits resolve in the loop, and everything
else goes through :meth:`read`/:meth:`write`, so stats, latencies and
the position of a raise are those of the per-line loop.  A batch that
resolved entirely as cache hits is memoized.  Whether the memo still
holds is asked of the directory, as FLASH's controller answers every
request: no home node in a fault state, every write line still owned by
the CPU, every read line still cached by it.  Then the batch would hit
again with the same latency and counts, so it replays as one stats
bump.  One method (:meth:`_memo_holds`) states that rule, and the
replay and the parked chains' probe (:meth:`peek_memo`) both ask it.
The chains cache the probe's answers; :meth:`watch` stamps the lines a
chain issues, so that only a directory change of one of them (or a bulk
scrub) tells the chain to ask again.
Either way the latencies charged are those of the scalar path, so event
counts, recovery records, and span exports do not depend on the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import PhysicalMemory
from repro.hardware.params import HardwareParams
from repro.sim.stats import Histogram


class LineState:
    """Directory entry for one 128-byte line."""

    __slots__ = ("owner", "sharers")

    def __init__(self, owner: Optional[int] = None,
                 sharers: Optional[Set[int]] = None):
        self.owner = owner               # CPU holding the line dirty
        self.sharers: Set[int] = sharers if sharers is not None else set()


class LineStamp:
    """A mutation counter shared by the lines of one watch."""

    __slots__ = ("gen",)

    def __init__(self):
        self.gen = 0


class PreparedBatch:
    """A validated (lines, ops) access pattern for repeated issue.

    Holds the batch in list form (no per-issue conversion cost) plus the
    set of home nodes its lines live on, and — when the last issue
    resolved entirely as cache hits — a memo of that outcome.  An all-hit
    batch has no side effects beyond hit counters, so the memo replays
    whenever the directory still says every line would hit.
    """

    __slots__ = ("lines", "ops", "home_nodes", "memo")

    def __init__(self, lines: List[int], ops: List[int],
                 home_nodes: Tuple[int, ...]):
        self.lines = lines
        self.ops = ops
        self.home_nodes = home_nodes
        #: (cpu, latency, read_hits, write_hits, n)
        self.memo: Optional[tuple] = None


@dataclass(slots=True)
class CoherenceStats:
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    remote_write_misses: int = 0
    remote_write_miss_ns_total: int = 0
    invalidations: int = 0
    firewall_checks: int = 0

    @property
    def avg_remote_write_miss_ns(self) -> float:
        if not self.remote_write_misses:
            return 0.0
        return self.remote_write_miss_ns_total / self.remote_write_misses


class CoherenceController:
    """The machine-wide coherence fabric (one logical controller).

    Physically each node has its own controller; because directory state
    is keyed by line and firewalls are per-node objects, one fabric object
    with per-home-node routing is behaviourally identical and simpler.
    """

    __slots__ = (
        "memory", "interconnect", "_lines", "_owner_lines",
        "_sharer_lines", "_page_size", "_total_pages", "_total_bytes",
        "_bytes_per_node", "_line_size", "_lines_per_page",
        "_pages_per_node", "_cpus_per_node", "_hit_latency",
        "_firewall_check_ns", "_mem_latency_ns", "stats",
        "remote_write_hist", "_watch", "all_lines_gen",
        "_lines_per_node", "_total_lines",
        "last_batch_completed", "tier_memo_hits", "tier_inline_batches",
        "channels",
    )

    def __init__(self, params: HardwareParams, memory: PhysicalMemory,
                 interconnect: Interconnect):
        self.memory = memory
        self.interconnect = interconnect
        self._lines: Dict[int, LineState] = {}
        # Per-node failure-path indexes: which lines a node's CPUs own
        # dirty / share.  Maintained on every ownership change so the
        # node-halt scans are O(touched lines), not O(directory).
        self._owner_lines: list = [set() for _ in range(params.num_nodes)]
        self._sharer_lines: list = [set() for _ in range(params.num_nodes)]
        # Hot-path scalars (the dataclass properties recompute per call).
        self._page_size = params.page_size
        self._total_pages = params.total_pages
        self._total_bytes = params.total_pages * params.page_size
        self._bytes_per_node = params.pages_per_node * params.page_size
        self._line_size = params.cache_line_size
        self._lines_per_page = params.page_size // params.cache_line_size
        self._pages_per_node = params.pages_per_node
        self._cpus_per_node = params.cpus_per_node
        self._hit_latency = params.cycles(1)
        self._firewall_check_ns = params.firewall_check_ns
        self._mem_latency_ns = params.mem_latency_ns
        self.stats = CoherenceStats()
        #: latency distribution of remote ownership requests (the traffic
        #: the firewall check sits on); buckets span the sub-us regime.
        self.remote_write_hist = Histogram(
            "remote_write_miss_ns",
            [200, 500, 700, 1_000, 1_500, 2_000, 5_000, 10_000])
        #: the line watch (:meth:`watch`): a watched line maps to the
        #: stamp of the one chain that issues it, and every directory
        #: mutation of the line bumps that stamp.
        self._watch: Dict[int, LineStamp] = {}
        #: bumped by the bulk directory changes (a node's cache state
        #: dropped, frames invalidated), which may touch any line.
        self.all_lines_gen = 0
        self._lines_per_node = self._bytes_per_node // self._line_size
        self._total_lines = self._total_bytes // self._line_size
        #: accesses completed by the most recent batch issue before it
        #: returned or raised (drivers use it to account partial batches).
        self.last_batch_completed = 0
        #: batch-tier attribution: which tier (memo replay / inlined
        #: sequential loop) resolved each batch.  One increment per
        #: batch, so always-on costs ~1/batch-length per access.
        self.tier_memo_hits = 0
        self.tier_inline_batches = 0
        #: optional intercell channel recorder (``sim/channels.py``).  A
        #: plain None slot like the provenance tracer: the hardware
        #: layer publishes cross-cell misses through it when attached
        #: and pays one attribute test per *miss* otherwise — hit paths
        #: never look at it (a hit never crosses a cell boundary).
        self.channels = None

    # -- the access protocol --------------------------------------------

    def read(self, cpu: int, addr: int) -> int:
        """Read one line; returns the access latency in ns.

        Raises :class:`BusError` if the home node has failed or is cut off
        (delegated to the memory fault model).
        """
        # Touch the fault model: a read of failed memory bus-errors.
        # Healthy machine + in-range address cannot raise, so the call
        # (and the frame division) is skipped entirely on the fast path.
        # During a fault window most accesses still go to healthy homes;
        # probing the per-node state table inline keeps those off the
        # slow path too.
        mem = self.memory
        if mem._any_faults or addr >= self._total_bytes or addr < 0:
            if (addr >= self._total_bytes or addr < 0 or
                    mem._node_state[addr // self._bytes_per_node]):
                mem._check_readable(addr // self._page_size, cpu)
        line = addr // self._line_size
        stats = self.stats
        lines = self._lines
        try:
            st = lines[line]
        except KeyError:
            st = LineState()
            lines[line] = st
        else:
            if cpu == st.owner or cpu in st.sharers:
                stats.read_hits += 1
                return self._hit_latency
        stats.read_misses += 1
        src_node = cpu // self._cpus_per_node
        ic = self.interconnect
        if ic.hop_sensitive:
            latency = ic.miss_latency_ns(src_node, addr // self._bytes_per_node)
        else:
            latency = self._mem_latency_ns
        # A miss always mutates the directory entry (the CPU becomes a
        # sharer), so a watched line's stamp advances.
        watch = self._watch
        if line in watch:
            watch[line].gen += 1
        owner = st.owner
        if owner is not None and owner != cpu:
            # Dirty remote intervention: owner is downgraded to shared.
            # A writeback from the owner's cache passes a firewall check
            # ("and on most cache line writebacks", Section 4.2).
            if mem.firewall_enabled:
                stats.firewall_checks += 1
                latency += self._firewall_check_ns
            owner_node = owner // self._cpus_per_node
            self._owner_lines[owner_node].discard(line)
            st.sharers.add(owner)
            self._sharer_lines[owner_node].add(line)
            st.owner = None
        st.sharers.add(cpu)
        self._sharer_lines[src_node].add(line)
        channels = self.channels
        if channels is not None:
            home_node = addr // self._bytes_per_node
            if home_node != src_node:
                channels.coherence_miss(src_node, home_node, False, latency)
        return latency

    def write(self, cpu: int, addr: int) -> int:
        """Gain ownership of one line; returns the access latency in ns.

        Performs the firewall permission check that FLASH does on each
        ownership request; a rejected write raises
        :class:`~repro.hardware.errors.FirewallViolation`.
        """
        frame = addr // self._page_size
        line = addr // self._line_size
        stats = self.stats
        lines = self._lines
        try:
            st = lines[line]
        except KeyError:
            st = None
        else:
            if st.owner == cpu:
                stats.write_hits += 1
                return self._hit_latency
        # Ownership request: fault-model checks (failure + firewall).
        # When neither the home nor the writer's node is in a fault
        # state, only the firewall can reject, so call it directly
        # instead of going through the memory wrapper.
        mem = self.memory
        home_node = frame // self._pages_per_node
        src_node = cpu // self._cpus_per_node
        if mem._any_faults or frame >= self._total_pages or frame < 0:
            if (frame >= self._total_pages or frame < 0 or
                    mem._node_state[home_node] or mem._node_state[src_node]):
                mem._check_writable(frame, cpu)
            elif mem.firewall_enabled:
                mem.firewalls[home_node].check_write(frame, cpu)
        elif mem.firewall_enabled:
            mem.firewalls[home_node].check_write(frame, cpu)
        stats.write_misses += 1
        ic = self.interconnect
        if ic.hop_sensitive:
            latency = ic.miss_latency_ns(src_node, home_node)
        else:
            latency = self._mem_latency_ns
        if mem.firewall_enabled:
            stats.firewall_checks += 1
            latency += self._firewall_check_ns
        if src_node != home_node:
            stats.remote_write_misses += 1
            stats.remote_write_miss_ns_total += latency
            self.remote_write_hist.record(latency)
            channels = self.channels
            if channels is not None:
                channels.coherence_miss(src_node, home_node, True, latency)
        cpus_per_node = self._cpus_per_node
        # Ownership changes hands: advance a watched line's stamp.
        watch = self._watch
        if line in watch:
            watch[line].gen += 1
        if st is None:
            # Only a granted request creates the entry: a refused one
            # must not leave an empty entry behind.
            st = lines[line] = LineState()
        old_owner = st.owner
        sharers = st.sharers
        invalidated = len(sharers) - (1 if cpu in sharers else 0)
        if old_owner is not None and old_owner != cpu and \
                old_owner not in sharers:
            invalidated += 1
        stats.invalidations += invalidated
        if sharers:
            sharer_index = self._sharer_lines
            for sharer in sharers:
                sharer_index[sharer // cpus_per_node].discard(line)
            sharers.clear()
        if old_owner is not None:
            self._owner_lines[old_owner // cpus_per_node].discard(line)
        st.owner = cpu
        self._owner_lines[src_node].add(line)
        return latency

    # -- the prepared access path --------------------------------------

    def watch(self, lines: Iterable[int]) -> "LineStamp":
        """Watch ``lines``; returns the stamp their mutations bump.

        No directory entry of a watched line changes while its stamp's
        ``gen`` and :attr:`all_lines_gen` both stand still: a read miss
        and an ownership change bump the line's stamp, and the bulk
        paths bump ``all_lines_gen``.

        A line holds one stamp: watching it again hands it to the new
        stamp.  The parked chains rely on that only where it is sound:
        two chains that issue one line share its home node, so both are
        ``shares_home`` and never read their peek caches
        (``ChainCoordinator.register_chain``).
        """
        stamp = LineStamp()
        for line in lines:
            self._watch[line] = stamp
        return stamp

    def tier_snapshot(self) -> Dict[str, int]:
        """Batch-tier attribution counters (see obs/profile.py)."""
        return {
            "memo_hits": self.tier_memo_hits,
            "inline_batches": self.tier_inline_batches,
        }

    def prepare_batch(self, lines: Sequence[int],
                      ops: Sequence[int]) -> PreparedBatch:
        """Validate an access pattern once for repeated issue.

        ``lines`` are global cache-line indices (``addr // line_size``)
        and ``ops`` are 0 for read / nonzero for write, one per line.
        """
        line_list = [int(x) for x in lines]
        op_list = [1 if o else 0 for o in ops]
        if len(line_list) != len(op_list):
            raise ValueError("lines and ops must have the same length")
        total = self._total_lines
        for line in line_list:
            if not 0 <= line < total:
                raise ValueError(f"line {line} out of range")
        per_node = self._lines_per_node
        homes = tuple(sorted({line // per_node for line in line_list}))
        return PreparedBatch(line_list, op_list, homes)

    def _memo_holds(self, cpu: int, prepared: PreparedBatch) -> bool:
        """The one memo rule: would ``prepared``'s memo replay for
        ``cpu`` right now?

        Asked of the directory, line by line: no home node is in a fault
        state (a failure or cutoff forces re-execution), every write
        line is still owned by ``cpu``, and every read line is still
        cached by it.  Then the batch resolves all-hits again, with the
        memo's latency and hit counts.
        """
        memo = prepared.memo
        if memo is None or memo[0] != cpu:
            return False
        mem = self.memory
        if mem._any_faults:
            state = mem._node_state
            for node in prepared.home_nodes:
                if state[node]:
                    return False
        directory = self._lines
        try:
            for line, op in zip(prepared.lines, prepared.ops):
                st = directory[line]
                # A write needs ownership; a read, ownership or a share.
                if st.owner != cpu and (op or cpu not in st.sharers):
                    return False
        except KeyError:  # the entry was pruned: no copy left anywhere
            return False
        return True

    def access_prepared(self, cpu: int, prepared: PreparedBatch) -> int:
        """Issue a prepared batch; returns the summed access latency.

        Identical to issuing each access through :meth:`read`/
        :meth:`write` in order (same stats, same latency, same exception
        at the same position — ``last_batch_completed`` reports progress
        when one raises).  When the batch last resolved entirely as
        cache hits and :meth:`_memo_holds`, the memoized outcome replays
        without touching the lines again.  The memo is only recorded
        while every home node the batch touches is in fault state 0.
        """
        stats = self.stats
        if self._memo_holds(cpu, prepared):
            memo = prepared.memo
            self.tier_memo_hits += 1
            stats.read_hits += memo[2]
            stats.write_hits += memo[3]
            self.last_batch_completed = memo[4]
            return memo[1]
        # The scalar hit checks, inlined.  A write hit is valid
        # unconditionally (:meth:`write` checks ownership before the
        # fault model); a read hit is valid whenever the line's home
        # node is in fault state 0 (:meth:`read` consults the fault
        # model first only for non-zero homes).  Everything else goes
        # through the scalar methods.
        self.tier_inline_batches += 1
        get = self._lines.get
        hit_ns = self._hit_latency
        read_f = self.read
        write_f = self.write
        line_size = self._line_size
        faulty = self.memory._any_faults
        node_state = self.memory._node_state
        lines_per_node = self._lines_per_node
        n_rh = 0
        n_wh = 0
        latency = 0
        all_hits = True
        done = 0
        try:
            for line, op in zip(prepared.lines, prepared.ops):
                st = get(line)
                if st is not None:
                    if op:
                        if st.owner == cpu:
                            n_wh += 1
                            latency += hit_ns
                            done += 1
                            continue
                    elif (cpu == st.owner or cpu in st.sharers) and not (
                            faulty and node_state[line // lines_per_node]):
                        n_rh += 1
                        latency += hit_ns
                        done += 1
                        continue
                all_hits = False
                addr = line * line_size
                latency += write_f(cpu, addr) if op else read_f(cpu, addr)
                done += 1
        finally:
            # Hits observed before an exception really happened; flush
            # them so counters match the scalar loop at the raise point.
            stats.read_hits += n_rh
            stats.write_hits += n_wh
            self.last_batch_completed = done
        if all_hits and not (faulty and any(
                node_state[n] for n in prepared.home_nodes)):
            prepared.memo = (cpu, latency, n_rh, n_wh, done)
        else:
            prepared.memo = None
        return latency

    def peek_memo(self, cpu: int, prepared: PreparedBatch) -> Optional[tuple]:
        """Would :meth:`access_prepared` replay from the memo right now?

        Returns the memo's ``(latency, read_hits, write_hits, done)``
        when :meth:`_memo_holds`, else None.  No state is touched — this
        is the parked chains' validity probe: a chain of wakeups may
        only be replayed arithmetically (:meth:`commit_memo_replays`)
        while every batch in the chain passes it, and nothing can change
        its answer between engine events (every directory or fault-state
        mutation happens inside one).
        """
        if self._memo_holds(cpu, prepared):
            return prepared.memo[1:]
        return None

    def commit_memo_replays(self, replays: int, read_hits: int,
                            write_hits: int, last_done: int) -> None:
        """Commit ``replays`` memo replays at once.

        Byte-equivalent to that many :meth:`access_prepared` calls while
        :meth:`peek_memo` holds, given their summed memoized hit counts
        and the last replayed batch's ``done``: the same stats cells
        move by the same amounts (one memo-tier hit per replay) and
        ``last_batch_completed`` lands where the last replay leaves it,
        in one update per park instead of one per wakeup.
        """
        self.tier_memo_hits += replays
        stats = self.stats
        stats.read_hits += read_hits
        stats.write_hits += write_hits
        self.last_batch_completed = last_done

    # -- failure interaction -----------------------------------------------

    def frames_with_dirty_lines_owned_by_node(self, node: int) -> Set[int]:
        """Frames whose only up-to-date copy sits in ``node``'s caches.

        These are the lines the memory fault model declares lost when the
        node fails.  By construction (the firewall is checked on every
        ownership request) every such frame was writable by the node.
        O(lines the node owns) via the per-node owner index.
        """
        owned = self._owner_lines[node]
        if not owned:
            return set()
        lines_per_page = self._lines_per_page
        return {line // lines_per_page for line in owned}

    def drop_node_cache_state(self, node: int) -> None:
        """Forget all cache state of a failed/rebooted node's CPUs.

        Entries left with no owner and no sharers are removed entirely,
        so repeated failure/reintegration rounds cannot grow ``_lines``.
        """
        lo = node * self._cpus_per_node
        hi = lo + self._cpus_per_node
        # Failure/reintegration touches lines homed anywhere: one
        # all-lines bump (rare event, coarse is fine).
        self.all_lines_gen += 1
        lines = self._lines
        owned, self._owner_lines[node] = self._owner_lines[node], set()
        for line in owned:
            st = lines.get(line)
            if st is None:
                continue
            st.owner = None
            if not st.sharers:
                del lines[line]
        shared, self._sharer_lines[node] = self._sharer_lines[node], set()
        for line in shared:
            st = lines.get(line)
            if st is None:
                continue
            st.sharers = {c for c in st.sharers if not lo <= c < hi}
            if st.owner is None and not st.sharers:
                del lines[line]

    def invalidate_frames(self, frames: Iterable[int]) -> None:
        """Invalidate every cached line of the given frames (discard).

        One pass over the discard set with the per-line bookkeeping
        hoisted; invalidated entries are pruned from the directory.
        """
        lines_per_page = self._lines_per_page
        cpus_per_node = self._cpus_per_node
        lines = self._lines
        stats = self.stats
        owner_index = self._owner_lines
        sharer_index = self._sharer_lines
        self.all_lines_gen += 1
        for frame in frames:
            first = frame * lines_per_page
            for line in range(first, first + lines_per_page):
                st = lines.get(line)
                if st is None:
                    continue
                stats.invalidations += len(st.sharers)
                if st.owner is not None:
                    owner_index[st.owner // cpus_per_node].discard(line)
                for sharer in st.sharers:
                    sharer_index[sharer // cpus_per_node].discard(line)
                del lines[line]

    # -- introspection -----------------------------------------------------

    def directory_size(self) -> int:
        """Number of live directory entries (soak tests watch this)."""
        return len(self._lines)
