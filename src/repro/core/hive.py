"""HiveSystem: boot, cell registry, and whole-system services.

``boot_hive`` partitions the machine's nodes evenly among ``num_cells``
cells (Figure 3.1), wires the failure-detection ring, the agreement
protocol, the recovery coordinator, and (optionally) Wax.  ``boot_irix``
builds the baseline: one kernel owning every node, firewall off — the
configuration the paper compares against (SGI IRIX 5.2 on the same
four-processor machine model).
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.agreement import OracleAgreement, VotingAgreement
from repro.core.cell import Cell
from repro.core.failure import StrikeBook
from repro.core.recovery import RecoveryCoordinator
from repro.core.ssi import SpanningTask
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import Machine, MachineConfig
from repro.sim.engine import Simulator
from repro.unix.kernel import (
    GlobalNamespace,
    KERNEL_RESERVED_PAGES,
    LocalKernel,
    REMAP_PAGES,
)


class CellRegistry:
    """Shared static topology plus the live-cell directory.

    The static parts (node assignment, heap address ranges) model boot-
    time configuration every cell knows; the dynamic parts (which cells
    are live) model the membership state the agreement protocol
    maintains.
    """

    def __init__(self, sim: Simulator, machine: Machine,
                 assignment: Dict[int, List[int]]):
        self.sim = sim
        self.machine = machine
        self.params = machine.params
        self.assignment = {c: list(nodes) for c, nodes in assignment.items()}
        self._node_to_cell: Dict[int, int] = {}
        for cell_id, nodes in assignment.items():
            for node in nodes:
                self._node_to_cell[node] = cell_id
        self.cells: Dict[int, Optional[Cell]] = {c: None for c in assignment}
        self._dead: Set[int] = set()
        self.coordinator: Optional[RecoveryCoordinator] = None
        self.wax = None
        self._tasks: Dict[int, SpanningTask] = {}
        self._next_task = 1
        self._rebuild_cell: Optional[Callable[[int], Cell]] = None
        self.reboots = 0
        #: re-derives the clock-monitoring ring after membership changes
        self.rewire_monitors: Callable[[], None] = lambda: None
        #: stable hook: called with every cell that registers (including
        #: cells rebooted during reintegration), so instrumentation like
        #: fault injection, tracing, and the flight recorder can wire new
        #: incarnations without monkey-patching ``register``.
        self.register_observers: List[Callable[[Cell], None]] = []

    # -- static topology ----------------------------------------------

    def all_cell_ids(self) -> List[int]:
        return sorted(self.assignment)

    def is_valid_cell(self, cell_id: int) -> bool:
        return cell_id in self.assignment

    def nodes_of(self, cell_id: int) -> List[int]:
        return self.assignment.get(cell_id, [])

    def first_node_of(self, cell_id: int) -> int:
        return self.assignment[cell_id][0]

    def cell_of_node(self, node: int) -> int:
        return self._node_to_cell[node]

    def cell_of_pid(self, pid: int) -> Optional[int]:
        cell_id = pid // 100_000
        return cell_id if cell_id in self.assignment else None

    def heap_range_of(self, cell_id: int) -> Optional[Tuple[int, int]]:
        """The kernel-data address range of a cell (static layout)."""
        nodes = self.assignment.get(cell_id)
        if not nodes:
            return None
        params = self.params
        base_frame = nodes[0] * params.pages_per_node + REMAP_PAGES + 1
        size = (KERNEL_RESERVED_PAGES - REMAP_PAGES - 1) * params.page_size
        base = base_frame * params.page_size
        return base, base + size

    # -- dynamic state -------------------------------------------------------

    def register(self, cell: Cell) -> None:
        self.cells[cell.kernel_id] = cell
        self._dead.discard(cell.kernel_id)
        for obs in list(self.register_observers):
            obs(cell)

    def cell_object(self, cell_id: int) -> Optional[Cell]:
        return self.cells.get(cell_id)

    def live_cell_ids(self) -> List[int]:
        return [c for c in self.all_cell_ids()
                if c not in self._dead and self.cells.get(c) is not None
                and self.cells[c].alive]

    def is_live(self, cell_id: int) -> bool:
        cell = self.cells.get(cell_id)
        return (cell_id not in self._dead and cell is not None
                and cell.alive)

    def confirmed_dead(self, cell_id: int) -> bool:
        """A recovery round marked the cell dead and it has not rebooted
        since."""
        return cell_id in self._dead

    def mark_dead(self, cell_id: int, reason: str) -> None:
        self._dead.add(cell_id)
        cell = self.cells.get(cell_id)
        if cell is not None:
            cell.die_confirmed(reason)
        for task in self._tasks.values():
            if cell_id in task.components.values():
                task.dead = True
        self.rewire_monitors()

    def resolve_kernel_address(self, cell_id: int, addr: int):
        cell = self.cells.get(cell_id)
        if cell is None:
            return None
        return cell.heap.resolve(addr)

    # -- spanning tasks -------------------------------------------------------

    def new_task(self) -> SpanningTask:
        task = SpanningTask(task_id=self._next_task)
        self._next_task += 1
        self._tasks[task.task_id] = task
        return task

    def task(self, task_id: int) -> Optional[SpanningTask]:
        return self._tasks.get(task_id)

    def task_component_exited(self, task_id: int, cell_id: int,
                              pid: int, status: int) -> None:
        task = self._tasks.get(task_id)
        if task is None:
            return
        task.components.pop(pid, None)
        if status != 0 and not task.dead:
            # Abnormal component exit kills the whole task.
            task.dead = True
            for other_cell in set(task.components.values()):
                cell = self.cell_object(other_cell)
                if cell is not None and cell.alive:
                    cell.kill_task_components(task_id, "sibling died")

    # -- Wax lifecycle ----------------------------------------------------------

    def kill_wax(self, reason: str) -> None:
        if self.wax is not None:
            self.wax.kill(reason)

    def restart_wax(self) -> None:
        if self.wax is not None:
            self.wax.restart()

    # -- reintegration -------------------------------------------------------------

    def set_rebuild_callback(self, fn: Callable[[int], Cell]) -> None:
        self._rebuild_cell = fn

    def reboot_cell(self, cell_id: int) -> Optional[Cell]:
        """Reboot a failed cell onto its (revived) nodes."""
        if self._rebuild_cell is None:
            return None
        for node in self.assignment[cell_id]:
            self.machine.revive_node(node)
        cell = self._rebuild_cell(cell_id)
        self.register(cell)
        self.reboots += 1
        self.rewire_monitors()
        return cell


class HiveSystem:
    """A booted Hive: cells + coordination + injection + measurement."""

    def __init__(self, sim: Simulator, machine: Machine,
                 registry: CellRegistry, namespace: GlobalNamespace,
                 injector: FaultInjector):
        self.sim = sim
        self.machine = machine
        self.registry = registry
        self.namespace = namespace
        self.injector = injector
        self.params = machine.params
        #: the attached observers, None until their ``attach_*`` sets
        #: them.  Subsystems without a cell handle (the kernel fault
        #: injector, the watchdog) read the recorder and tracer here.
        self.recorder = None
        self.provenance = None
        self.watchdog = None

    @property
    def cells(self) -> List[Cell]:
        return [self.registry.cells[c]
                for c in self.registry.all_cell_ids()
                if self.registry.cells[c] is not None]

    def cell(self, cell_id: int) -> Cell:
        cell = self.registry.cell_object(cell_id)
        if cell is None:
            raise KeyError(f"cell {cell_id} is not booted")
        return cell

    @property
    def coordinator(self) -> RecoveryCoordinator:
        return self.registry.coordinator

    # -- workload helpers -----------------------------------------------

    def spawn_init(self, cell_id: int, program: Callable,
                   name: str = "init"):
        """Create an init-style process running ``program`` on a cell."""
        cell = self.cell(cell_id)
        proc = cell.create_process(name)
        thread = cell.start_thread(proc, program)
        return proc, thread

    # -- measurement -------------------------------------------------------

    def total_counter(self, name: str) -> int:
        return sum(c.metrics.counter(name).value for c in self.cells)


def _partition_nodes(num_nodes: int, num_cells: int) -> Dict[int, List[int]]:
    if num_cells < 1:
        raise ValueError(f"a system needs at least one cell: {num_cells}")
    if num_nodes % num_cells:
        raise ValueError(
            f"{num_nodes} nodes do not divide into {num_cells} cells")
    per = num_nodes // num_cells
    return {c: list(range(c * per, (c + 1) * per)) for c in range(num_cells)}


def boot_hive(sim: Simulator, num_cells: int = 4,
              machine: Optional[Machine] = None,
              machine_config: Optional[MachineConfig] = None,
              namespace: Optional[GlobalNamespace] = None,
              agreement: str = "voting",
              reintegrate: bool = False,
              with_wax: bool = False,
              costs=None,
              per_cell_costs: Optional[Dict[int, object]] = None
              ) -> HiveSystem:
    """Boot a Hive system over a (possibly fresh) machine.

    ``agreement`` selects ``"voting"`` (the real protocol) or ``"oracle"``
    (the paper's experimental method).  ``reintegrate`` enables automatic
    reboot of failed cells after diagnostics.  ``per_cell_costs`` gives
    individual cells their own kernel cost configuration — the Section 8
    heterogeneous-resource-management mode where "different cells can
    even run different kernel code"; unlisted cells use ``costs``.
    """
    # A finished system is ~17 MiB of cyclic garbage (pfdat tables, page
    # data) that only a full collection frees.  Reclaim the previous one
    # here, where its successor is built, so that dead systems do not
    # pile up under a live one until the collector's own schedule — which
    # shifts with every change in allocation rate — gets to them.
    gc.collect()
    if machine is None:
        machine = Machine(sim, machine_config or MachineConfig())
    params = machine.params
    if namespace is None:
        namespace = GlobalNamespace(params.num_nodes)
    assignment = _partition_nodes(params.num_nodes, num_cells)
    registry = CellRegistry(sim, machine, assignment)
    strike_book = StrikeBook()
    agreement_impl = (OracleAgreement(registry) if agreement == "oracle"
                      else VotingAgreement(registry))
    registry.coordinator = RecoveryCoordinator(
        registry, agreement_impl, strike_book, reintegrate=reintegrate)

    #: platters survive cell reboots: filesystems are created once per
    #: node and re-handed to reincarnated cells.
    persistent_fs: Dict[int, Dict] = {}

    def build_cell(cell_id: int) -> Cell:
        old = registry.cells.get(cell_id)
        incarnation = (old.incarnation + 1) if old is not None else 0
        cell_costs = costs
        if per_cell_costs and cell_id in per_cell_costs:
            cell_costs = per_cell_costs[cell_id]
        cell = Cell(sim, machine, cell_id, assignment[cell_id], namespace,
                    registry, costs=cell_costs,
                    filesystems=persistent_fs.get(cell_id),
                    incarnation=incarnation)
        persistent_fs[cell_id] = cell.filesystems
        return cell

    registry.set_rebuild_callback(build_cell)
    for cell_id in sorted(assignment):
        registry.register(build_cell(cell_id))
    registry.rewire_monitors = lambda: _wire_monitor_ring(registry)
    registry.rewire_monitors()
    injector = FaultInjector(sim, machine)

    def _wire_injection(cell: Cell) -> None:
        if injector.phase_hit not in cell.phase_hooks:
            cell.phase_hooks.append(injector.phase_hit)

    for cell in registry.cells.values():
        _wire_injection(cell)
    # Reintegrated cells are new objects: wire them on registration.
    registry.register_observers.append(_wire_injection)
    system = HiveSystem(sim, machine, registry, namespace, injector)
    if with_wax:
        from repro.core.wax import Wax

        registry.wax = Wax(system)
        registry.wax.start()
    return system


def _wire_monitor_ring(registry: CellRegistry) -> None:
    """Each cell clock-monitors its successor in the live ring."""
    live = registry.live_cell_ids()
    if len(live) < 2:
        for cell_id in live:
            registry.cells[cell_id].detector.set_monitored(None)
        return
    for i, cell_id in enumerate(live):
        succ = live[(i + 1) % len(live)]
        registry.cells[cell_id].detector.set_monitored(succ)


def boot_irix(sim: Simulator,
              machine: Optional[Machine] = None,
              machine_config: Optional[MachineConfig] = None,
              namespace: Optional[GlobalNamespace] = None,
              costs=None) -> LocalKernel:
    """Boot the IRIX 5.2 baseline: one kernel, all nodes, no firewall."""
    if machine is None:
        cfg = machine_config or MachineConfig(firewall_enabled=False)
        cfg.firewall_enabled = False
        machine = Machine(sim, cfg)
    params = machine.params
    if namespace is None:
        namespace = GlobalNamespace(params.num_nodes)
    return LocalKernel(sim, machine, 0, list(range(params.num_nodes)),
                       namespace, costs=costs)
