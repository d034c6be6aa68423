"""Unit tests for hardware parameters, node model, and namespace routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hive import boot_hive
from repro.hardware.node import REMAP_REGION_PAGES, Cpu, Node
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.unix.costs import KernelCosts
from repro.unix.kernel import GlobalNamespace

from tests.helpers import run_program


class TestHardwareParams:
    def test_defaults_match_paper_machine(self):
        p = HardwareParams()
        assert p.num_nodes == 4
        assert p.memory_per_node == 32 * 1024 * 1024
        assert p.page_size == 4096
        assert p.cache_line_size == 128
        assert p.mem_latency_ns == 700
        assert p.ipi_latency_ns == 700
        assert p.sips_latency_ns() == 1000

    def test_frame_geometry(self):
        p = HardwareParams()
        assert p.pages_per_node == 8192
        assert p.node_of_frame(0) == 0
        assert p.node_of_frame(8192) == 1
        assert p.frame_of_addr(4096 * 3 + 17) == 3
        with pytest.raises(ValueError):
            p.node_of_frame(p.total_pages)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareParams(num_nodes=0).validate()
        with pytest.raises(ValueError):
            HardwareParams(memory_per_node=4097).validate()
        with pytest.raises(ValueError):
            HardwareParams(page_size=100).validate()

    @given(st.integers(min_value=0, max_value=4 * 8192 - 1))
    @settings(max_examples=50, deadline=None)
    def test_frame_node_roundtrip(self, frame):
        p = HardwareParams()
        node = p.node_of_frame(frame)
        assert frame in p.node_frame_range(node)

    def test_cycles(self):
        p = HardwareParams()
        assert p.cycles(1) == 5
        assert p.cycles(200) == 1000  # 1 us at 200 MHz


class TestNode:
    def test_remap_region_is_node_local(self):
        """Table 8.1: the remap region resolves to node-local frames on
        every node, so each cell has private trap vectors."""
        p = HardwareParams()
        frames = [list(Node(p, n).remap_frames()) for n in range(4)]
        for n, fr in enumerate(frames):
            assert len(fr) == REMAP_REGION_PAGES
            assert all(p.node_of_frame(f) == n for f in fr)
        # Pairwise disjoint: no node's vectors alias another's.
        flat = [f for fr in frames for f in fr]
        assert len(flat) == len(set(flat))

    def test_halt_and_revive(self):
        node = Node(HardwareParams(), 1)
        node.halt()
        assert node.halted and all(c.halted for c in node.cpus)
        with pytest.raises(Exception):
            node.check_running()
        node.revive()
        node.check_running()

    def test_cpu_identity(self):
        p = HardwareParams(cpus_per_node=2)
        node = Node(p, 1)
        assert [c.cpu_id for c in node.cpus] == [2, 3]


class TestGlobalNamespaceHashing:
    def test_distribution_covers_all_nodes(self):
        ns = GlobalNamespace(4)
        nodes = {ns.node_for(f"/dir{i}/file") for i in range(64)}
        assert nodes == {0, 1, 2, 3}

    def test_same_top_dir_same_node(self):
        ns = GlobalNamespace(4)
        assert ns.node_for("/var/a") == ns.node_for("/var/b/c")

    def test_path_without_a_slash_hashes_whole(self):
        # Used to raise IndexError for any slash-free path longer than
        # one character; such paths reach node_for from garbage RPCs.
        ns = GlobalNamespace(4)
        for path in ("00", "x", "", "no-slash-at-all"):
            assert 0 <= ns.node_for(path) < 4
        assert ns.node_for("00") == ns.node_for("/00")
        assert ns.node_for("/") == 0


class TestHeterogeneousCells:
    def test_per_cell_costs(self):
        """Section 8: different cells can run differently-configured
        kernels — here cell 1 runs with a 1 ms scheduler quantum while
        the rest keep the default 10 ms."""
        fast = KernelCosts(scheduler_quantum_ns=1_000_000)
        sim = Simulator()
        hive = boot_hive(sim, num_cells=4,
                         per_cell_costs={1: fast})
        assert hive.cell(1).costs.scheduler_quantum_ns == 1_000_000
        assert hive.cell(0).costs.scheduler_quantum_ns == 10_000_000
        # Both kernels interoperate: a cross-cell spawn works.
        out = {}

        def child(ctx):
            yield from ctx.compute(25_000_000)
            out["quantum"] = ctx.kernel.costs.scheduler_quantum_ns

        def parent(ctx):
            pid = yield from ctx.spawn(child, "kid", target_cell=1)
            out["status"] = yield from ctx.waitpid(pid)

        run_program(hive, 0, parent)
        assert out["status"] == 0
        assert out["quantum"] == 1_000_000
