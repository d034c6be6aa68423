"""Unit and property tests for physical memory and the fault model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.errors import BusError, FirewallViolation, InvalidPhysicalAddress
from repro.hardware.memory import PhysicalMemory
from repro.hardware.params import HardwareParams


@pytest.fixture
def params():
    return HardwareParams(num_nodes=4)


@pytest.fixture
def mem(params):
    return PhysicalMemory(params)


class TestDataAccess:
    def test_untouched_pages_read_zero(self, mem, params):
        assert mem.read_page(0) == b"\x00" * params.page_size

    def test_write_read_roundtrip(self, mem, params):
        data = bytes(range(256)) * (params.page_size // 256)
        mem.write_page(5, data, cpu=0)
        assert mem.read_page(5) == data

    def test_subpage_write(self, mem):
        mem.write_bytes(5, 100, b"hello", cpu=0)
        assert mem.read_bytes(5, 100, 5) == b"hello"
        assert mem.read_bytes(5, 99, 1) == b"\x00"

    def test_zero_page_frees_storage(self, mem):
        mem.write_bytes(5, 0, b"x", cpu=0)
        mem.zero_page(5, cpu=0)
        assert 5 not in mem._pages

    def test_wrong_size_page_write(self, mem):
        with pytest.raises(ValueError):
            mem.write_page(0, b"short", cpu=0)

    def test_out_of_range_frame(self, mem, params):
        with pytest.raises(InvalidPhysicalAddress):
            mem.read_page(params.total_pages)

    def test_subpage_bounds(self, mem, params):
        with pytest.raises(ValueError):
            mem.write_bytes(0, params.page_size - 2, b"xyz", cpu=0)

    @given(offset=st.integers(0, 4000), data=st.binary(min_size=1, max_size=96))
    @settings(max_examples=50, deadline=None)
    def test_subpage_roundtrip_property(self, offset, data):
        params = HardwareParams(num_nodes=2)
        mem = PhysicalMemory(params)
        mem.write_bytes(3, offset, data, cpu=0)
        assert mem.read_bytes(3, offset, len(data)) == data


class TestFirewallIntegration:
    def test_remote_write_rejected(self, mem, params):
        frame = params.pages_per_node  # node 1's first frame
        with pytest.raises(FirewallViolation):
            mem.write_page(frame, b"\x00" * params.page_size, cpu=0)

    def test_harness_writes_bypass_permissions(self, mem, params):
        frame = params.pages_per_node
        mem.write_bytes(frame, 0, b"ok", cpu=None)  # no exception

    def test_firewall_disabled_mode(self, params):
        mem = PhysicalMemory(params, firewall_enabled=False)
        frame = params.pages_per_node
        mem.write_bytes(frame, 0, b"ok", cpu=0)  # SMP OS mode: no check

    def test_write_allowed_probe(self, mem, params):
        frame = params.pages_per_node
        assert not mem.write_allowed(frame, 0)
        mem.firewalls[1].grant_node(frame, 1, 0)
        assert mem.write_allowed(frame, 0)

    def test_frames_writable_by_node(self, mem, params):
        frame = params.pages_per_node
        mem.firewalls[1].grant_node(frame, 1, 0)
        assert mem.frames_writable_by_node(0) == [frame]
        assert mem.frames_writable_by_node(2) == []


class TestFaultModel:
    def test_failed_node_read_bus_errors(self, mem, params):
        mem.fail_node(1)
        with pytest.raises(BusError):
            mem.read_page(params.pages_per_node)

    def test_failed_node_write_bus_errors(self, mem, params):
        mem.fail_node(1)
        with pytest.raises(BusError):
            mem.write_bytes(params.pages_per_node, 0, b"x", cpu=1)

    def test_unaffected_ranges_keep_working(self, mem, params):
        """Fault model: accesses to unaffected memory must continue."""
        mem.fail_node(1)
        mem.write_bytes(0, 0, b"ok", cpu=0)
        assert mem.read_bytes(0, 0, 2) == b"ok"

    def test_writes_by_failed_node_cpu_rejected(self, mem):
        mem.fail_node(0)
        with pytest.raises(BusError):
            mem.write_bytes(0, 0, b"x", cpu=0)

    def test_cutoff_blocks_remote_readers_only(self, mem, params):
        """The panic-path memory cutoff (Table 8.1): remote reads bounce,
        local ones still work."""
        mem.engage_cutoff(1)
        frame = params.pages_per_node
        mem.read_page(frame, cpu=1)  # local: fine
        with pytest.raises(BusError):
            mem.read_page(frame, cpu=0)

    def test_revive_clears_contents_and_firewall(self, mem, params):
        frame = params.pages_per_node
        mem.firewalls[1].grant_node(frame, 1, 0)
        mem.write_bytes(frame, 0, b"secret", cpu=0)
        mem.fail_node(1)
        mem.revive_node(1)
        assert mem.read_page(frame) == b"\x00" * params.page_size
        assert not mem.write_allowed(frame, 0)

    def test_revive_keeps_other_nodes_pages(self, mem, params):
        for frame in (0, params.pages_per_node, 2 * params.pages_per_node):
            mem.write_bytes(frame, 0, b"page", cpu=None)
        mem.fail_node(1)
        mem.revive_node(1)
        assert mem.read_bytes(0, 0, 4) == b"page"
        assert mem.read_bytes(params.pages_per_node, 0, 4) == b"\x00" * 4
        assert mem.read_bytes(2 * params.pages_per_node, 0, 4) == b"page"

    def test_failure_outranks_cutoff_until_revive(self, mem, params):
        """One fault record per node: a cut-off node that then fails
        reads as failed even to its own CPUs; a revive clears both."""
        frame = params.pages_per_node
        mem.engage_cutoff(1)
        mem.fail_node(1)
        mem.engage_cutoff(1)
        assert mem.node_failed(1)
        with pytest.raises(BusError):
            mem.read_page(frame, cpu=1)
        mem.revive_node(1)
        assert not mem.node_failed(1) and not mem._any_faults
        mem.read_page(frame, cpu=0)
