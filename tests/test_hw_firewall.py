"""Unit and property tests for the FLASH firewall."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.errors import FirewallViolation
from repro.hardware.firewall import (
    NodeFirewall,
    SingleBitFirewall,
    SingleProcessorFirewall,
)
from repro.hardware.params import HardwareParams


@pytest.fixture
def params():
    return HardwareParams(num_nodes=4)


@pytest.fixture
def fw(params):
    return NodeFirewall(params, node_id=1)


FRAME = 8192  # first frame of node 1


class TestDefaults:
    def test_local_node_allowed_by_default(self, fw):
        assert fw.allows(FRAME, writer_cpu=1)

    def test_remote_node_denied_by_default(self, fw):
        assert not fw.allows(FRAME, writer_cpu=0)
        assert not fw.allows(FRAME, writer_cpu=3)

    def test_check_write_raises_bus_error(self, fw):
        with pytest.raises(FirewallViolation):
            fw.check_write(FRAME, writer_cpu=0)
        assert fw.violations == 1

    def test_foreign_frame_rejected(self, fw):
        with pytest.raises(ValueError):
            fw.vector(0)  # node 0's frame

    def test_cell_default_mask(self, params):
        fw = NodeFirewall(params, node_id=1)
        fw.set_default_mask_for_nodes([0, 1], requester_node=1)
        assert fw.allows(FRAME, writer_cpu=0)
        assert not fw.allows(FRAME, writer_cpu=2)

    def test_default_mask_requires_local_requester(self, fw):
        with pytest.raises(PermissionError):
            fw.set_default_mask_for_nodes([0, 1], requester_node=0)


class TestGrantRevoke:
    def test_grant_node(self, fw):
        fw.grant_node(FRAME, 1, grantee_node=2)
        assert fw.allows(FRAME, writer_cpu=2)
        assert not fw.allows(FRAME, writer_cpu=3)

    def test_only_local_processor_updates(self, fw):
        with pytest.raises(PermissionError):
            fw.grant_node(FRAME, 0, grantee_node=2)

    def test_revoke_restores_default(self, fw):
        fw.grant_node(FRAME, 1, 2)
        fw.revoke_node(FRAME, 1, 2)
        assert not fw.allows(FRAME, writer_cpu=2)
        assert fw.allows(FRAME, writer_cpu=1)

    def test_revoke_never_removes_owner(self, fw):
        fw.grant_node(FRAME, 1, 2)
        fw.revoke_node(FRAME, 1, 1)  # try to revoke the owner itself
        assert fw.allows(FRAME, writer_cpu=1)

    def test_revoke_all_remote(self, fw):
        fw.grant_node(FRAME, 1, 0)
        fw.grant_node(FRAME, 1, 2)
        fw.grant_node(FRAME + 1, 1, 3)
        updates = fw.updates
        fw.revoke_all_remote([FRAME, FRAME + 1], 1)
        assert fw.remote_writable_frames() == []
        assert len(fw._vectors) == 0
        assert fw.updates == updates + 2

    def test_revoke_all_remote_is_all_or_nothing(self, fw, params):
        fw.grant_node(FRAME, 1, 2)
        foreign = FRAME - params.pages_per_node  # homed on node 0
        with pytest.raises(ValueError):
            fw.revoke_all_remote([FRAME, foreign], 1)
        with pytest.raises(PermissionError):
            fw.revoke_all_remote([FRAME], 0)
        assert fw.remote_writable_frames() == [FRAME]

    def test_remote_writable_frames_tracks_grants(self, fw):
        assert fw.remote_writable_frames() == []
        fw.grant_node(FRAME, 1, 2)
        fw.grant_node(FRAME + 1, 1, 3)
        assert sorted(fw.remote_writable_frames()) == [FRAME, FRAME + 1]

    def test_vectors_stay_sparse(self, fw):
        fw.grant_node(FRAME, 1, 2)
        fw.revoke_node(FRAME, 1, 2)
        assert len(fw._vectors) == 0

    def test_reset_clears_everything(self, fw):
        fw.set_default_mask_for_nodes([0, 1], 1)
        fw.grant_node(FRAME, 1, 2)
        fw.reset()
        assert not fw.allows(FRAME, writer_cpu=0)
        assert not fw.allows(FRAME, writer_cpu=2)

    @given(grants=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from([0, 2, 3])),
        max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_grant_revoke_pairs_return_to_default(self, grants):
        """Property: any grant sequence fully revoked leaves no remote
        access — the invariant preemptive discard's accounting needs."""
        params = HardwareParams(num_nodes=4)
        fw = NodeFirewall(params, node_id=1)
        for offset, node in grants:
            fw.grant_node(FRAME + offset, 1, node)
        for offset, node in grants:
            fw.revoke_node(FRAME + offset, 1, node)
        assert fw.remote_writable_frames() == []


class TestWideMachines:
    def test_bit_sharing_above_64_cpus(self):
        params = HardwareParams(num_nodes=128, memory_per_node=1 << 20)
        fw = NodeFirewall(params, node_id=0)
        frame = 0
        # CPUs 0 and 1 share a firewall bit on a 128-CPU machine.
        assert fw.allows(frame, 0)
        assert fw.allows(frame, 1)
        assert not fw.allows(frame, 2)


class TestRejectedAlternatives:
    def test_single_bit_grants_everyone(self):
        """Section 4.2: one bit per page gives no containment once any
        remote node is granted."""
        params = HardwareParams(num_nodes=4)
        fw = SingleBitFirewall(params, node_id=1)
        fw.grant_node(FRAME, 1, 2)
        for cpu in range(4):
            assert fw.allows(FRAME, cpu)

    def test_single_processor_overwrites_previous_grant(self):
        """Section 4.2: naming one processor forbids load balancing —
        granting a second CPU revokes the first."""
        params = HardwareParams(num_nodes=4, cpus_per_node=2)
        fw = SingleProcessorFirewall(params, node_id=1)
        frame = params.pages_per_node
        fw.grant_cpu(frame, 1, grantee_cpu=4)
        assert fw.allows(frame, 4)
        fw.grant_cpu(frame, 1, grantee_cpu=5)
        assert fw.allows(frame, 5)
        assert not fw.allows(frame, 4)

    def test_single_bit_revokes_wholesale(self):
        """One bit has no per-node revocation: revoking any node takes
        the page back to local-only for every granted node."""
        params = HardwareParams(num_nodes=4)
        fw = SingleBitFirewall(params, node_id=1)
        fw.grant_node(FRAME, 1, 2)
        fw.revoke_node(FRAME, 1, 3)
        assert fw.allows(FRAME, 1)
        assert not fw.allows(FRAME, 2)

    def test_single_processor_node_grant_names_one_cpu(self):
        """A node-wide grant cannot be expressed: it names the node's
        first processor only."""
        params = HardwareParams(num_nodes=4, cpus_per_node=2)
        fw = SingleProcessorFirewall(params, node_id=1)
        frame = params.pages_per_node
        fw.grant_node(frame, 1, grantee_node=2)
        assert fw.allows(frame, 4)
        assert not fw.allows(frame, 5)
