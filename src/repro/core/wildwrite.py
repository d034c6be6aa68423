"""Wild-write defense: firewall management policy + discard bookkeeping.

Section 4.2's two-part strategy: (1) manage the FLASH firewall "to
minimize the number of pages writable by remote cells", (2) when a cell
failure is detected, "other cells preemptively discard any pages writable
by the failed cell".

The management policy implemented is the paper's: "Write access to a page
is granted to all processors of a cell as a group, when any process on
that cell faults the page into a writable portion of its address space.
Granting access to all processors of the cell allows it to freely
reschedule the process on any of its processors without sending RPCs to
remote cells.  Write permission remains granted as long as any process on
that cell has the page mapped."

This module manages the grants on frames a cell controls: its own frames
(its nodes' firewalls are locally updatable) and frames it has *borrowed*
(the firewall lives at the memory home, so changing it "must send an RPC
to the memory home", Section 5.4).  It is the one kernel module that
flips a firewall bit: for its own grants, for a borrower's on a frame
it loaned out, and in the recovery sweep.
"""

from __future__ import annotations

from typing import Generator, List, Set, Tuple

from repro.core.rpc import RpcRemoteError
from repro.unix.errors import RpcTimeout
from repro.unix.pfdat import Pfdat


class FirewallManager:
    """Per-cell firewall grant/revoke with the group-grant policy."""

    def __init__(self, cell):
        self.cell = cell
        self.sim = cell.sim
        self.costs = cell.costs
        self.grants = 0
        self.revokes = 0
        #: ``(frame, client)`` pairs between a revocation's bit flip and
        #: its record drop: the firewall is already stricter than the
        #: pfdat record, which core.invariants must not call a mismatch.
        self.revoking: Set[Tuple[int, int]] = set()

    # -- helpers -----------------------------------------------------------

    def _home_node(self, frame: int) -> int:
        return self.cell.machine.params.node_of_frame(frame)

    def _owns_node(self, node: int) -> bool:
        return node in self.cell.node_ids

    def _flip(self, frame: int, cell_id: int, grant: bool) -> None:
        """Set or clear every bit of ``cell_id`` on one of our frames."""
        node = self._home_node(frame)
        fw = self.cell.machine.memory.firewalls[node]
        flip = fw.grant_node if grant else fw.revoke_node
        for cn in self.cell.registry.nodes_of(cell_id):
            flip(frame, node, cn)

    # -- grant ---------------------------------------------------------------

    def grant_write(self, pf: Pfdat, client_cell: int) -> Generator:
        """Grant write access on ``pf.frame`` to every CPU of a cell.

        Charged as the uncached writes to the coherence controller
        (Section 7.2's model of a firewall status change).  For a
        borrowed frame the update is an RPC to the memory home.
        """
        key = (pf.frame, client_cell)
        if client_cell in pf.export_writable and key not in self.revoking:
            return None
        # A grant that meets a revocation in flight wins: the bits go
        # back on and the pending record drop is called off.
        self.revoking.discard(key)
        node = self._home_node(pf.frame)
        client_nodes = self.cell.registry.nodes_of(client_cell)
        if self._owns_node(node):
            self._flip(pf.frame, client_cell, True)
            yield self.cell.machine.params.firewall_update_ns
        else:
            # Borrowed frame: the memory home flips the bits for us.
            yield from self.cell.rpc.call(
                pf.borrowed_from, "firewall_update",
                {"frame": pf.frame, "grantee": client_cell, "grant": True})
        pf.grant_write(client_cell)
        self.grants += 1
        self.cell.firewall_metrics.counter("grants").add()
        channels = self.cell.machine.channels
        if channels is not None:
            # The flip happens at the memory home and changes what the
            # client cell may write: home node -> client, one op per
            # grant (the group-grant covers all the client's CPUs).
            channels.firewall(
                node, client_nodes[0], True,
                self.cell.machine.params.firewall_update_ns)
        obs = self.cell.obs
        if obs is not None:
            obs.event("firewall.grant", "firewall",
                      cell=self.cell.kernel_id, frame=pf.frame,
                      grantee=client_cell)
        prov = self.cell.prov
        if prov is not None:
            # A write grant to a tainted cell exposes this frame; the
            # preemptive discard must reclaim it.
            prov.write_granted(self.cell.kernel_id, client_cell, pf.frame)
        return None

    def revoke_writes(self, pfs: List[Pfdat], client_cell: int) -> Generator:
        """Revoke a cell's write access to a batch of frames in one pass.

        All the bits flip before any time passes, one wait covers the
        pending valid writebacks of the whole batch (Section 4.2), then
        the records drop — never a record before its bits, so the
        firewall is at worst stricter than the pfdats say.  A borrowed
        frame's pair is in ``revoking`` from before its RPC on, since
        the memory home flips its bits before the reply.
        """
        params = self.cell.machine.params
        client_nodes = self.cell.registry.nodes_of(client_cell)
        local, borrowed = [], []
        for pf in pfs:
            key = (pf.frame, client_cell)
            if client_cell not in pf.export_writable or key in self.revoking:
                continue  # nothing to revoke, or already being revoked
            self.revoking.add(key)
            if self._owns_node(self._home_node(pf.frame)):
                self._flip(pf.frame, client_cell, False)
                local.append(pf)
            else:
                borrowed.append(pf)
        if local:
            # One uncached write per frame, then the extra network round
            # that ensures all pending valid writebacks were delivered.
            yield (params.firewall_update_ns * len(local)
                   + params.firewall_revoke_extra_ns)
        for pf in borrowed:
            try:
                yield from self.cell.rpc.call(
                    pf.borrowed_from, "firewall_update",
                    {"frame": pf.frame, "grantee": client_cell,
                     "grant": False})
            except (RpcTimeout, RpcRemoteError):
                pass  # memory home died; its firewall died with it
        # A pair granted again during the wait has left the set: its
        # bits are back on and its record stays.
        done = [pf for pf in local + borrowed
                if (pf.frame, client_cell) in self.revoking]
        channels = self.cell.machine.channels
        obs = self.cell.obs
        for pf in done:
            self.revoking.discard((pf.frame, client_cell))
            pf.revoke_write(client_cell)
            self.revokes += 1
            self.cell.firewall_metrics.counter("revokes").add()
            if channels is not None:
                channels.firewall(
                    self._home_node(pf.frame), client_nodes[0], False,
                    params.firewall_update_ns
                    + params.firewall_revoke_extra_ns)
            if obs is not None:
                obs.event("firewall.revoke", "firewall",
                          cell=self.cell.kernel_id, frame=pf.frame,
                          grantee=client_cell)
        return None

    def update_for_borrower(self, pf: Pfdat, grantee: int,
                            grant: bool) -> None:
        """Memory-home side of a borrower's ``firewall_update`` on a
        frame we loaned it: the bits, then our record, in one instant."""
        self._flip(pf.frame, grantee, grant)
        (pf.grant_write if grant else pf.revoke_write)(grantee)

    # -- recovery ------------------------------------------------------------

    def revoke_all(self) -> Generator:
        """The recovery sweep: no other cell may write our memory.

        The bits to clear are read off our nodes' firewalls, so a frame
        whose record the preemptive discard already dropped is cleared
        too; then every record goes, extended pfdats' included (a
        borrowed frame's bits are its memory home's, cleared by that
        cell's own sweep).  Charged one firewall update and writeback
        round per regular pfdat that still had a grant record.
        """
        firewalls = self.cell.machine.memory.firewalls
        for node in self.cell.node_ids:
            frames = firewalls[node].remote_writable_frames()
            if frames:
                firewalls[node].revoke_all_remote(frames, node)
        revoked = 0
        table = self.cell.pfdats
        for pf in table.all_pfdats():
            if pf.export_writable and not pf.extended:
                revoked += 1
            pf.drop_exports()
        for pf in table.reserved.values():
            # A loan is a grant the sweep keeps: a live borrower's (the
            # discard has reclaimed every frame loaned to a dead one).
            self.update_for_borrower(pf, pf.loaned_to, True)
        if revoked:
            self.cell.firewall_metrics.counter("bulk_revokes").add(revoked)
        params = self.cell.machine.params
        yield ((params.firewall_update_ns + params.firewall_revoke_extra_ns)
               * revoked)
        return None

    # -- the Section 4.2 measurement -------------------------------------------

    def remotely_writable_pages(self) -> int:
        """How many of this cell's pages are writable by other cells.

        This is the quantity the paper sampled every 20 ms: ~15 per cell
        under pmake (max 42 on the /tmp file server), ~550 under ocean.
        O(1) via the table's export index, which counts each frame we
        loaned out through its loan grant.
        """
        return self.cell.pfdats.export_writable_count()
