"""Distributed agreement on the live cell set (Section 4.3).

"Consensus among the surviving cells is required to reboot a failed cell.
When a hint alert is broadcast, all cells temporarily suspend processes
running at user level and run a distributed agreement algorithm."

The paper notes this "is an instance of the well-studied group membership
problem, so Hive will use a standard algorithm (probably [Ricciardi &
Birman])" and that the prototype "is simulated by an oracle for the
experiments reported in this paper".  We provide both:

* :class:`VotingAgreement` — a synchronous probe-and-vote round in the
  Ricciardi/Birman group-membership style: every live cell probes each
  suspect (heartbeat read plus a ping RPC with a short timeout), votes,
  and the round commits the majority decision.  Cells that fail to vote
  within the round timeout are added to the suspect set and the round
  restarts, so cascaded failures during agreement converge.
* :class:`OracleAgreement` — consults ground truth with a fixed modelled
  latency, reproducing the paper's experimental method ("the machine
  model provides an oracle that indicates unambiguously to each cell the
  set of cells that have failed").
"""

from __future__ import annotations

from typing import Dict, Generator, Set

from repro.hardware.errors import BusError
from repro.obs.recorder import OBS_AGREEMENT
from repro.unix.errors import RpcTimeout

#: ping timeout while probing a suspect (short: an alive cell answers an
#: interrupt-level ping within tens of microseconds).
PROBE_TIMEOUT_NS = 2_000_000
#: how long the round waits for peer votes before suspecting the voter.
VOTE_TIMEOUT_NS = 5_000_000


class AgreementResult:
    """Outcome of one agreement round."""

    def __init__(self, confirmed_dead: Set[int], live: Set[int],
                 rounds: int, duration_ns: int):
        self.confirmed_dead = confirmed_dead
        self.live = live
        self.rounds = rounds
        self.duration_ns = duration_ns


class VotingAgreement:
    """Probe-and-vote group membership."""

    name = "voting"

    def __init__(self, registry):
        self.registry = registry
        self.rounds_run = 0
        #: flight recorder handle; set by attach_flight_recorder
        self.obs = None

    def run(self, initiator: int, suspects: Set[int]) -> Generator:
        """Coroutine: returns an :class:`AgreementResult`."""
        sim = self.registry.sim
        start = sim.now
        suspects = set(suspects)
        rounds = 0
        while True:
            rounds += 1
            self.rounds_run += 1
            if self.obs is not None:
                self.obs.event("agree.round", OBS_AGREEMENT,
                               cell=initiator if initiator >= 0 else None,
                               round=rounds, suspects=sorted(suspects))
            voters = [c for c in self.registry.live_cell_ids()
                      if c not in suspects]
            if not voters:
                # Everyone is suspect: nothing to agree; treat ground
                # truth via individual probes from the initiator alone.
                voters = [initiator]
            votes: Dict[int, Dict[int, bool]] = {s: {} for s in suspects}
            slow_voters: Set[int] = set()
            for voter_id in voters:
                voter = self.registry.cell_object(voter_id)
                if voter is None or not voter.alive:
                    slow_voters.add(voter_id)
                    continue
                if self.registry.machine.nodes[voter.node_ids[0]].halted:
                    # The voter's processors are halted: its vote never
                    # arrives, so the round suspects it too.
                    yield VOTE_TIMEOUT_NS
                    slow_voters.add(voter_id)
                    continue
                for suspect in suspects:
                    dead = yield from self._probe(voter, suspect)
                    votes[suspect][voter_id] = dead
                # Vote exchange: one SIPS broadcast per voter.
                yield self.registry.params.sips_latency_ns()
            if slow_voters:
                suspects |= slow_voters
                continue  # restart with the grown suspect set
            confirmed: Set[int] = set()
            for suspect, ballot in votes.items():
                yea = sum(1 for dead in ballot.values() if dead)
                if yea * 2 > len(ballot):
                    confirmed.add(suspect)
            live = set(self.registry.live_cell_ids()) - confirmed
            return AgreementResult(confirmed, live, rounds, sim.now - start)

    def _probe(self, voter, suspect: int) -> Generator:
        """One cell's liveness probe of one suspect; True means dead."""
        target = self.registry.cell_object(suspect)
        if target is None:
            return True
        # Heartbeat read (cheap, catches halted nodes via bus error).
        try:
            voter.machine.coherence.read(voter.cpu_ids[0],
                                         target.heartbeat_addr)
        except BusError:
            return True
        if not target.alive:
            # A panicked cell has engaged its memory cutoff and stopped
            # answering pings; the ping below would time out — model the
            # timeout cost then vote dead.
            yield PROBE_TIMEOUT_NS
            return True
        try:
            result = yield from voter.rpc.call(
                suspect, "ping", {}, timeout_ns=PROBE_TIMEOUT_NS)
        except RpcTimeout:
            return True
        return result != "alive"


class OracleAgreement:
    """The experimental oracle from Section 7.2."""

    name = "oracle"

    #: modelled latency of the oracle consultation.
    ORACLE_LATENCY_NS = 100_000

    def __init__(self, registry):
        self.registry = registry
        self.rounds_run = 0
        #: flight recorder handle; set by attach_flight_recorder
        self.obs = None

    def run(self, initiator: int, suspects: Set[int]) -> Generator:
        sim = self.registry.sim
        start = sim.now
        self.rounds_run += 1
        if self.obs is not None:
            self.obs.event("agree.round", OBS_AGREEMENT,
                           cell=initiator if initiator >= 0 else None,
                           round=1, suspects=sorted(suspects))
        yield self.ORACLE_LATENCY_NS
        dead: Set[int] = set()
        for cell_id in self.registry.all_cell_ids():
            cell = self.registry.cell_object(cell_id)
            if cell is None or not cell.alive:
                dead.add(cell_id)
                continue
            node0 = cell.node_ids[0]
            if cell.machine.nodes[node0].halted:
                dead.add(cell_id)
            elif cell.machine.nodes[node0].memory_failed:
                dead.add(cell_id)
        live = set(self.registry.all_cell_ids()) - dead
        return AgreementResult(dead & set(self.registry.all_cell_ids()),
                               live, 1, sim.now - start)
