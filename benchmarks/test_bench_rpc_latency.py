"""Section 6: RPC performance.

Paper: minimum null interrupt-level RPC 7.2 us (2 us SIPS); a typical
argument-carrying interrupt-level RPC ~9.6 us of RPC overhead (17.3 us
with copy/alloc per Table 5.2); minimum null queued RPC 34 us.  The gap
between interrupt-level and queued service is the reason Hive
restructured its data structures to serve common RPCs at interrupt level.
"""

import pytest

from repro.bench.report import ComparisonTable
from repro.workloads.micro import boot_two_cell, measure_rpc

PAPER_NULL_RPC = 7_200
PAPER_QUEUED_RPC = 34_000
PAPER_SIPS_ONE_WAY = 1_000  # IPI 700 ns + 300 ns data access


def test_rpc_latency(once):
    def run():
        system = boot_two_cell()
        interrupt = measure_rpc(system, queued=False)
        queued = measure_rpc(system, queued=True)
        sips = system.params.sips_latency_ns()
        return interrupt, queued, sips

    interrupt, queued, sips = once(run)

    table = ComparisonTable("Section 6 — intercell RPC latency")
    table.add("SIPS one-way delivery", PAPER_SIPS_ONE_WAY, sips, "ns")
    table.add("null interrupt-level RPC", PAPER_NULL_RPC / 1e3,
              interrupt["mean_ns"] / 1e3, "us")
    table.add("null queued RPC", PAPER_QUEUED_RPC / 1e3,
              queued["mean_ns"] / 1e3, "us")
    table.add("queued / interrupt ratio",
              round(PAPER_QUEUED_RPC / PAPER_NULL_RPC, 1),
              round(queued["mean_ns"] / interrupt["mean_ns"], 1), "x")
    table.print()

    assert abs(interrupt["mean_ns"] - PAPER_NULL_RPC) < 300
    assert abs(queued["mean_ns"] - PAPER_QUEUED_RPC) < 2_000
    # The structural claim: queued service costs several times the
    # interrupt-level path, which is why the fast path matters.
    assert queued["mean_ns"] / interrupt["mean_ns"] > 3.0


def test_rpc_latency_identical_with_fast_path_off(once):
    """The coalesced dispatch measures, to the nanosecond, what the
    step-by-step dispatch (``HIVE_RPC_FAST=0``, deleted in PR 18) last
    measured at c371ead."""

    def run():
        system = boot_two_cell()
        return (measure_rpc(system, queued=False),
                measure_rpc(system, queued=True))

    interrupt, queued = once(run)
    assert interrupt == {"mean_ns": 7_200.0, "min_ns": 7_200,
                         "max_ns": 7_200, "count": 256}
    assert queued == {"mean_ns": 34_000.0, "min_ns": 34_000,
                      "max_ns": 34_000, "count": 256}


def test_interrupt_vs_queued_service_mix_ablation(once):
    """Ablation: a Hive that served page-fault exports only through the
    queued path would inflate every remote fault by the queue overhead —
    quantifies why the paper restructured locking for interrupt-level
    service (Section 6)."""
    from repro.workloads.micro import measure_page_fault

    def run():
        fast = measure_page_fault(boot_two_cell(), remote=True,
                                  nfaults=128)["mean_ns"]
        system = boot_two_cell()
        # Re-register the export handler as queued-only.
        for cell in system.cells:
            handler, _cls = cell.rpc._handlers["export_page"]
            cell.rpc.register("export_page", handler, "queued")
        slow = measure_page_fault(system, remote=True,
                                  nfaults=128)["mean_ns"]
        return fast, slow

    fast, slow = once(run)
    table = ComparisonTable(
        "Ablation — remote fault with interrupt-level vs queued export")
    table.add("interrupt-level service", 50.7, fast / 1e3, "us")
    table.add("queued-only service", None, slow / 1e3, "us")
    table.print()
    assert slow > fast + 20_000  # queue overhead dominates the fast path
