"""Table 5.2: components of the remote page-fault latency.

Paper: local fault 6.9 us; remote fault 50.7 us averaged across 1,024
faults that hit in the data home page cache, broken into client cell
(28.0), data home (5.4), and RPC (17.3) components.
"""

import pytest

from repro.bench.report import ComparisonTable
from repro.unix.costs import DEFAULT_COSTS
from repro.workloads.micro import boot_two_cell, measure_page_fault

PAPER_TOTAL_LOCAL = 6_900
PAPER_TOTAL_REMOTE = 50_700
PAPER_COMPONENTS = {
    "client: file system": 9_000,
    "client: locking overhead": 5_500,
    "client: misc VM (incl. hash)": 8_700,
    "client: import page": 4_800,
    "data home: misc VM": 3_400,
    "data home: export page": 2_000,
    "rpc: stubs and subsystem": 4_900,
    "rpc: hw message and interrupts": 4_700,
    "rpc: arg/result copy": 4_000,
    "rpc: alloc/free": 3_700,
}


def test_table_5_2(once):
    def run():
        local = measure_page_fault(boot_two_cell(), remote=False,
                                   nfaults=1024)
        remote = measure_page_fault(boot_two_cell(), remote=True,
                                    nfaults=1024)
        return local, remote

    local, remote = once(run)

    costs = DEFAULT_COSTS
    params_sips = 2 * (700 + 300)
    modelled = {
        "client: file system": costs.fault_client_fs_ns,
        "client: locking overhead": costs.fault_client_locking_ns,
        "client: misc VM (incl. hash)": (costs.fault_client_misc_vm_ns
                                         + costs.pfdat_hash_lookup_ns),
        "client: import page": costs.fault_client_import_ns,
        "data home: misc VM": costs.fault_home_misc_vm_ns,
        "data home: export page": costs.fault_home_export_ns,
        "rpc: stubs and subsystem": costs.rpc_stub_ns,
        "rpc: hw message and interrupts": (
            params_sips + 2 * costs.rpc_interrupt_dispatch_ns),
        "rpc: arg/result copy": costs.rpc_copy_ns,
        "rpc: alloc/free": costs.rpc_alloc_ns,
    }

    table = ComparisonTable("Table 5.2 — remote page fault latency")
    table.add("total local page fault", PAPER_TOTAL_LOCAL / 1e3,
              local["mean_ns"] / 1e3, "us")
    table.add("total remote page fault", PAPER_TOTAL_REMOTE / 1e3,
              remote["mean_ns"] / 1e3, "us")
    for row, paper_ns in PAPER_COMPONENTS.items():
        table.add(row, paper_ns / 1e3, modelled[row] / 1e3, "us")
    table.print()

    assert abs(local["mean_ns"] - PAPER_TOTAL_LOCAL) < 200
    assert abs(remote["mean_ns"] - PAPER_TOTAL_REMOTE) < 1_000
    # The component model must actually add up to the measured total.
    assert abs(sum(modelled.values()) - remote["mean_ns"]) < 1_500
    # Remote/local ratio ~7.4x (the headline of the table).
    ratio = remote["mean_ns"] / local["mean_ns"]
    assert 6.5 < ratio < 8.0


def test_remote_fault_identical_with_fast_path_off(once):
    """Every Table 5.2 fault crosses the RPC path; the coalesced
    dispatch measures, to the nanosecond, what the step-by-step dispatch
    (``HIVE_RPC_FAST=0``, deleted in PR 18) last measured at c371ead."""
    fault = once(lambda: measure_page_fault(boot_two_cell(), remote=True,
                                            nfaults=256))
    assert fault == {"mean_ns": 50_700.0, "min_ns": 50_700,
                     "max_ns": 50_700, "count": 256}
