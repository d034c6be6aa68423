"""Kernel operation cost model, calibrated to the paper's measurements.

The reproduction executes kernel *logic* (data-structure manipulation) for
real, but charges *time* for each operation from this table, because we do
not simulate MIPS instructions.  Every constant is annotated with the paper
measurement it composes into; the benchmark suite asserts that composed
latencies land on the published numbers.

Key published anchors:

=====================================  ==========  =======================
operation                              paper       source
=====================================  ==========  =======================
local page fault, hit in file cache    6.9 us      Tables 5.2 / 7.3
remote page fault, hit at data home    50.7 us     Table 5.2 (breakdown)
null interrupt-level RPC               7.2 us      Section 6
typical interrupt-level RPC overhead   9.6 us      Section 6
null queued RPC                        34 us       Section 6
careful_on..careful_off clock read     1.16 us     Section 4.1
open, local                            148 us      Table 7.3
open, remote                           580 us      Table 7.3
4 MB file read, local / remote         65 / 76.2 ms  Table 7.3
4 MB file write/extend, local/remote   83.7 / 87.3 ms  Table 7.3
RPC client spin-wait timeout           50 us       Section 6
=====================================  ==========  =======================

All values are integer nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.params import NS_PER_MS, NS_PER_US


@dataclass
class KernelCosts:
    """Charged latencies for kernel code paths."""

    # -- generic kernel entry ------------------------------------------
    syscall_overhead_ns: int = 2 * NS_PER_US      # trap + dispatch + return
    context_switch_ns: int = 10 * NS_PER_US       # full switch incl. sync
    tlb_miss_ns: int = 300                         # software-refill uTLB miss
    tlb_flush_ns: int = 5 * NS_PER_US              # whole-TLB flush
    scheduler_quantum_ns: int = 10 * NS_PER_MS     # 100 Hz time slice
    clock_tick_ns: int = 10 * NS_PER_MS            # clock interrupt period
    clock_handler_ns: int = 3 * NS_PER_US          # tick bookkeeping

    # -- page fault path (Table 5.2) --------------------------------------
    #: the local fault path minus the separately-charged hash lookup:
    #: trap, map, return.  local fault total = this + pfdat hash = 6.9 us.
    local_fault_ns: int = 6_200
    #: client-cell components of the remote fault (Table 5.2: 28.0 us
    #: including the hash lookup charged separately; the 8.7 us "misc VM"
    #: row therefore carries 8.0 us here).
    fault_client_fs_ns: int = 9_000
    fault_client_locking_ns: int = 5_500
    fault_client_misc_vm_ns: int = 8_000
    fault_client_import_ns: int = 4_800
    #: data-home components (Table 5.2: 5.4 us).
    fault_home_misc_vm_ns: int = 3_400
    fault_home_export_ns: int = 2_000

    # -- RPC (Section 6 and Table 5.2's RPC block) -------------------------
    #: stub marshalling for a *null* RPC, split client/server so the total
    #: null RPC lands on 7.2 us: hw round trip 2x(700+300)=2.0 us + client
    #: interrupt dispatch + stubs.
    rpc_null_stub_ns: int = 2_100
    #: interrupt dispatch overhead at each end of a message.
    rpc_interrupt_dispatch_ns: int = 1_550
    #: stub execution for a typical (argument-carrying) RPC: Table 5.2
    #: charges 4.9 us for "stubs and RPC subsystem".
    rpc_stub_ns: int = 4_900
    #: copying args/results beyond 128 bytes through shared memory (4.0 us)
    rpc_copy_ns: int = 3_900
    #: allocating/freeing argument and result memory (3.7 us)
    rpc_alloc_ns: int = 3_400
    #: client spins for the reply this long before context switching.
    rpc_spin_timeout_ns: int = 50 * NS_PER_US
    #: RPC send timeout for failure hints (derived; must exceed any valid
    #: queued service including disk I/O under load).
    rpc_timeout_ns: int = 250 * NS_PER_MS
    #: queued RPC adds server-process wakeup + sync: null queued RPC is
    #: 34 us end to end = null 7.2 us + this.
    rpc_queue_extra_ns: int = 26_800

    # -- careful reference protocol (Section 4.1) --------------------------
    #: careful_on: capture stack frame + record target cell; plus checks
    #: and careful_off.  Total software cost 1.16 us - 0.7 us cache miss.
    careful_on_ns: int = 260
    careful_check_ns: int = 60      # per pointer/alignment/range check
    careful_copy_ns_per_word: int = 10
    careful_off_ns: int = 200

    # -- file system (Table 7.3 anchors) ------------------------------------
    #: path lookup + vnode setup + fd allocation for a local open (148 us).
    open_local_ns: int = 146 * NS_PER_US
    #: extra client-side work for a remote open beyond the queued RPC and
    #: the server-side open: shadow-vnode setup, credential marshalling,
    #: and server scheduling delay.  Lands remote open on 580 us.
    open_remote_extra_ns: int = 378 * NS_PER_US
    close_ns: int = 20 * NS_PER_US
    unlink_ns: int = 120 * NS_PER_US
    #: per-page cost of read(): page-cache lookup plus 4 KB copyout
    #: (65 ms / 1024 pages for the 4 MB warm read).
    file_read_per_page_ns: int = 63_477
    #: per-page extra on the remote bulk-read path (76.2 ms for 4 MB):
    #: the client FS batches imports, amortizing the RPC across pages.
    file_read_remote_extra_ns: int = 7_400
    #: per-page cost of write()/extend: allocation + copyin + dirtying
    #: (83.7 ms / 1024 pages).
    file_write_per_page_ns: int = 81_000
    #: remote write extends at the data home; extra per page (87.3 ms).
    file_write_remote_extra_ns: int = 400
    #: creating a file / directory entry.
    create_ns: int = 160 * NS_PER_US

    # -- process management --------------------------------------------------
    fork_ns: int = 700 * NS_PER_US          # IRIX-era fork of modest process
    exec_ns: int = 900 * NS_PER_US
    exit_ns: int = 300 * NS_PER_US
    wait_ns: int = 30 * NS_PER_US
    signal_deliver_ns: int = 25 * NS_PER_US
    #: extra work to fork across a cell boundary (marshal + queued RPC
    #: handled separately by the RPC layer).
    remote_fork_extra_ns: int = 400 * NS_PER_US

    # -- VM bookkeeping -------------------------------------------------------
    page_zero_ns: int = 20 * NS_PER_US      # zeroing a 4 KB frame
    page_copy_ns: int = 25 * NS_PER_US      # COW copy of a 4 KB frame
    map_page_ns: int = 1_500                # insert one PTE
    unmap_page_ns: int = 1_800
    cow_tree_hop_ns: int = 800              # walk one COW tree level
    pfdat_hash_lookup_ns: int = 700

    # -- recovery (Section 4.3) -----------------------------------------------
    barrier_round_ns: int = 50 * NS_PER_US     # one global-barrier round
    discard_per_page_ns: int = 2_000           # invalidate + free one page
    #: examining one pfdat during the recovery sweeps (the VM cleanup
    #: scans every page frame twice: once detecting pages writable by
    #: failed cells, once revoking grants).  Sized so a 32 MB cell's
    #: recovery lands in the paper's measured 40-80 ms band.
    recovery_scan_per_pfdat_ns: int = 2_600
    recovery_fixed_ns: int = 5 * NS_PER_MS     # cleanup of dangling refs
    reboot_ns: int = 2_000 * NS_PER_MS         # cell reboot after diagnostics
    diagnostics_ns: int = 500 * NS_PER_MS      # recovery-master hw diagnostics


DEFAULT_COSTS = KernelCosts()
