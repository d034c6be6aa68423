#!/usr/bin/env python3
"""Fault containment demo: kill a cell under a live workload.

Reproduces the paper's core claim interactively: a parallel make is
running across four cells; one cell's node fail-stops mid-run; the other
cells detect the failure (clock monitoring), agree on the new live set,
run the double-barrier recovery with preemptive discard, and keep
working.  Output files are then compared against reference copies — the
paper's corruption check.

Run:  python examples/fault_containment_demo.py
"""

from repro.core import boot_hive
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.obs import attach_flight_recorder, render_fault_timeline
from repro.sim import Simulator
from repro.workloads import Platform, PmakeWorkload


def main() -> None:
    sim = Simulator()
    hive = boot_hive(sim, num_cells=4,
                     machine_config=MachineConfig(seed=42),
                     agreement="voting")
    recorder = attach_flight_recorder(hive)
    hive.namespace.mount("/tmp", 1)
    hive.namespace.mount("/usr", 2)
    platform = Platform(hive)
    workload = PmakeWorkload()

    # Fail-stop node 3 (cell 3) one second into the timed run.
    injected = {}

    def note(record):
        injected["at_ms"] = record.time_ns / 1e6
        print(f"[{record.time_ns/1e6:9.2f} ms] !! node {record.node_id} "
              f"fail-stops ({record.kind})")

    hive.injector.observers.append(note)

    def schedule_fault():
        hive.injector.inject_at(sim.now + 1_000_000_000,
                                FaultInjector.NODE_FAILURE, 3)

    orig_driver = workload.driver_program

    def hooked(platform_, box):
        schedule_fault()
        return orig_driver(platform_, box)

    workload.driver_program = hooked

    print("running pmake on 4 cells; cell 3 will die mid-run...\n")
    result = workload.run(platform)

    record = next(r for r in hive.coordinator.records
                  if 3 in r.dead_cells)
    detect_ms = (record.last_entry_ns - injected["at_ms"] * 1e6) / 1e6
    print(f"[{record.hint_time_ns/1e6:9.2f} ms] first failure hint: "
          f"{record.detection_reason}")
    print(f"[{record.last_entry_ns/1e6:9.2f} ms] all survivors in "
          f"recovery (+{detect_ms:.1f} ms after the fault; "
          f"paper: 16-45 ms)")
    print(f"[{record.recovery_done_ns/1e6:9.2f} ms] recovery complete: "
          f"{record.discarded_pages} pages discarded, "
          f"{record.files_lost} files lost, "
          f"{record.killed_processes} processes killed")

    print(f"\nworkload finished at {result.elapsed_s:.2f} s simulated")
    print(f"jobs completed/failed : {result.jobs_completed}/"
          f"{result.jobs_failed}")
    print(f"surviving cells       : {hive.registry.live_cell_ids()}")
    print(f"output files clean    : {result.outputs_ok}")

    # The paper's post-fault correctness check: a fresh pmake forking on
    # every surviving cell.
    check = PmakeWorkload(src_dir="/check/src", tmp_dir="/check/tmp",
                          num_files=4, compute_per_job_ns=50_000_000)
    hive.namespace.mount("/check", 0)
    check_result = check.run(platform)
    print(f"correctness check     : "
          f"{'PASS' if check_result.jobs_failed == 0 and check_result.outputs_ok else 'FAIL'}")

    print()
    print(render_fault_timeline(recorder))


if __name__ == "__main__":
    main()
