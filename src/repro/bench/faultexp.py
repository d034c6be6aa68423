"""The Table 7.4 fault-injection experiments, end to end.

Per trial, following Section 7.4's method:

1. boot a four-processor four-cell Hive (with the agreement *oracle*, as
   the paper's experiments used);
2. start the main workload (pmake for multiprogrammed tests, raytrace for
   parallel-application tests);
3. inject the fault — a fail-stop node failure (immediately, at a phase
   trigger such as process creation or the copy-on-write search, or at a
   pseudo-random time), or kernel-pointer corruption in a process address
   map or a COW tree;
4. measure the latency until the last surviving cell enters recovery;
5. let the main workload run out, then run a pmake *correctness check*
   that forks processes on all surviving cells;
6. compare every output file written by both runs against its reference
   pattern.

A trial counts as *contained* when every surviving cell is still alive,
the correctness check completes, and no output file is corrupt.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.hive import HiveSystem, boot_hive
from repro.core.kfaults import ALL_MODES, KernelFaultInjector
from repro.hardware.faults import FaultInjector
from repro.hardware.machine import MachineConfig
from repro.hardware.params import NS_PER_MS, HardwareParams
from repro.sim.engine import Simulator
from repro.workloads.base import Platform
from repro.workloads.pmake import PmakeWorkload
from repro.workloads.raytrace import RaytraceWorkload

#: cell the faults are injected into (a cell that serves no file system
#: in the default mounts, as the paper's surviving-system check requires
#: the file servers to outlive the fault).
VICTIM_CELL = 3
#: wild writes a corrupted kernel makes in a software-fault trial: none,
#: the trial corrupts the pointer only (the wild-write bursts are
#: measured by the discard ablation benchmark).
WILD_WRITES = 0

HW_DURING_PROCESS_CREATION = "hw_process_creation"
HW_DURING_COW_SEARCH = "hw_cow_search"
HW_RANDOM_TIME = "hw_random"
SW_ADDRESS_MAP = "sw_address_map"
SW_COW_TREE = "sw_cow_tree"

ALL_SCENARIOS = (HW_DURING_PROCESS_CREATION, HW_DURING_COW_SEARCH,
                 HW_RANDOM_TIME, SW_ADDRESS_MAP, SW_COW_TREE)

#: paper values: (workload, #tests, avg ms, max ms)
PAPER_TABLE_7_4 = {
    HW_DURING_PROCESS_CREATION: ("pmake", 20, 16, 21),
    HW_DURING_COW_SEARCH: ("raytrace", 9, 10, 11),
    HW_RANDOM_TIME: ("pmake", 20, 21, 45),
    SW_ADDRESS_MAP: ("pmake", 8, 38, 65),
    SW_COW_TREE: ("raytrace", 12, 401, 760),
}


def boot_faultexp_system(agreement: str = "oracle",
                         seed: int = 0) -> HiveSystem:
    """Boot the standard Table 7.4 system (module-level, image-bootable).

    Module-level so that :func:`repro.sim.snapshot.run_booted` can host
    it in an image's holder process and fork trial copies from it.
    """
    sim = Simulator()
    system = boot_hive(
        sim, num_cells=4,
        machine_config=MachineConfig(params=HardwareParams(), seed=seed),
        agreement=agreement)
    system.namespace.mount("/tmp", 1)
    system.namespace.mount("/usr", 2)
    system.namespace.mount("/results", 0)
    system.namespace.mount("/check", 0)
    return system


@dataclass
class FaultTrialResult:
    scenario: str
    seed: int
    injected_at_ns: int
    detected: bool
    #: latency until the last cell entered recovery (ns); None if the
    #: fault was never detected
    last_entry_latency_ns: Optional[int]
    contained: bool
    survivors_alive: bool
    outputs_ok: bool
    check_ok: bool
    #: duration of the recovery round itself (entry to barrier-2 exit);
    #: the paper measured 40-80 ms
    recovery_duration_ns: Optional[int] = None
    notes: str = ""
    #: the seed that drove fault arming when it differs from ``seed``
    #: (replay campaigns fix the workload seed and sweep only this).
    fault_seed: Optional[int] = None

    @property
    def latency_ms(self) -> Optional[float]:
        if self.last_entry_latency_ns is None:
            return None
        return self.last_entry_latency_ns / 1e6

    @property
    def reason(self) -> str:
        """Why the trial was not contained ("" when it was): every
        failed condition of ``contained``, then ``notes``.  A property,
        not a field, so ``to_dict`` and the digests built on it omit it."""
        if self.contained:
            return ""
        parts = []
        if not self.detected:
            parts.append("not detected")
        if not self.survivors_alive:
            parts.append("a surviving cell died")
        elif not self.check_ok:
            parts.append("check run failed")
        if not self.outputs_ok:
            parts.append("workload outputs wrong")
        if self.notes:
            parts.append(self.notes)
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe form for cross-process campaign shards."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultTrialResult":
        return cls(**payload)


@dataclass
class ScenarioSummary:
    scenario: str
    trials: List[FaultTrialResult] = field(default_factory=list)

    @property
    def contained_count(self) -> int:
        return sum(1 for t in self.trials if t.contained)

    @property
    def latencies_ms(self) -> List[float]:
        return [t.latency_ms for t in self.trials
                if t.latency_ms is not None]

    @property
    def avg_latency_ms(self) -> float:
        vals = self.latencies_ms
        return statistics.mean(vals) if vals else float("nan")

    @property
    def max_latency_ms(self) -> float:
        vals = self.latencies_ms
        return max(vals) if vals else float("nan")


class FaultExperimentRunner:
    """Runs fault-injection trials and summarizes them."""

    def __init__(self, agreement: str = "oracle", on_boot=None):
        self.agreement = agreement
        #: called with each HiveSystem :meth:`run_trial` boots, before
        #: the trial starts — the hook a caller uses to get hold of the
        #: system (to attach an observer, or to read it afterwards).
        self.on_boot = on_boot

    # -- one trial ------------------------------------------------------------

    def run_trial(self, scenario: str, seed: int = 0,
                  fault_seed: Optional[int] = None) -> FaultTrialResult:
        """One Table 7.4 trial on a freshly booted system (a campaign
        run with ``snapshot`` forks its trials and calls
        :meth:`run_trial_on`).

        ``seed`` drives everything deterministic about the run — boot,
        workload traffic, and (by default) the fault schedule.
        ``fault_seed`` decouples the fault schedule from the traffic:
        a replay campaign records trial 0 once and sweeps only the
        fault arming across trials, so two trials with equal ``seed``
        and different ``fault_seed`` execute identical op streams up
        to the injection point.
        """
        if scenario not in ALL_SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        system = boot_faultexp_system(self.agreement, seed)
        if self.on_boot is not None:
            self.on_boot(system)
        return self.run_trial_on(system, scenario, seed, fault_seed)

    def run_trial_on(self, system: HiveSystem, scenario: str, seed: int = 0,
                     fault_seed: Optional[int] = None) -> FaultTrialResult:
        """Run one trial against an already-booted (or forked) system."""
        fseed = seed if fault_seed is None else fault_seed
        sim = system.sim
        platform = Platform(system)
        workload_name = PAPER_TABLE_7_4[scenario][0]
        if workload_name == "pmake":
            workload = PmakeWorkload()
        else:
            workload = RaytraceWorkload()

        injected = {"t": None, "armed": False}

        def note_injection(record) -> None:
            injected["t"] = record.time_ns

        system.injector.observers.append(note_injection)

        kfi = KernelFaultInjector(system, seed=fseed + 101)

        # Arm / schedule the fault.
        if scenario == HW_DURING_PROCESS_CREATION:
            # Skip a few occurrences so the fault lands mid-run, not on
            # the very first fork.
            for _ in range(2 + fseed % 4):
                system.injector.arm_phase("process_creation",
                                          None, VICTIM_CELL)
            system.injector.arm_phase("process_creation",
                                      FaultInjector.NODE_FAILURE,
                                      VICTIM_CELL)
        elif scenario == HW_DURING_COW_SEARCH:
            for _ in range(20 + (fseed * 13) % 40):
                system.injector.arm_phase("cow_search", None,
                                          VICTIM_CELL)
            system.injector.arm_phase("cow_search",
                                      FaultInjector.NODE_FAILURE,
                                      VICTIM_CELL)
        elif scenario == HW_RANDOM_TIME:
            t = 500 * NS_PER_MS + (fseed * 367_934_871) % (3_000 * NS_PER_MS)
            system.injector.inject_at(t, FaultInjector.NODE_FAILURE,
                                      VICTIM_CELL, trigger="random")
        elif scenario in (SW_ADDRESS_MAP, SW_COW_TREE):
            # Corrupt once the victim has processes / COW structure;
            # schedule at a pseudo-random point mid-run.
            t = 1_000 * NS_PER_MS + (fseed * 217_645_199) % (2_000 * NS_PER_MS)

            victim = system.cell(VICTIM_CELL)
            injected["armed"] = True

            def corrupt() -> None:
                if not injected["armed"]:
                    return
                mode = ALL_MODES[fseed % len(ALL_MODES)]
                if scenario == SW_ADDRESS_MAP:
                    rec = kfi.corrupt_address_map(
                        VICTIM_CELL, mode,
                        wild_writes=WILD_WRITES)
                else:
                    rec = kfi.corrupt_cow_tree(
                        VICTIM_CELL, mode,
                        wild_writes=WILD_WRITES)
                if rec is not None:
                    injected.update(t=rec.time_ns, armed=False)
                else:
                    # Nothing to corrupt yet (no live process / COW
                    # node on the victim): retry once it forks again,
                    # and again on the fork after if that is too early.
                    victim.phase_hooks.append(retry_after_fork)

            def retry_after_fork(phase: str) -> None:
                if phase == "process_creation":
                    victim.phase_hooks.remove(retry_after_fork)
                    sim.schedule(NS_PER_MS, corrupt)

            sim.schedule(t, corrupt)

        # -- main workload run ------------------------------------------
        notes = ""
        outputs_ok = True
        try:
            result = workload.run(platform, deadline_ns=900_000_000_000)
            outputs_ok = self._outputs_ok(platform, workload)
        except Exception as exc:  # workload-level failure
            notes = f"main workload: {type(exc).__name__}: {exc}"
            outputs_ok = False
        if injected["armed"]:
            # Not a containment breach: there was never a fault.
            injected["armed"] = False
            notes = f"fault never injected {notes}"

        # -- detection / recovery bookkeeping -----------------------------
        records = [r for r in system.coordinator.records
                   if VICTIM_CELL in r.dead_cells]
        detected = bool(records)
        latency = None
        recovery_duration = None
        if detected and injected["t"] is not None:
            latency = max(0, records[0].last_entry_ns - injected["t"])
        if detected and records[0].entry_times:
            recovery_duration = (records[0].recovery_done_ns
                                 - min(records[0].entry_times.values()))

        survivors = [c for c in range(4) if c != VICTIM_CELL]
        survivors_alive = all(
            system.registry.cell_object(c) is not None
            and system.registry.cell_object(c).alive
            for c in survivors)

        # -- correctness check: pmake forking on all surviving cells ------
        check_ok = False
        if survivors_alive:
            check = PmakeWorkload(src_dir="/check/src", tmp_dir="/check/tmp",
                                  num_files=4,
                                  compute_per_job_ns=50 * NS_PER_MS)
            try:
                check_result = check.run(platform,
                                         deadline_ns=600_000_000_000)
                check_ok = (check_result.jobs_failed == 0
                            and check_result.outputs_ok)
            except Exception as exc:
                notes += f" check: {type(exc).__name__}: {exc}"
        contained = bool(detected and survivors_alive and check_ok
                         and outputs_ok)
        return FaultTrialResult(
            scenario=scenario, seed=seed,
            injected_at_ns=injected["t"] or -1,
            detected=detected,
            last_entry_latency_ns=latency,
            contained=contained,
            survivors_alive=survivors_alive,
            outputs_ok=outputs_ok,
            check_ok=check_ok,
            recovery_duration_ns=recovery_duration,
            notes=notes.strip(),
            fault_seed=fault_seed,
        )

    def _outputs_ok(self, platform: Platform, workload) -> bool:
        """Compare completed output files against reference patterns.

        Files whose writer was killed by the fault never registered an
        expected output, so only completed outputs are compared — the
        paper's criterion is *no corrupt data*, not *no lost work*.
        """
        for path, expected in workload.expected_outputs.items():
            errors = platform.verify_file(path, expected)
            real = [e for e in errors if "unavailable" not in e]
            if real:
                return False
        return True

    # -- scenario sweep ------------------------------------------------------------

    def run_scenario(self, scenario: str, trials: int,
                     seed_base: int = 0) -> ScenarioSummary:
        summary = ScenarioSummary(scenario=scenario)
        for i in range(trials):
            summary.trials.append(self.run_trial(scenario, seed_base + i))
        return summary

    def run_table_7_4(self, scale: float = 1.0,
                      seed_base: int = 0) -> Dict[str, ScenarioSummary]:
        """The full table; ``scale`` shrinks trial counts for fast runs."""
        out: Dict[str, ScenarioSummary] = {}
        for scenario, (_wl, n, _avg, _mx) in PAPER_TABLE_7_4.items():
            trials = max(1, int(round(n * scale)))
            out[scenario] = self.run_scenario(scenario, trials, seed_base)
        return out
