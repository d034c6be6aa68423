"""Online invariant watchdog: sampled containment checks mid-run.

The end-of-run invariant sweep (``core/invariants.py``) can only say
*whether* a run ended consistent; it cannot say *when* an invariant
first broke or which fault broke it.  The watchdog samples the same
checks on a simulated-time cadence, one scan per tick, and records
every violation with its simulation timestamp, the offending cell,
and — when a provenance tracer is attached — the active fault's taint
id.  This is the oracle the continuous-churn fuzzer (ROADMAP) gates
on.

Overhead discipline: the watchdog is off by default and is only
attached when ``HIVE_WATCHDOG=1``.  When off, nothing is scheduled and
the simulation is counter-identical to a run without this module.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

WATCHDOG_ENV = "HIVE_WATCHDOG"
WATCHDOG_PERIOD_ENV = "HIVE_WATCHDOG_PERIOD_NS"
DEFAULT_PERIOD_NS = 50_000_000  # 50 simulated ms
MAX_VIOLATIONS = 200


def watchdog_enabled(env=None) -> bool:
    env = os.environ if env is None else env
    return env.get(WATCHDOG_ENV, "0") == "1"


class InvariantWatchdog:
    """Periodically re-checks every live cell's containment invariants."""

    def __init__(self, system, period_ns: int = DEFAULT_PERIOD_NS,
                 full_sweep_every: int = 10):
        self.system = system
        self.sim = system.sim
        self.period_ns = int(period_ns)
        #: every Nth tick also runs the cross-cell ``check_system``
        #: sweep (membership agreement, dead references)
        self.full_sweep_every = full_sweep_every
        self.ticks = 0
        self.checks_run = 0
        self.cells_checked = 0
        self.violations: List[Dict[str, Any]] = []
        self.violations_dropped = 0
        self.first_violation: Optional[Dict[str, Any]] = None
        self._stopped = False

    def start(self) -> "InvariantWatchdog":
        self.sim.schedule(self.period_ns, self._tick)
        return self

    def stop(self) -> None:
        self._stopped = True

    # -- sampling -------------------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._scan()
        self.sim.schedule(self.period_ns, self._tick)

    def _scan(self) -> None:
        # Imported lazily: repro.obs must stay importable from inside
        # repro.core module bodies (cell.py reads OBS_RECOVERY).
        from repro.core.invariants import check_cell, check_system
        self.checks_run += 1
        for cell in self.system.cells:
            if not cell.alive:
                continue
            self.cells_checked += 1
            problems = check_cell(cell)
            if problems:
                self._record(cell.kernel_id, problems)
        if self.full_sweep_every and \
                self.checks_run % self.full_sweep_every == 0:
            problems = check_system(self.system)
            if problems:
                self._record(None, problems)

    def _record(self, cell_id: Optional[int],
                problems: List[str]) -> None:
        prov = self.system.provenance
        taint = prov.active_taint() if prov is not None else None
        entry = {
            "time_ns": self.sim.now,
            "cell": cell_id,
            "problems": list(problems),
            "taint": taint,
        }
        if self.first_violation is None:
            self.first_violation = entry
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(entry)
        else:
            self.violations_dropped += 1
        rec = self.system.recorder
        if rec is not None:
            rec.event("watchdog.violation", "watchdog", cell=cell_id,
                      taint=taint, problems=len(problems),
                      first=problems[0])

    # -- reporting ------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "period_ns": self.period_ns,
            "ticks": self.ticks,
            "checks_run": self.checks_run,
            "cells_checked": self.cells_checked,
            "violations": [dict(v) for v in self.violations],
            "violations_dropped": self.violations_dropped,
            "first_violation": dict(self.first_violation)
            if self.first_violation is not None else None,
        }


def attach_watchdog(system, period_ns: int = DEFAULT_PERIOD_NS,
                    full_sweep_every: int = 10) -> InvariantWatchdog:
    """Create, register, and start a watchdog on a booted system."""
    wd = InvariantWatchdog(system, period_ns=period_ns,
                           full_sweep_every=full_sweep_every)
    system.watchdog = wd
    return wd.start()


def maybe_attach_watchdog(system, env=None) -> Optional[InvariantWatchdog]:
    """Attach a watchdog iff ``HIVE_WATCHDOG=1``.

    With the variable unset (the default) this schedules nothing and
    returns None, so the run is counter-identical to one without the
    watchdog.
    """
    env = os.environ if env is None else env
    if not watchdog_enabled(env):
        return None
    period = int(env.get(WATCHDOG_PERIOD_ENV, DEFAULT_PERIOD_NS))
    return attach_watchdog(system, period_ns=period)
