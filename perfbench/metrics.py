"""Every name the benchmark emits, and the module -> layer map.

``BENCHMARK.json`` repeats ``END_TO_END`` and the name/unit/better of
``PER_LAYER``; ``perfbench/tests`` fails when the two disagree.  The
``moves`` text of a layer metric is the prediction ROADMAP aim 1 asks
for: which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: seconds of timed repetitions in one run of one workload; the
#: repetition counts below are chosen for it on a 2-core host.
RUN_SECONDS = 16

#: name -> (why it is in the set, timed repetitions per worker in
#: RUN_SECONDS, unit of work_per_s).  ``perfbench.workloads`` has the
#: repetition functions.
WORKLOADS: Dict[str, Tuple[str, int, str]] = {
    "paper_apps": (
        "pmake, ocean and raytrace on a 4-cell Hive, what repro run does: "
        "kernel, RPC and sharing work shows, coherence work does not",
        3, "jobs"),
    "coherence_storm": (
        "16-cell throughput driver on three seeds: dense engine wakeups and "
        "millions of coherence accesses, no RPC or kernel work",
        3, "accesses"),
    "fault_campaign": (
        "three Table 7.4 fault trials with campaign observers attached: "
        "boot per trial, detection, recovery and obs hooks live",
        2, "trials"),
    "sessions": (
        "6M open-loop sessions in two runs: numpy generator and FCFS "
        "recurrence, bypassing the engine; the one workload where host "
        "memory moves",
        4, "sessions"),
}

#: (name, unit, better, bound): what a user of the simulator sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: profile layers, each the ``repro`` source files charged to it.  Every
#: file under ``src/repro`` is listed once, so a new module must be
#: placed before the layer test passes again.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py", "sim/resources.py", "sim/shard.py",
                   "sim/channels.py", "sim/replay.py", "sim/oplog.py"),
    "sim.stats": ("sim/stats.py",),
    "hardware.coherence": ("hardware/coherence.py",),
    "hardware.sips": ("hardware/sips.py", "hardware/interconnect.py"),
    "hardware.firewall": ("hardware/firewall.py",),
    "unix.kernel": ("unix/kernel.py", "unix/process.py", "unix/sched.py",
                    "unix/address_space.py", "unix/fs.py", "unix/cow.py",
                    "unix/swap.py", "unix/kheap.py", "unix/costs.py",
                    "unix/errors.py", "unix/__init__.py"),
    "unix.pfdat": ("unix/pfdat.py",),
    "core.rpc": ("core/rpc.py", "core/usermsg.py"),
    "core.sharing": ("core/sharing.py",),
    "core.careful": ("core/careful.py", "core/wildwrite.py",
                     "core/kfaults.py"),
    "core.recovery": ("core/recovery.py", "core/agreement.py",
                      "core/failure.py", "core/invariants.py"),
    "workloads": ("workloads/__init__.py", "workloads/base.py",
                  "workloads/micro.py", "workloads/ocean.py",
                  "workloads/pmake.py", "workloads/raytrace.py",
                  "workloads/sessions.py", "workloads/synthetic.py"),
    "obs": ("obs/__init__.py", "obs/availability.py", "obs/export.py",
            "obs/metrics.py", "obs/profile.py", "obs/provenance.py",
            "obs/recorder.py", "obs/watchdog.py"),
    "bench": ("bench/__init__.py", "bench/faultexp.py",
              "bench/parallel.py", "bench/report.py", "bench/rpcbench.py",
              "bench/throughput.py"),
    # numpy has no repro file: its functions are recognised by name.
    "numpy": (),
    "other": ("__init__.py", "__main__.py", "cli.py", "core/__init__.py",
              "core/cell.py", "core/hive.py", "core/ssi.py", "core/wax.py",
              "hardware/__init__.py", "hardware/disk.py",
              "hardware/errors.py", "hardware/faults.py",
              "hardware/machine.py", "hardware/memory.py",
              "hardware/node.py", "hardware/params.py", "sim/__init__.py",
              "sim/rng.py", "sim/snapshot.py", "sim/trace.py"),
}

LAYER_OF_MODULE: Dict[str, str] = {
    module: layer
    for layer, modules in LAYER_MODULES.items() for module in modules}

_ENGINE = ("wall_s on paper_apps, coherence_storm and fault_campaign; "
           "flat on sessions")
_COHERENCE = "wall_s on coherence_storm; flat on paper_apps"
_KERNEL = ("wall_s on paper_apps and fault_campaign; flat on "
           "coherence_storm and sessions")
_RECOVERY = "wall_s on fault_campaign only"
_BOOT = "setup_s on every workload and wall_s on fault_campaign"
_SESSIONS = "wall_s and peak_rss_mb on sessions only"
_MODEL = ("none: a simulated result, it moves only when the model "
          "changes, not when the simulator gets faster")
_HARNESS = "none: describes the measurement, not the program"
_MOVES_OF_LAYER = {
    "sim.engine": _ENGINE, "sim.stats": _SESSIONS,
    "hardware.coherence": _COHERENCE, "hardware.sips": _KERNEL,
    "hardware.firewall": _COHERENCE, "unix.kernel": _KERNEL,
    "unix.pfdat": _KERNEL, "core.rpc": _KERNEL, "core.sharing": _KERNEL,
    "core.careful": _KERNEL, "core.recovery": _RECOVERY,
    "workloads": _SESSIONS, "obs": _RECOVERY,
    "bench": "wall_s on coherence_storm (the traffic driver)",
    "numpy": _SESSIONS,
    "other": "wall_s wherever its share is not small; split it then",
}

#: exact counts read after an untraced repetition; ``sim.engine.sim_s``
#: and the simulated latencies repeat exactly for a seed.
_COUNTS = (
    ("sim.engine.sim_s", "s", "lower", _MODEL),
    ("sim.engine.events", "count", "lower", _ENGINE),
    ("sim.engine.host_ns_per_event", "ns", "lower", _ENGINE),
    ("hardware.coherence.accesses", "count", "lower", _COHERENCE),
    ("hardware.coherence.memo_ratio", "ratio", "higher", _COHERENCE),
    ("hardware.coherence.directory_size", "count", "lower", _COHERENCE),
    ("hardware.sips.sends", "count", "lower", _KERNEL),
    ("core.rpc.calls", "count", "lower", _KERNEL),
    ("core.rpc.fast_ratio", "ratio", "higher", _KERNEL),
    ("core.rpc.retries", "count", "lower", _KERNEL),
    ("core.sharing.remote_faults", "count", "lower", _KERNEL),
    ("unix.kernel.page_faults", "count", "lower", _KERNEL),
    ("core.recovery.rounds", "count", "lower", _RECOVERY),
    ("core.recovery.detect_ms_p50", "ms", "lower", _MODEL),
    ("core.recovery.round_ms_p50", "ms", "lower", _MODEL),
    ("bench.faultexp.contained_ratio", "ratio", "higher", _MODEL),
    ("obs.provenance.absorbed", "count", "lower", _MODEL),
    ("workloads.sessions.lost_per_fault", "count", "lower", _MODEL),
    ("workloads.sessions.latency_p50_ms", "ms", "lower", _MODEL),
    ("workloads.sessions.latency_p99_ms", "ms", "lower", _MODEL),
    ("workloads.paper_err_pct", "%", "lower", _MODEL),
)

#: host seconds of the spans the harness records around its own calls.
_SPANS = (
    ("core.hive.boot_s", "s", "lower", _BOOT),
    ("core.invariants.check_s", "s", "lower", _KERNEL),
    ("workloads.pmake.run_s", "s", "lower", _KERNEL),
    ("workloads.ocean.run_s", "s", "lower", _KERNEL),
    ("workloads.raytrace.run_s", "s", "lower", _KERNEL),
    ("bench.throughput.run_s", "s", "lower", _COHERENCE),
    ("bench.parallel.campaign_s", "s", "lower", _RECOVERY),
    ("bench.faultexp.setup_s", "s", "lower", _BOOT),
    ("workloads.sessions.run_s.failover", "s", "lower", _SESSIONS),
    ("workloads.sessions.run_s.nofailover", "s", "lower", _SESSIONS),
    ("harness.import_s", "s", "lower", "setup_s on every workload"),
    ("harness.cpu_s", "s", "lower", "wall_s: the two differ only by "
                                    "time the worker was not running"),
    ("harness.rep_spread", "ratio", "lower", _HARNESS),
    ("harness.worker_spread", "ratio", "lower", _HARNESS),
)

_PROFILE = tuple(
    row for layer in LAYER_MODULES for row in (
        (f"{layer}.self_s", "s", "lower", _MOVES_OF_LAYER[layer]),
        (f"{layer}.fn_calls", "count", "lower", _MOVES_OF_LAYER[layer]))
) + (("trace.overhead_x", "x", "lower", _HARNESS),)

#: closed loops over one layer's public functions.
_PROBES = (
    ("sim.engine.timeout_ops_per_s", "1/s", "higher", _ENGINE),
    ("sim.engine.schedule_ops_per_s", "1/s", "higher", _ENGINE),
    ("hardware.coherence.scalar_access_per_s", "1/s", "higher",
     "wall_s on paper_apps and fault_campaign (their accesses are "
     "scalar); flat on coherence_storm"),
    ("hardware.coherence.batch_access_per_s", "1/s", "higher", _COHERENCE),
    ("hardware.firewall.checks_per_s", "1/s", "higher", _COHERENCE),
    ("core.rpc.round_trips_per_s", "1/s", "higher", _KERNEL),
    ("unix.kernel.local_fault_per_s", "1/s", "higher", _KERNEL),
    ("core.sharing.remote_fault_per_s", "1/s", "higher", _KERNEL),
    ("core.careful.refs_per_s", "1/s", "higher", _KERNEL),
    ("workloads.sessions.gen_per_s", "1/s", "higher", _SESSIONS),
    ("sim.stats.record_many_per_s", "1/s", "higher", _SESSIONS),
    ("sim.snapshot.boot_s", "s", "lower", _BOOT),
    ("sim.snapshot.fork_s", "s", "lower",
     "none on the default path (no workload forks); setup of "
     "--snapshot campaigns"),
    ("obs.recorder.overhead_x", "x", "lower", _RECOVERY),
)

#: (name, unit, better, moves) of every per-layer metric.
PER_LAYER = _COUNTS + _SPANS + _PROFILE + _PROBES
SPAN_NAMES = tuple(row[0] for row in _SPANS)


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profiled function's self time is charged to."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        return LAYER_OF_MODULE.get(filename[at + len(marker):], "other")
    if "numpy" in filename or "numpy" in funcname:
        return "numpy"
    return "other"


def profile_layers(stats: dict) -> Dict[str, List[float]]:
    """Fold ``pstats`` rows into ``{layer: [self_s, calls]}``.

    A builtin (``list.append``, ``heappush``) has no module of its own:
    its time and calls are charged, edge by edge, to the layer of the
    function that called it.  numpy's builtins stay in ``numpy``.
    """
    out = {layer: [0.0, 0] for layer in LAYER_MODULES}
    for (filename, _line, funcname), row in stats.items():
        _cc, ncalls, self_s, _cum, callers = row
        if filename != "~" or "numpy" in funcname or not callers:
            entry = out[layer_of(filename, funcname)]
            entry[0] += self_s
            entry[1] += ncalls
            continue
        for (cfile, _cline, cfunc), edge in callers.items():
            entry = out[layer_of(cfile, cfunc)]
            entry[0] += edge[2]
            entry[1] += edge[0]
    return out
