"""One fresh worker process, started by :mod:`perfbench.harness`.

``python3 -m perfbench.worker '<json spec>'`` runs one untimed warm-up
repetition of a workload, says ``ready`` on its stdout pipe, runs the
timed repetitions and, for a traced run, one more under ``cProfile``;
or, with ``"probes": true``, runs the layer probes.  The last line it
writes is its result as one JSON object.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import time


def _repetition(fn, spec: dict, clock, index: int) -> dict:
    gc.collect()
    clock.begin(index)
    rep = fn(spec["seed"], clock, spec["quick"])
    return {"wall_s": clock.wall_s, "cpu_s": clock.cpu_s, "ops": rep.ops,
            "work": rep.work, "sim_s": rep.sim_s, "digest": rep.digest,
            "counts": rep.counts}


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv) -> int:
    spec = json.loads(argv[0])
    # The harness reads this pipe line by line; anything the program
    # prints goes to stderr instead.
    pipe = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def say(obj: dict) -> None:
        pipe.write(json.dumps(obj) + "\n")
        pipe.flush()

    started = time.perf_counter()
    if spec.get("probes"):
        from perfbench import probes
        say({"event": "ready"})
        say({"event": "result", "probes": probes.run_all()})
        return 0

    import numpy

    from perfbench import metrics, workloads
    import_s = time.perf_counter() - started
    fn = workloads.REP_FUNCTIONS[spec["workload"]]
    clock = workloads.Clock()
    reps = [_repetition(fn, spec, clock, 0)]
    say({"event": "ready"})
    for index in range(1, spec["reps"] + 1):
        reps.append(_repetition(fn, spec, clock, index))
    result = {"event": "result", "import_s": import_s, "reps": reps,
              "peak_rss_mb": _peak_rss_mb(), "numpy": numpy.__version__}
    if spec["traced"]:
        profile = cProfile.Profile()
        profile.enable()
        try:
            traced = _repetition(fn, spec, clock, len(reps))
        finally:
            profile.disable()
        result["traced"] = {
            "wall_s": traced["wall_s"], "digest": traced["digest"],
            "layers": metrics.profile_layers(pstats.Stats(profile).stats)}
        extra = workloads.EXTRA_COUNTS.get(spec["workload"])
        result["extra_counts"] = extra(spec["seed"]) if extra else {}
    result["spans"] = [[name, start - started, end - started, parent, rep]
                       for name, start, end, parent, rep in clock.spans]
    say(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
