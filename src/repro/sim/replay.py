"""Trace-replay execution lived here until PR 20; nothing is left.

``ReplayChain`` / ``ReplaySession`` fed a recorded driver stream back
through the chain coordinator as array passes, selected by
``HIVE_REPLAY`` and ``repro bench --replay``.  It always matched a live
run counter for counter and never beat one: on its last run
(EXPERIMENTS.md, "Last run of the replay twin") every cell of the grid
was MATCH and moved-fault sweeps ran at 0.72x / 0.79x / 0.60x of the
parked default on ``small`` / ``medium`` / ``large``.  So the execution
path went; the per-wakeup run (``run_throughput(per_wakeup=True)``, the
oracle of ``--compare-parked``) and ``oplog.divergence_point`` stay.

The file itself stays for one more PR: ``perfbench/tests/test_layers.py``
pins ``perfbench/metrics.py::LAYER_MODULES`` to the exact file list of
``src/repro``, and only a ``benchmark`` PR may edit ``perfbench/``.  That
PR drops the ``sim/replay.py`` entry and deletes this module with it.
"""
