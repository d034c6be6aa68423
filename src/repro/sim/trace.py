"""The first event log lived here until PR 21; nothing is left.

``TraceLog`` / ``NullTrace`` / ``attach_tracing`` kept a ring of
``(time, category, cell, message)`` strings fed by the injector,
detector, panic and recovery observer lists.  The flight recorder
(:mod:`repro.obs.recorder`, PR 2) hangs off the same observer lists and
records the same occurrences as typed events and spans that every
exporter reads, and :func:`repro.obs.render_fault_timeline` prints the
timeline; a function-level census (EXPERIMENTS.md, PR 21) found no
workload, command or benchmark that still reached this module.

The file itself stays for one more PR, as ``sim/replay.py`` does:
``perfbench/tests/test_layers.py`` pins ``perfbench/metrics.py::
LAYER_MODULES`` to the exact file list of ``src/repro``, and only a
``benchmark`` PR may edit ``perfbench/``.  That PR drops both entries
and deletes both modules.
"""
