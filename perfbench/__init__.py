"""The repo's benchmark: four long workloads, each timed over several
repetitions in several fresh worker processes, plus per-layer numbers.

``python3 -m perfbench`` runs it; ``perfbench/README.md`` explains the
workloads, the metrics and the estimator.  Nothing here is imported by
``repro`` and nothing here edits it: workers call its public functions.
"""
