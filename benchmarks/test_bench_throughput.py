"""Simulator throughput benchmark (PR 3): events/sec and accesses/sec.

Unlike the paper-reproduction benchmarks, this one measures *wall-clock*
simulator performance on the fixed fault-injection scenario from
:mod:`repro.bench.throughput`.  The simulated side of the scenario is
fully deterministic; the benchmark asserts that determinism (two runs
produce identical event/access/discard counts) and that the scenario
really exercises the fault path (recovery detected, pages discarded),
then reports the throughput numbers.

The same rows, printed (``--out FILE`` also writes them as JSON)::

    PYTHONPATH=src python -m repro bench --config all
"""

import pytest

from repro.bench.parallel import run_suite
from repro.bench.throughput import (
    BENCH_SCHEMA,
    CONFIGS,
    run_throughput,
    validate_payload,
)


def test_small_config_shape(once):
    row = once(run_throughput, "small")
    assert row["recovery_detected"], "victim failure was never recovered"
    assert row["discarded_pages"] == CONFIGS["small"].shared_frames_per_cell
    assert row["events"] > 10_000
    assert row["accesses"] > 100_000
    assert row["events_per_sec"] > 0
    assert row["accesses_per_sec"] > 0
    assert row["samples"] > 0
    # The Section 4.2 sampler saw the granted pages while they existed.
    assert row["writable_page_samples"] > 0
    print(f"\nsmall: {row['events_per_sec']:,.0f} events/sec, "
          f"{row['accesses_per_sec']:,.0f} accesses/sec, "
          f"recovery {row['recovery_wall_ms']:.1f} ms wall")


def test_simulated_side_is_deterministic():
    a = run_throughput("small", seed=7)
    b = run_throughput("small", seed=7)
    sim_keys = ("events", "accesses", "driver_accesses", "discarded_pages",
                "writable_page_samples", "samples", "recovery_detected")
    assert {k: a[k] for k in sim_keys} == {k: b[k] for k in sim_keys}


def test_payload_schema_roundtrip():
    payload = run_suite(["small"], seed=3)
    assert payload["schema"] == BENCH_SCHEMA
    validate_payload(payload)  # must not raise
    with pytest.raises(ValueError):
        validate_payload({"schema": BENCH_SCHEMA, "results": {}})
    broken = {"schema": BENCH_SCHEMA,
              "results": {"small": {"config": "small"}}}
    with pytest.raises(ValueError):
        validate_payload(broken)
