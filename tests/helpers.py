"""Shared test helpers."""

from tests.test_same_simulation import DIGESTS


def run_program(system_or_kernel, cell_id, program,
                deadline_ns=60_000_000_000):
    """Run one init program to completion; returns (kernel, thread)."""
    from repro.core.hive import HiveSystem

    if isinstance(system_or_kernel, HiveSystem):
        kernel = system_or_kernel.cell(cell_id)
    else:
        kernel = system_or_kernel
    proc = kernel.create_process("test-init")
    thread = kernel.start_thread(proc, program)
    kernel.sim.run_until_event(thread.sim_process,
                               deadline=kernel.sim.now + deadline_ns)
    assert thread.sim_process.triggered, "test program did not finish"
    return kernel, thread


def equiv_row(row):
    """The part of a throughput row every execution form must agree on."""
    from repro.bench.throughput import EQUIV_KEYS

    return {key: row.get(key) for key in EQUIV_KEYS}


#: (config, inject_ms) -> the ``EQUIV_KEYS`` content of the row the
#: trace-replay side printed on its last run (094e03b, seed 1995,
#: channel recorder attached; EXPERIMENTS.md "Last run of the replay
#: twin"), where every one matched the live run beside it.  Replay
#: execution was deleted in PR 20; the live default is held to these.
#: ``None`` is the config's own injection time; those of ``small`` and
#: ``medium`` are entries of the same-simulation table.  106 and 153
#: were ``sweep_inject_times("small", 2)``.  (The always-``None``
#: ``tiers.engine`` entry left the rows with the key itself, and the
#: always-0 ``vector_batches`` / ``vector_rate`` went with the
#: vectorized coherence tier, and ``scalar_batches`` / ``scalar_rate``
#: with the scalar one; no value was touched.)
LAST_REPLAY_RUN = {
    ("small", None): equiv_row(DIGESTS["throughput small"]),
    ("medium", None): equiv_row(DIGESTS["throughput medium"]),
    ('large', None): {'accesses': 4691822, 'channels': {'digest': 10961765050733,
        'ops_by_kind': {'coh_read_miss': 3078, 'fw_grant': 2048}, 'ops_total':
        5126, 'violations': 0, 'window_ns': 200}, 'discarded_pages': 128,
        'driver_accesses': 4690016, 'events': 593797, 'recovery_detected':
        True, 'samples': 461, 'sim_ms': 600.0, 'tiers': {'coherence':
        {'batches_total': 293127, 'inline_batches': 273, 'inline_rate':
        0.0009313369290444073, 'memo_hit_rate': 0.9990686630709555,
        'memo_hits': 292854}, 'rpc':
        {'calls_total': 0, 'fast_path': 0, 'fast_rate': 0.0}},
        'writable_page_samples': 24320},
    ('small', 37): {'accesses': 285756, 'channels': {'digest': 818060137031,
        'ops_by_kind': {'coh_read_miss': 277, 'fw_grant': 128}, 'ops_total':
        405, 'violations': 0, 'window_ns': 200}, 'discarded_pages': 32,
        'driver_accesses': 285520, 'events': 36457, 'recovery_detected': True,
        'samples': 63, 'sim_ms': 400.0, 'tiers': {'coherence':
        {'batches_total': 17846, 'inline_batches': 21, 'inline_rate':
        0.0011767342821920879, 'memo_hit_rate': 0.9988232657178079,
        'memo_hits': 17825}, 'rpc':
        {'calls_total': 0, 'fast_path': 0, 'fast_rate': 0.0}},
        'writable_page_samples': 448},
    ('small', 106): {'accesses': 326986, 'channels': {'digest': 818839404376,
        'ops_by_kind': {'coh_read_miss': 284, 'fw_grant': 128}, 'ops_total':
        412, 'violations': 0, 'window_ns': 200}, 'discarded_pages': 32,
        'driver_accesses': 326736, 'events': 41631, 'recovery_detected': True,
        'samples': 66, 'sim_ms': 400.0, 'tiers': {'coherence':
        {'batches_total': 20422, 'inline_batches': 21, 'inline_rate':
        0.0010283028106943491, 'memo_hit_rate': 0.9989716971893057,
        'memo_hits': 20401}, 'rpc':
        {'calls_total': 0, 'fast_path': 0, 'fast_rate': 0.0}},
        'writable_page_samples': 832},
    ('small', 153): {'accesses': 357972, 'channels': {'digest': 811883795437,
        'ops_by_kind': {'coh_read_miss': 289, 'fw_grant': 128}, 'ops_total':
        417, 'violations': 0, 'window_ns': 200}, 'discarded_pages': 32,
        'driver_accesses': 357712, 'events': 45519, 'recovery_detected': True,
        'samples': 69, 'sim_ms': 400.0, 'tiers': {'coherence':
        {'batches_total': 22358, 'inline_batches': 21, 'inline_rate':
        0.000939261114589856, 'memo_hit_rate': 0.9990607388854101, 'memo_hits':
        22337}, 'rpc':
        {'calls_total': 0, 'fast_path': 0, 'fast_rate': 0.0}},
        'writable_page_samples': 1216},
}

