"""``--quick`` end to end, and the driver's contract on one workload."""

import json
import shutil
import subprocess
import sys
import time

from perfbench import metrics
from perfbench.harness import ROOT

E2E = {name for name, _u, _b, _bound in metrics.END_TO_END}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_quick_emits_every_metric_for_every_workload_within_a_minute():
    started = time.monotonic()
    done = _run("--quick", "--seed", "3")
    assert time.monotonic() - started < 60
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["workloads"]) == set(metrics.WORKLOADS)
    for name, row in result["workloads"].items():
        assert set(row["metrics"]) == E2E, name
        assert all(m["value"] > 0 for m in row["metrics"].values()), name
        assert row["failed"] == 0 < row["attempted"]


def test_traced_workload_emits_every_layer_metric():
    done = _run("--workload", "sessions", "--quick", "--seed", "3",
                "--seconds", "16", "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {row[0] for row in metrics.PER_LAYER}
    layers = json.loads((ROOT / "perfbench/out/layers.json").read_text())
    assert set(layers["metrics"]["sessions"]) == set(result["metrics"])
    spans = json.loads((ROOT / "perfbench/out/trace.json").read_text())
    ids = {(s["worker"], s["id"]) for s in spans}
    assert any(s["parent"] is not None for s in spans)
    assert all(s["parent"] is None or (s["worker"], s["parent"]) in ids
               for s in spans)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run("--workload", "paper_apps", "--seed", "1", "--seconds",
                "16", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
