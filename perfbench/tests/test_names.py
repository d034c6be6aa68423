"""``BENCHMARK.json`` declares exactly what ``perfbench`` emits."""

import json
import re

from perfbench import metrics
from perfbench.harness import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_command():
    assert set(DECLARED) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "-m", "perfbench"]
    assert DECLARED["paths"] == ["perfbench"]
    assert DECLARED["run_seconds"] == metrics.RUN_SECONDS


def test_workloads():
    assert DECLARED["workloads"] == [
        {"name": name, "why": why}
        for name, (why, _reps, _unit) in metrics.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


def test_end_to_end():
    assert DECLARED["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in metrics.END_TO_END]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_per_layer():
    assert DECLARED["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves in metrics.PER_LAYER]
    assert len(DECLARED["per_layer"]) <= 128


def test_names_are_well_formed_and_used_once():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


def test_every_layer_metric_says_what_it_should_move():
    assert all(moves for _n, _u, _b, moves in metrics.PER_LAYER)
