"""Command line of the benchmark.

``python3 -m perfbench --workload W --seed S --seconds T --trace 0|1`` is
what the driver runs: one workload, the result as one JSON object on
the last line of stdout.  Without ``--workload`` all four run, which is
what a person types; ``--trace`` adds the per-layer numbers, ``--noise
N`` repeats the run on N seeds and checks the spreads against the
bounds, ``--quick`` is the one-worker one-repetition smoke run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

from perfbench import harness, metrics

_UNITS = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
_UNITS.update({name: unit for name, unit, _b, _m in metrics.PER_LAYER})
_BOUNDS = {name: bound for name, _u, _b, bound in metrics.END_TO_END}


def _metric_block(values: Dict[str, float]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": _UNITS[name]}
            for name, value in values.items()}


def _print_metrics(workload: str, values: Dict[str, float]) -> None:
    for name, value in values.items():
        print(f"{workload + '/' + name:<58} {value:>16.6g} {_UNITS[name]}")


def _print_problems(workload: str, problems: List[str]) -> None:
    for problem in problems:
        print(f"FAILED {workload}: {problem}")


def run_untraced(workload: str, seed: int, seconds: float,
                 quick: bool) -> dict:
    run = harness.measure(workload, seed, seconds, quick)
    harness.write_out(f"run-{workload}.json", {
        "manifest": run["manifest"], "metrics": run["metrics"],
        "attempted": run["attempted"], "failed": run["failed"],
        "problems": run["problems"]})
    _print_metrics(workload, run["metrics"])
    _print_problems(workload, run["problems"])
    return run


def run_traced(workload: str, seed: int, quick: bool,
               probes: Dict[str, float],
               untraced: Optional[dict] = None) -> dict:
    """The per-layer metrics of one workload.  After an untraced run its
    workers supply the spans and spreads; alone, the traced worker's one
    timed repetition does."""
    traced = harness.trace(workload, seed, quick)
    worker = traced["worker"]
    before = untraced["workers"] if untraced else []
    values = harness.layer_metrics(before or [worker], worker, probes)
    _print_metrics(workload, values)
    _print_problems(workload, traced["problems"])
    traced["metrics"] = values
    traced["spans"] = harness.trace_rows(workload, [*before, worker])
    return traced


def _write_layers(seed: int, layers: Dict[str, Dict[str, float]],
                  spans: List[dict]) -> None:
    moves = {name: text for name, _u, _b, text in metrics.PER_LAYER}
    harness.write_out("layers.json", {
        "seed": seed, "git_sha": harness.git_sha(),
        "metrics": {workload: {
            name: {"value": value, "unit": _UNITS[name],
                   "moves": moves[name]}
            for name, value in values.items()}
            for workload, values in layers.items()}})
    harness.write_out("trace.json", spans)


def one_workload(args) -> int:
    """The driver's contract: one workload, one JSON line."""
    if args.trace:
        traced = run_traced(args.workload, args.seed, args.quick,
                            harness.probe())
        _write_layers(args.seed, {args.workload: traced["metrics"]},
                      traced["spans"])
        result = traced
    else:
        result = run_untraced(args.workload, args.seed, args.seconds,
                              args.quick)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": _metric_block(result["metrics"])}))
    return 0 if result["failed"] == 0 else 1


def all_workloads(args) -> int:
    """All four workloads, untraced; then, with --trace, traced."""
    runs = {name: run_untraced(name, args.seed, args.seconds, args.quick)
            for name in metrics.WORKLOADS}
    out = {name: {"attempted": run["attempted"], "failed": run["failed"],
                  "metrics": _metric_block(run["metrics"])}
           for name, run in runs.items()}
    failed = sum(run["failed"] for run in runs.values())
    if args.trace:
        probes = harness.probe()
        layers, spans = {}, []
        for name, run in runs.items():
            traced = run_traced(name, args.seed, args.quick, probes, run)
            layers[name] = traced["metrics"]
            spans.extend(traced["spans"])
            failed += traced["failed"]
            out[name]["per_layer"] = _metric_block(traced["metrics"])
        _write_layers(args.seed, layers, spans)
    print(json.dumps({"correct": failed == 0, "seed": args.seed,
                      "workloads": out}))
    return 0 if failed == 0 else 1


def noise(args) -> int:
    """N runs on N seeds; for each workload x end-to-end metric the
    interquartile range over the median (what the driver computes) and
    the largest gap between two runs, next to the metric's bound."""
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    samples: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in _BOUNDS} for name in names}
    failed = 0
    for offset in range(args.noise):
        for name in names:
            run = run_untraced(name, args.seed + offset, args.seconds,
                               args.quick)
            failed += run["failed"]
            for metric, value in run["metrics"].items():
                samples[name][metric].append(value)
    report = {}
    worst = 0.0
    print(f"\n{'workload/metric':<34}{'median':>14}{'iqr/median':>12}"
          f"{'max gap':>10}{'bound':>8}")
    for name in names:
        for metric, values in samples[name].items():
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / median
            gap = (max(values) - min(values)) / median
            bound = _BOUNDS[metric]
            # The driver does not hold setup_s to its spread.
            over = iqr > bound and metric != "setup_s"
            worst = max(worst, 0.0 if metric == "setup_s" else iqr / bound)
            report[f"{name}/{metric}"] = {
                "values": values, "median": median, "iqr_over_median": iqr,
                "max_gap": gap, "bound": bound, "over": over}
            print(f"{name + '/' + metric:<34}{median:>14.6g}{iqr:>12.4f}"
                  f"{gap:>10.4f}{bound:>8.2f}{'  OVER' if over else ''}")
    path = harness.write_out("noise.json", {
        "seed": args.seed, "runs": args.noise, "metrics": report})
    print(f"worst spread is {worst:.2f} of its bound; written to {path}")
    over = any(row["over"] for row in report.values())
    return 1 if over or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float,
                        default=metrics.RUN_SECONDS,
                        help="seconds of timed repetitions per run; "
                             "scales the repetition count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="emit the per-layer metrics and write "
                             "perfbench/out/layers.json and trace.json")
    parser.add_argument("--quick", action="store_true",
                        help="one worker, one repetition, small inputs")
    parser.add_argument("--noise", type=int, nargs="?", const=5,
                        default=0, metavar="N",
                        help="run N times on N seeds and check the "
                             "spreads against the bounds (default 5)")
    args = parser.parse_args(argv)
    if args.noise:
        if args.noise < 2:
            parser.error("--noise needs at least 2 runs")
        return noise(args)
    if args.workload:
        return one_workload(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
