#!/usr/bin/env python3
"""Function-level census of ``src/repro``: which code does anything reach?

Runs the perfbench workloads and every ``repro`` subcommand, then
``benchmarks/`` and ``examples/``, then tier-1 file by file, every process
under a ``sys.setprofile`` hook installed by a ``sitecustomize`` (so pool
workers, image holders and forked children count) that appends a line per
first-seen code object.  An ``ast`` pass gives each function its extent,
and a function is filed under the first group that reached it.  Prints
the per-file table EXPERIMENTS.md carries, then one line per function
reached only by unit tests or by nothing (``file:line name lines
column``): the list to delete, test or justify.  Takes about half an
hour.

    python benchmarks/census.py > census.md
"""

import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
HOOK = """
import os, sys, threading
_fd = os.open(os.environ["CENSUS_LOG"], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_seen = set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(os.environ["CENSUS_SRC"]):
            os.write(_fd, f"{code.co_filename}:{code.co_firstlineno}\\n".encode())
sys.setprofile(_hook)
threading.setprofile(_hook)
"""
#: every subcommand and every flag CI or the README uses; {t}: a scratch dir
COMMANDS = """\
run pmake|run ocean --irix|run raytrace --wax --agreement oracle
run pmake --cells 2 --nodes 2 --telemetry-out {t}/tel --telemetry-compress
trace pmake|trace --from-spans {t}/tel/spans.jsonl.gz|metrics pmake
metrics raytrace --format json|micro --telemetry-out {t}/micro
inject all --seed 5|inject hw_random --trials 2 --replay --progress
inject hw_process_creation --trials 2 --snapshot --telemetry-out {t}/inj
inject sw_address_map --seed 1953273122 --agreement voting
audit hw_process_creation --trials 2 --seed 5 --progress --out {t}/audit.md
audit sw_cow_tree --format json --out {t}/a.json --trace-out {t}/dag.json.gz
sessions --sessions 50000|sessions --sessions 50000 --no-failover \
--inject-ms 200 --probe-every 4000 --service lognormal --out {t}/s.json
bench --config small --rpc --compare-parked --out {t}/b1.json
bench --out {t}/b2.json
report --save-campaign {t}/c.json --out {t}/report.md
report --from-json {t}/c.json --check|report --format json"""


def groups(tmp):
    py = [sys.executable]
    yield [py + ["-m", "perfbench", "--workload", w, "--seed", "1995",
                 "--seconds", "1", "--trace", "0"]
           for w in ("paper_apps", "coherence_storm", "fault_campaign",
                     "sessions")] + [
        py + ["-m", "repro"] + c.format(t=tmp).split()
        for line in COMMANDS.splitlines() for c in line.split("|")]
    # pytest-benchmark silences profilers inside benchmark(...)
    yield [py + ["-m", "pytest", "-q", "--benchmark-disable", "benchmarks"]] \
        + [py + [e] for e in sorted(glob.glob("examples/*.py"))]
    yield [py + ["-m", "pytest", "-q", f]
           for f in sorted(glob.glob("tests/test_*.py"))]


COLUMNS = ("a workload or command", "only benchmarks/ or examples/",
           "only unit tests", "nothing")


def extents():
    """(file, first line) -> (qualified name, lines, decorators included)
    of every function."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                name = prefix + child.name
                out[path, first] = (name, child.end_lineno - first + 1)
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name + "."
            visit(child, name, path)

    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            visit(ast.parse(fh.read()), "", path)
    return out


def main():
    os.chdir(ROOT)
    reached = {}
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        log = os.path.join(tmp, "census.log")
        env = dict(os.environ, CENSUS_LOG=log, CENSUS_SRC=SRC,
                   PYTHONPATH=os.pathsep.join([tmp, "src", ROOT]))
        for column, commands in enumerate(groups(tmp)):
            for command in commands:
                print("census:", " ".join(command), file=sys.stderr)
                done = subprocess.run(command, env=env,
                                      stdout=subprocess.DEVNULL)
                # argparse exits 2 on a usage error: a flag that is gone
                # would otherwise file its code under "unreached".
                if column == 0 and done.returncode == 2:
                    raise SystemExit("census: usage error in "
                                     + " ".join(command))
            with open(log) as fh:
                for line in fh:
                    reached.setdefault(line.strip(), column)
    table = {}
    act = []
    for (path, first), (name, lines) in sorted(extents().items()):
        rel = os.path.relpath(path, SRC)
        row = table.setdefault(rel, [0] * 8)
        column = reached.get(f"{path}:{first}", 3)
        row[2 * column] += 1
        row[2 * column + 1] += lines
        if column >= 2:
            act.append(f"{rel}:{first} {name} {lines} {COLUMNS[column]}")
    print("| file: functions / lines reached by | "
          + " | ".join(COLUMNS) + " |\n|---|---:|---:|---:|---:|")
    total = [sum(column) for column in zip(*table.values())]
    for name, row in sorted(table.items()) + [("total", total)]:
        cells = " | ".join(f"{row[i]} / {row[i + 1]}" for i in (0, 2, 4, 6))
        print(f"| {name} | {cells} |")
    print()
    print("\n".join(act))


if __name__ == "__main__":
    main()
