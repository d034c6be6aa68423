"""Declared dependencies are checked, not assumed: ``src/repro`` imports
only the standard library, itself, and what ``pyproject.toml`` declares,
and a fault trial runs on a host that has nothing else."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _declared_dependencies():
    """Module names of ``[project] dependencies`` (``tomllib`` is 3.11+,
    so the one list is read with a regex and ``literal_eval``)."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*(\[.*?\])", text, re.M | re.S)
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].replace("-", "_")
            for dep in ast.literal_eval(match.group(1))}


#: the modules of src/repro that may import numpy: the session
#: generator and the histogram's array path it feeds.
NUMPY_USERS = {"workloads/sessions.py", "sim/stats.py"}


def _imported_modules(text):
    """Top-level names of every absolute import in one file, the lazy
    ones inside functions included; relative imports are the package."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_src_imports_only_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= _declared_dependencies()
    undeclared = [f"{path.relative_to(SRC)}:{line}: {name}"
                  for path in sorted((SRC / "repro").rglob("*.py"))
                  for name, line in _imported_modules(path.read_text())
                  if name not in allowed]
    assert undeclared == []


def _numpy_imports(rel, text):
    """``rel:line`` of each numpy import in a module outside
    ``NUMPY_USERS``."""
    if rel in NUMPY_USERS:
        return []
    return [f"{rel}:{line}" for name, line in _imported_modules(text)
            if name == "numpy"]


def test_numpy_only_in_the_session_generator():
    """Every memory reference takes one scalar path, so numpy stays out
    of the simulator: only the session generator needs it."""
    root = SRC / "repro"
    hits = [hit for path in sorted(root.rglob("*.py"))
            for hit in _numpy_imports(path.relative_to(root).as_posix(),
                                      path.read_text())]
    assert hits == []


def test_numpy_self_test_catches_each_kind():
    planted = "\n".join([
        "import numpy as np",
        "from numpy import asarray",
        "import numpy.random",
        "def f():",
        "    import numpy",
        "import numbers",
    ])
    assert _numpy_imports("hardware/memory.py", planted) == [
        "hardware/memory.py:1", "hardware/memory.py:2",
        "hardware/memory.py:3", "hardware/memory.py:5"]
    assert _numpy_imports("sim/stats.py", planted) == []


def test_hw_random_trial_contained_with_only_declared_dependencies():
    """A ``None`` entry in ``sys.modules`` makes ``import networkx``
    fail as on a host without it; the recovery master's diagnostics
    must not need it."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.bench.faultexp import FaultExperimentRunner\n"
        "trial = FaultExperimentRunner().run_trial('hw_random', 1995)\n"
        "print(trial.contained, repr(trial.reason))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True ''"]
