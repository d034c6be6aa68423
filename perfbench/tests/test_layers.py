"""The module -> layer map covers ``src/repro`` exactly."""

from perfbench.harness import ROOT
from perfbench.metrics import LAYER_MODULES, LAYER_OF_MODULE, layer_of


def _source_files():
    src = ROOT / "src" / "repro"
    return {str(path.relative_to(src)) for path in src.rglob("*.py")}


def test_every_module_has_a_layer():
    unmapped = _source_files() - set(LAYER_OF_MODULE)
    assert not unmapped, (
        f"add {sorted(unmapped)} to a layer in perfbench/metrics.py")


def test_no_stale_or_doubled_entries():
    listed = [m for modules in LAYER_MODULES.values() for m in modules]
    assert len(listed) == len(set(listed))
    assert not set(listed) - _source_files()


def test_layer_of():
    engine = str(ROOT / "src" / "repro" / "sim" / "engine.py")
    assert layer_of(engine, "run") == "sim.engine"
    assert layer_of("~", "<method 'cumsum' of 'numpy.ndarray' objects>") \
        == "numpy"
    assert layer_of("/usr/lib/python3/json/encoder.py", "encode") == "other"
