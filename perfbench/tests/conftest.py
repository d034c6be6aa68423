"""Run with ``python -m pytest perfbench/tests -q`` from the repo root
(not part of the tier-1 suite)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
