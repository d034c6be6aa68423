"""Named deterministic random streams.

Every source of randomness in the reproduction (workload think times, disk
request addresses, fault-injection sites, cache-placement noise) draws from
its own named stream so that adding randomness to one subsystem never
perturbs another — a property the SimOS methodology relied on for
deterministic replay of fault scenarios.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence


class RandomStreams:
    """A family of independent :class:`random.Random` streams keyed by name.

    Streams are derived from a root seed and the stream name, so the same
    ``(seed, name)`` pair always yields the same sequence regardless of the
    order in which streams are first used.
    """

    def __init__(self, seed: int = 1995):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        st = self._streams.get(name)
        if st is None:
            # Stable derivation: hash of name folded with root seed.
            derived = (self.seed * 1_000_003) ^ _stable_hash(name)
            st = random.Random(derived)
            self._streams[name] = st
        return st

    # Convenience passthroughs --------------------------------------

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return self.stream(name).uniform(lo, hi)

    def randint(self, name: str, lo: int, hi: int) -> int:
        return self.stream(name).randint(lo, hi)

    def choice(self, name: str, seq: Sequence):
        return self.stream(name).choice(seq)

    def random(self, name: str) -> float:
        return self.stream(name).random()


def _stable_hash(text: str) -> int:
    """A seed-stable string hash (Python's ``hash`` is salted per-run)."""
    h = 2166136261
    for ch in text.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h
