"""Deterministic discrete-event simulation engine.

This package is the execution substrate for the whole reproduction: the
FLASH hardware model, the UNIX kernel substrate, and the Hive cells all run
as coroutine processes on a single :class:`~repro.sim.engine.Simulator`
whose clock counts nanoseconds.

The engine is deliberately simpy-like but self-contained (no third-party
dependency) and fully deterministic: events scheduled for the same instant
fire in schedule order, and all randomness flows through named streams of
:class:`~repro.sim.rng.RandomStreams`.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import FifoStore, Resource
from repro.sim.rng import RandomStreams
from repro.sim.stats import Counter, Histogram, MetricSet, Timer

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "FifoStore",
    "Histogram",
    "Interrupted",
    "MetricSet",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Timer",
]
