"""Discrete-event simulation engine.

The paper's evaluation is driven by "an event-driven simulator ... written in
C".  This package is the Python equivalent: a deterministic event scheduler
(:class:`~repro.sim.engine.Simulator`), cancellable event handles
(:class:`~repro.sim.events.EventHandle`) and a seedable random-number facade
(:class:`~repro.sim.rng.SimRng`).  Tracing lives with the rest of the
telemetry in :class:`repro.obs.events.EventStream`.
"""

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.sim.rng import SimRng

__all__ = ["Simulator", "EventHandle", "SimRng"]
