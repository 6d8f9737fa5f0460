"""Discrete-event simulation kernel.

A small, deterministic, process-interaction simulation engine in the style
of simpy (which is not available in this environment).  Simulation
processes are plain Python generators that yield *events*; the
:class:`~repro.des.core.Environment` advances virtual time and resumes
processes when the events they wait on are triggered.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def clock(env, ticks):
...     for _ in range(ticks):
...         yield env.timeout(1.0)
>>> _ = env.process(clock(env, 3))
>>> env.run()
>>> env.now
3.0
"""

from repro.des.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.des.resources import Store
from repro.des.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngStreams",
    "SimulationError",
    "Store",
    "Timeout",
]
