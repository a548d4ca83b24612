"""Process-oriented discrete-event simulation kernel.

This subpackage is the reproduction's substitute for the CSIM-18 /
MultiSim stack the paper built its simulator on.  It provides the same
process-oriented abstraction: active entities are *processes* (Python
generators driven by the :class:`Environment`), time advances through an
event heap, and contention points are modelled with FIFO
:class:`Resource` objects (the paper's "each channel has a single queue
where messages are held while awaiting transmission").

Public API
----------
Environment
    The simulation kernel: clock, event heap, process scheduler.
Event, Timeout, Process, AllOf, AnyOf
    Awaitable simulation events.
Resource, Request
    Capacity-limited FIFO resource (used for network channels).
Store
    FIFO message store (used for node inboxes).
RandomStreams
    Named, independently seeded RNG streams for reproducibility.
"""

from repro.sim.engine import Environment, SimulationError
from repro.sim.event import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resources import PriorityResource, Request, Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
