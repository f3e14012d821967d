"""Discrete-event simulation substrate.

The virtual cluster the replicated database runs on: event kernel, shared
resources (CPUs, queues), network fabric and deterministic random streams.
"""

from .kernel import (
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .network import LatencyModel, Mailbox, Network
from .resources import Request, Resource, Store
from .rng import Rng, RngRegistry

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "LatencyModel",
    "Mailbox",
    "Network",
    "Process",
    "Request",
    "Resource",
    "Rng",
    "RngRegistry",
    "SimulationError",
    "Store",
    "Timeout",
]
