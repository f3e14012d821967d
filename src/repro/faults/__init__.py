"""Fault injection: the crash-recovery failure model of Section IV, plus
the nemesis chaos harness exercising the self-healing middleware."""

from .injector import FaultInjector
from .nemesis import Nemesis

__all__ = ["FaultInjector", "Nemesis"]
