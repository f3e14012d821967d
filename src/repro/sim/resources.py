"""Shared resources for simulation processes.

Two primitives cover everything the replicated database prototype needs:

* :class:`Resource` — a server with fixed capacity and a FIFO queue, used to
  model replica CPUs, disks and the certifier's processing capacity.
* :class:`Store` — an unbounded FIFO buffer of items with a blocking
  ``get``: the mailbox of a *pull* endpoint (closed-loop clients, the
  synchronous session), whose consumer fetches its own replies.  Handler
  endpoints — every middleware component — do not use one (see
  :class:`~repro.sim.network.Mailbox`).

Both integrate with the kernel through events: ``request()``/``get()`` return
events that a process yields.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .kernel import Environment, Event, SimulationError, _TRIGGERED

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires ``hold`` ms after the slot is granted (0: at the grant itself).
    Must be released with :meth:`Resource.release` (or used via
    ``with``-style helpers in client code).  Cancelling a not-yet-granted
    request removes it from the queue.
    """

    __slots__ = ("resource", "hold")

    def __init__(self, resource: "Resource", hold: float = 0.0):
        # Flattened Event.__init__: one request per resource claim makes
        # this one of the hottest allocation sites in the simulation.
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = 0  # _PENDING
        self.resource = resource
        self.hold = hold


class Resource:
    """A server with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: Deque[Request] = deque()
        # Busy-time integral (slot-milliseconds) for utilization reporting.
        self._busy_slot_ms = 0.0
        self._last_change = env.now

    def _account(self) -> None:
        now = self.env._now
        if now != self._last_change:
            self._busy_slot_ms += len(self._users) * (now - self._last_change)
            self._last_change = now

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def busy_slot_ms(self) -> float:
        """Cumulative busy time across slots (slot-milliseconds)."""
        self._account()
        return self._busy_slot_ms

    def utilization(self, since_ms: float = 0.0) -> float:
        """Average fraction of capacity busy since ``since_ms``.

        Only exact when the resource was idle at ``since_ms`` = 0; for
        experiment windows, diff :attr:`busy_slot_ms` snapshots instead.
        """
        elapsed = self.env.now - since_ms
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_slot_ms / (self.capacity * elapsed))

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, hold: float = 0.0) -> Request:
        """Claim a slot; the returned event fires ``hold`` ms after the slot
        is granted — by default at the grant itself."""
        if not hold >= 0:  # also rejects NaN
            raise SimulationError(f"hold must be >= 0, got {hold!r}")
        req = Request(self, hold)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def _grant(self, req: Request) -> None:
        self._account()
        self._users.add(req)
        # req.succeed(), ``hold`` from now
        req._state = _TRIGGERED
        self.env._schedule(req, req.hold)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request in self._users:
            self._account()
            self._users.remove(request)
            self._grant_next()
        else:
            self.cancel(request)

    def cancel(self, request: Request) -> None:
        """Withdraw a request that has not been granted."""
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            if req.triggered:  # defensive: skip stale entries
                continue
            self._grant(req)

    def use(self, duration: float):
        """Process helper: hold one slot for ``duration`` ms.

        Usage inside a process::

            yield from resource.use(service_time)

        One kernel event per hold: the grant is scheduled ``duration`` after
        the slot is taken, so the process wakes once, when the hold is over.
        Closing the generator (explicitly, or when a dropped process is
        collected) while it waits for the slot or holds it withdraws or
        releases the request.
        """
        req = self.request(duration)
        try:
            yield req
        finally:
            self.release(req)


class Store:
    """An unbounded FIFO buffer with blocking ``get``.

    ``put`` never blocks (the prototype's queues are unbounded, like the
    paper's refresh queues); ``get`` returns an event that fires once an item
    is available, preserving FIFO order among getters.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (for inspection/tests)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> list:
        """Non-destructive view of all buffered items."""
        return list(self._items)
