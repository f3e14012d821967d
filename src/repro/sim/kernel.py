"""Discrete-event simulation kernel.

This module provides the virtual-time substrate on which the replicated
database prototype runs.  The paper evaluated its prototype on a physical
cluster; we reproduce the cluster with a deterministic discrete-event
simulator so the throughput/latency experiments run on a laptop while
preserving the queueing behaviour that drives the paper's results (see
DESIGN.md, substitution table).

The design follows the classic process-interaction style (as popularised by
SimPy, reimplemented here from scratch):

* An :class:`Environment` owns the virtual clock and the event queue.
* An :class:`Event` is a one-shot occurrence; callbacks run when it fires.
* A :class:`Process` wraps a Python generator.  The generator *yields*
  events; the process resumes when the yielded event fires.
* :class:`Timeout` is an event that fires after a virtual delay.

Time is a ``float`` in **milliseconds** throughout the library, matching the
units the paper reports.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "AnyOf",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled, value set, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    schedules it; the environment then invokes its callbacks at the current
    virtual time.  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (value decided)."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._state == _PENDING:
            raise SimulationError("event value is not available yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        # Inlined zero-delay _schedule: succeed() is the hottest trigger.
        env = self.env
        env._immediate.append((env._now, next(env._event_counter), self))
        env.immediate_scheduled += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with an exception."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        env._immediate.append((env._now, next(env._event_counter), self))
        env.immediate_scheduled += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- internal --------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # Flattened Event.__init__ + _schedule: timeouts are created for
        # every service-time charge, so each saved call is paid back 10^5
        # times per run.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self.delay = delay
        if delay == 0.0:
            env._immediate.append((env._now, next(env._event_counter), self))
            env.immediate_scheduled += 1
        else:
            heapq.heappush(
                env._queue, (env._now + delay, next(env._event_counter), self)
            )


class Process(Event):
    """A process: a generator driven by the events it yields.

    The process itself is an event that fires when the generator finishes,
    with the generator's return value.  Other processes may therefore wait
    for a process by yielding it.  A process is resumed only by the event
    it yielded, and finishes only by returning or raising.
    """

    __slots__ = ("_generator", "_send", "_throw", "_waiting_on", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        # Unread, but it orders how a dropped cluster's suspended processes
        # are collected: without it a ReplicaProxy._execute finalizer raises
        # "generator already executing" (test_overload_cluster.py; D21).
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off via a (pooled) initialisation event.
        env._wakeup(self._resume).succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def _resume(self, event: Event) -> None:
        # The wake-up path, 10^5 times per run, is this one Python frame.
        self._waiting_on = None
        env = self.env
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits: an event with no callback orders nothing.
                self._value = stop.value
                self._state = _PROCESSED
                self.callbacks = None
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return

        if not isinstance(target, Event):
            message = (
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances"
            )
            self._generator.close()
            self.fail(SimulationError(message))
            return
        if target.env is not env:
            self._generator.close()
            self.fail(SimulationError("yielded event belongs to another environment"))
            return
        if target.callbacks is None:
            # Already processed: resume immediately with its value.
            env._wakeup(self._resume).trigger(target)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class AnyOf(Event):
    """Fires as soon as any constituent event fires (the one composite wait).

    Its value maps each fired constituent to its value (``{}`` when empty);
    a constituent that fails first fails it.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        # Fired = processed (a Timeout is born triggered), or ``event``
        # itself, whose processed flag flips after this callback.
        self.succeed({
            other: other._value
            for other in self._events
            if other._ok and (other._state == _PROCESSED or other is event)
        })


class _Wakeup(Event):
    """A pooled single-callback event used for internal process wakeups.

    These events (process kick-off, immediate resume on an already-processed
    target) are created by the kernel itself, carry exactly one callback,
    and are referenced by nothing once their callback has run — so
    :class:`Environment` recycles them through a free list instead of
    allocating a fresh :class:`Event` per wakeup.
    """

    __slots__ = ()


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5.0 and proc.value == "done"

    Two queues back the clock: a heap for events scheduled with a positive
    delay and a FIFO for zero-delay events.  Zero-delay scheduling (every
    ``succeed``/``fail``, store hand-offs, resource grants) dominates event
    traffic, and because the tie-break counter is monotonic the FIFO is
    always sorted by ``(time, counter)`` — so popping the smaller of the two
    heads reproduces the pure-heap firing order exactly while replacing most
    O(log n) heap traffic with O(1) appends.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        #: zero-delay events, already sorted by (time, counter) by
        #: construction; popped in merge order with the heap
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._event_counter = itertools.count()
        #: recycled internal wakeup events (see :class:`_Wakeup`)
        self._wakeup_pool: list[_Wakeup] = []
        #: events processed by :meth:`step` (profiler events/sec)
        self.events_processed = 0
        #: zero-delay schedules that took the FIFO fast path
        self.immediate_scheduled = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def metrics(self) -> dict:
        """Kernel counters for the cluster's metrics registry
        (``kernel.events_processed``, ``kernel.immediate_scheduled``, …)."""
        return {
            "now_ms": self._now,
            "events_processed": self.events_processed,
            "immediate_scheduled": self.immediate_scheduled,
            "queue_depth": len(self._queue) + len(self._immediate),
        }

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            self._immediate.append((self._now, next(self._event_counter), event))
            self.immediate_scheduled += 1
        else:
            heapq.heappush(
                self._queue, (self._now + delay, next(self._event_counter), event)
            )

    def _wakeup(self, callback: Callable[[Event], None]) -> _Wakeup:
        """A pooled pending single-callback event (kernel internal)."""
        pool = self._wakeup_pool
        if pool:
            event = pool.pop()
            event._state = _PENDING
            event._ok = True
            event._value = None
            event.callbacks = [callback]
        else:
            event = _Wakeup(self)
            event.callbacks.append(callback)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._immediate:
            when = self._immediate[0][0]
            if self._queue and self._queue[0][0] < when:
                return self._queue[0][0]
            return when
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock."""
        immediate = self._immediate
        queue = self._queue
        # Merge-pop: the FIFO is sorted by (time, counter), so comparing the
        # two heads preserves the exact global firing order.  Counters are
        # unique, so the tuple comparison never reaches the Event element.
        if immediate:
            if queue and queue[0] < immediate[0]:
                when, _tie, event = heapq.heappop(queue)
            else:
                when, _tie, event = immediate.popleft()
        elif queue:
            when, _tie, event = heapq.heappop(queue)
        else:
            raise SimulationError("no scheduled events to step")
        self._now = when
        self.events_processed += 1
        # Inlined _run_callbacks with a single-callback fast path: almost
        # every event carries exactly one callback (a process resume).
        callbacks = event.callbacks
        event.callbacks = None
        event._state = _PROCESSED
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
        if type(event) is _Wakeup:
            self._wakeup_pool.append(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until no events remain, or until virtual time ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the next event lies beyond it.
        """
        if until is not None and not until >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self._now}"
            )
        # Inlined merge-pop loop: one bound check and one dispatch per
        # event, no per-event step()/peek() calls.  FIFO entries are always
        # scheduled at the current clock, so only heap heads can exceed the
        # bound.  Trace-equivalent to calling step() in a loop.
        bound = float("inf") if until is None else float(until)
        immediate = self._immediate
        queue = self._queue
        pool = self._wakeup_pool
        heappop = heapq.heappop
        processed = 0
        try:
            while True:
                if immediate:
                    if queue and queue[0] < immediate[0]:
                        if queue[0][0] > bound:
                            break
                        when, _tie, event = heappop(queue)
                    else:
                        when, _tie, event = immediate.popleft()
                elif queue:
                    if queue[0][0] > bound:
                        break
                    when, _tie, event = heappop(queue)
                else:
                    break
                self._now = when
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                if type(event) is _Wakeup:
                    pool.append(event)
        finally:
            self.events_processed += processed
        if until is not None:
            self._now = float(until)

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` fires; return its value (raise on failure).

        Used by the synchronous client facade: schedule a request, then drive
        the simulation until the response event fires.  ``limit`` bounds the
        virtual time spent waiting.
        """
        while not event.triggered or not event.processed:
            if not (self._immediate or self._queue):
                raise SimulationError("event will never fire: queue is empty")
            if self.peek() > limit:
                raise SimulationError(f"event did not fire before t={limit}")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
