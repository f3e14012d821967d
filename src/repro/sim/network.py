"""Network model: latency-delayed message delivery between components.

The paper's testbed interconnects all machines with a Gigabit Ethernet
switch; round-trip latencies are sub-millisecond and message sizes are small
(writesets, version tags).  We model the network as a full mesh of
point-to-point links, each applying a base latency plus uniform jitter per
message.  Bandwidth is not modelled — at the paper's message sizes the
propagation term dominates, and the paper's own bottlenecks are CPU-side
(applying refresh writesets), not the wire.

Endpoints come in two kinds (:class:`Mailbox`): the middleware components
register a *handler* and have each message delivered to it — no process
polls for it — while clients and the synchronous session *pull* their
replies with ``receive()``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .kernel import Environment, Event, SimulationError, _TRIGGERED
from .resources import Store
from .rng import Rng

__all__ = ["LatencyModel", "Mailbox", "Network"]


class _Delivery(Event):
    """A pooled in-flight message: one scheduled event per send.

    Replaces the per-message ``Timeout`` plus delivery closure: the event
    carries (sender, recipient, message) in slots and dispatches through one
    persistent single-element callback list bound to the owning network.
    After delivery the event is reset and returned to the network's free
    list, so steady-state message traffic allocates no kernel objects.
    """

    __slots__ = ("sender", "recipient", "message", "_cblist")

    def __init__(self, network: "Network"):
        super().__init__(network.env)
        self.sender = ""
        self.recipient = ""
        self.message: Any = None
        self._cblist = [network._deliver]
        self.callbacks = self._cblist


@dataclass(frozen=True)
class LatencyModel:
    """One-way message latency: ``base + U(0, jitter)`` milliseconds, both
    terms finite and >= 0 (``Network.send`` bypasses the kernel's checks)."""

    base: float = 0.1
    jitter: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.base < float("inf") or not 0.0 <= self.jitter < float("inf"):
            raise ValueError(f"latency base and jitter must be finite and >= 0: {self}")

    def sample(self, rng: Rng) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


class Mailbox:
    """A named message endpoint: messages are delivered to its handler, or
    wait to be received.

    A **handler** endpoint gets ``handler(message)`` called on arrival, one
    message at a time in arrival order — the middleware components, which
    never wait between two messages.  A handler may return a generator of
    events (work that takes virtual time: the one-shard certifier deciding
    a request); the endpoint is then *busy* until it finishes and arrivals
    wait in the inbox.  Whatever a handler or its generator raises surfaces
    from :meth:`Environment.run`.

    A **pull** endpoint (no handler) parks messages in a :class:`Store`
    until its consumer asks with :meth:`receive` — for consumers that wait
    for *their own* reply in the middle of other work (clients, sessions).

    ``len(mailbox)`` counts the messages waiting: behind the one in hand on
    a handler endpoint, not yet fetched on a pull endpoint.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        handler: Optional[Callable[[Any], Any]] = None,
    ):
        self.env = env
        self.name = name
        self.delivered_count = 0
        self._handler = handler
        self._store = Store(env) if handler is None else None
        #: handler endpoint: arrivals waiting behind the message in hand
        self._inbox: deque = deque()
        #: a message is in hand: its hand-off is queued, or the generator
        #: its handler returned (``_work``) is running
        self._busy = False
        self._work: Any = None

    def deliver(self, message: Any) -> None:
        """Hand an arriving message to the endpoint (called by the network).

        The order rule (DESIGN.md D11), the same for a handler, for a
        consumer parked in :meth:`receive` and for the message behind the one
        in hand (:meth:`_next`): the consumer runs where a process woken by
        the arrival would have — after everything already due at this
        instant.  With nothing due that is right here; otherwise one wake-up
        carries the message behind what is queued.
        """
        self.delivered_count += 1
        env = self.env
        queue = env._queue
        due = env._immediate or (queue and queue[0][0] <= env._now)
        handler = self._handler
        if handler is None:
            getters = self._store._getters
            if due or not getters:
                self._store.put(message)
            else:
                getter = getters.popleft()
                getter._value = message
                getter._run_callbacks()
        elif self._busy:
            self._inbox.append(message)
        elif due:
            self._busy = True
            env._wakeup(self._handle_deferred).succeed(message)
        else:
            work = handler(message)
            if work is not None:
                self._busy = True
                self._work = work
                self._advance(None)

    def _handle_deferred(self, event: Event) -> None:
        work = self._handler(event._value)
        self._work = self._next() if work is None else work
        self._advance(None)

    def _next(self) -> Any:
        """The message in hand is done: hand off what waits behind it, by
        :meth:`deliver`'s rule.  Returns the generator to drive next, when a
        message handled here returned one."""
        env = self.env
        inbox = self._inbox
        while inbox:
            queue = env._queue
            if env._immediate or (queue and queue[0][0] <= env._now):
                env._wakeup(self._handle_deferred).succeed(inbox.popleft())
                return None
            work = self._handler(inbox.popleft())
            if work is not None:
                return work
        self._busy = False
        return None

    def _advance(self, event: Optional[Event]) -> None:
        """Drive the generator a handler returned.  Not a :class:`Process`:
        that starts one kick-off event after the message and ends one
        completion event before :meth:`_next` — hops a polling loop's
        ``yield from`` never had."""
        work = self._work
        while work is not None:
            try:
                if event is None:
                    target = work.send(None)
                elif event._ok:
                    target = work.send(event._value)
                else:
                    target = work.throw(event._value)
            except StopIteration:
                event = None
                work = self._work = self._next()
                continue
            if target.callbacks is None:
                # Already processed: resume behind what is queued, as a process would.
                self.env._wakeup(self._advance).trigger(target)
            else:
                target.callbacks.append(self._advance)
            return

    def receive(self):
        """Event that fires with the next message (pull endpoints only)."""
        if self._store is None:
            raise SimulationError(
                f"endpoint {self.name!r} has a handler; its messages are "
                "delivered, not received"
            )
        return self._store.get()

    def __len__(self) -> int:
        return len(self._inbox) if self._store is None else len(self._store)

    def close(self) -> None:
        """Close the generator in hand and drop every waiting message and
        consumer (a closed cluster's endpoint)."""
        work, self._work = self._work, None
        if work is not None:
            work.close()
        self._busy = False
        self._inbox.clear()
        if self._store is not None:
            self._store = Store(self.env)


@dataclass
class _Partition:
    """Endpoints currently crashed, plus directed links currently cut."""

    down: set = field(default_factory=set)
    #: directed links ``(sender, recipient)`` whose messages are dropped
    links: set = field(default_factory=set)


class Network:
    """Full-mesh message fabric connecting named endpoints.

    Components register a :class:`Mailbox` under a unique name and send
    messages with :meth:`send`; delivery happens after a sampled latency.
    Two fault models compose:

    * **endpoint down** (crash-recovery): inbound messages to a down
      endpoint are dropped; messages *from* a down endpoint are refused at
      the call site by the component itself.
    * **link partition**: a directed link ``sender → recipient`` can be cut
      independently of the reverse direction (asymmetric partitions);
      messages on a cut link are dropped, including messages already in
      flight when the link is cut.

    In both cases senders learn of the failure only through timeouts at a
    higher layer, as in the failure model the paper assumes.
    """

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        latency: Optional[LatencyModel] = None,
        duplicate_prob: float = 0.0,
        reorder_prob: float = 0.0,
        fault_rng: Optional[Rng] = None,
    ):
        if not 0.0 <= duplicate_prob <= 1.0:
            raise ValueError("duplicate_prob must be in [0, 1]")
        if not 0.0 <= reorder_prob <= 1.0:
            raise ValueError("reorder_prob must be in [0, 1]")
        self.env = env
        self.rng = rng
        #: the latency stream's raw ``random()`` (see :meth:`send`)
        self._random = rng._random.random
        self.latency = latency or LatencyModel()
        self._mailboxes: dict[str, Mailbox] = {}
        self._partition = _Partition()
        self.sent_count = 0
        self.dropped_count = 0
        #: drops broken down by cause: "endpoint-down" (recipient crashed),
        #: "link-cut" (directed partition), "overload-shed" (admission
        #: control refused the request before it entered the system)
        self.dropped_by_reason: dict[str, int] = {}
        #: seeded delivery faults (both default off, drawing zero random
        #: numbers then): probability a message is delivered twice, and
        #: probability it is held back so later sends overtake it
        self.duplicate_prob = duplicate_prob
        self.reorder_prob = reorder_prob
        #: dedicated stream for the fault draws (falls back to the latency
        #: rng) so enabling faults perturbs latency sampling minimally
        self.fault_rng = fault_rng
        self.injected_count = 0
        #: injected delivery faults by kind ("duplicate", "reorder") —
        #: mirrors ``dropped_by_reason`` so audits read one breakdown shape
        self.injected_by_reason: dict[str, int] = {}
        self._taps: list[Callable[[str, str, Any], None]] = []
        #: recycled in-flight delivery events (see :class:`_Delivery`)
        self._delivery_pool: list[_Delivery] = []

    # -- endpoints ---------------------------------------------------------
    def register(
        self, name: str, handler: Optional[Callable[[Any], Any]] = None
    ) -> Mailbox:
        """Create and return the mailbox for endpoint ``name``: a handler
        endpoint when ``handler`` is given, a pull endpoint otherwise (see
        :class:`Mailbox`)."""
        if name in self._mailboxes:
            raise ValueError(f"endpoint {name!r} already registered")
        mailbox = Mailbox(self.env, name, handler)
        self._mailboxes[name] = mailbox
        return mailbox

    def mailbox(self, name: str) -> Mailbox:
        """Look up an existing endpoint's mailbox."""
        return self._mailboxes[name]

    # -- fault injection -----------------------------------------------------
    def take_down(self, name: str) -> None:
        """Mark an endpoint as crashed: its inbound messages are dropped."""
        self._partition.down.add(name)

    def bring_up(self, name: str) -> None:
        """Mark a crashed endpoint as recovered."""
        self._partition.down.discard(name)

    def is_down(self, name: str) -> bool:
        return name in self._partition.down

    def partition_link(self, sender: str, recipient: str, symmetric: bool = False) -> None:
        """Cut the directed link ``sender → recipient`` (and the reverse
        direction too when ``symmetric``)."""
        self._partition.links.add((sender, recipient))
        if symmetric:
            self._partition.links.add((recipient, sender))

    def heal_link(self, sender: str, recipient: str, symmetric: bool = False) -> None:
        """Restore a previously cut link."""
        self._partition.links.discard((sender, recipient))
        if symmetric:
            self._partition.links.discard((recipient, sender))

    def heal_all_links(self) -> None:
        """Restore every cut link."""
        self._partition.links.clear()

    @property
    def partitioned_links(self) -> frozenset:
        """Snapshot of the currently cut directed links."""
        return frozenset(self._partition.links)

    # -- observation ---------------------------------------------------------
    def add_tap(self, tap: Callable[[str, str, Any], None]) -> None:
        """Register an observer called as ``tap(sender, recipient, message)``
        for every message handed to :meth:`send` (useful in tests)."""
        self._taps.append(tap)

    def record_drop(self, reason: str) -> None:
        """Account one dropped message under ``reason``.

        Used internally for partition/crash drops and by higher layers that
        kill a request before it travels (the balancer's overload shedding),
        so audits can assert *why* messages died from one counter."""
        self.dropped_count += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def record_injection(self, reason: str) -> None:
        """Account one injected delivery fault under ``reason``."""
        self.injected_count += 1
        self.injected_by_reason[reason] = self.injected_by_reason.get(reason, 0) + 1

    def metrics(self) -> dict:
        """Fabric counters for the cluster's metrics registry
        (``network.sent``, ``network.dropped_by_reason.*``, …)."""
        return {
            "sent": self.sent_count,
            "dropped": self.dropped_count,
            "dropped_by_reason": dict(self.dropped_by_reason),
            "injected": self.injected_count,
            "injected_by_reason": dict(self.injected_by_reason),
        }

    def close(self) -> None:
        """Close every endpoint (:meth:`Mailbox.close`) and drop the pooled
        deliveries.  The endpoints stay registered, so a ``finally`` block
        run later by :meth:`Environment.close` can still send; the
        environment drops what it sends."""
        for mailbox in self._mailboxes.values():
            mailbox.close()
        self._delivery_pool.clear()

    # -- transmission ---------------------------------------------------------
    def send(self, sender: str, recipient: str, message: Any) -> None:
        """Send ``message`` to ``recipient``; delivery after sampled latency.

        Messages to a crashed endpoint are dropped (the sender learns of the
        failure through timeouts at a higher layer, as in the crash-recovery
        model the paper assumes).
        """
        if recipient not in self._mailboxes:
            raise KeyError(f"unknown endpoint {recipient!r}")
        if self._taps:
            for tap in self._taps:
                tap(sender, recipient, message)
        self.sent_count += 1
        partition = self._partition
        if (partition.down or partition.links) and self._dropped(sender, recipient):
            return
        # LatencyModel.sample written out (three frames fewer per message):
        # random.uniform(0.0, jitter) is ``0.0 + (jitter - 0.0) * random()``,
        # so the draws are bit-identical — tests/sim/test_network.py pins it.
        latency = self.latency
        delay = latency.base
        if latency.jitter > 0:
            delay += 0.0 + (latency.jitter - 0.0) * self._random()
        delays = (delay,)
        if self.duplicate_prob > 0.0 or self.reorder_prob > 0.0:
            delays = self._inject_delivery_faults(delay)
        env = self.env
        pool = self._delivery_pool
        for delay in delays:
            event = pool.pop() if pool else _Delivery(self)
            event.sender = sender
            event.recipient = recipient
            event.message = message
            event._state = _TRIGGERED
            # Inlined Environment._schedule (latency is almost always > 0).
            if delay == 0.0:
                env._immediate.append((env._now, next(env._event_counter), event))
                env.immediate_scheduled += 1
            else:
                heapq.heappush(
                    env._queue, (env._now + delay, next(env._event_counter), event)
                )

    def _inject_delivery_faults(self, delay: float) -> tuple:
        """Seeded delivery faults: the delays to deliver a message after —
        maybe a duplicate copy first, maybe the original held back so later
        sends overtake it.  Draws happen only for enabled faults — with both
        knobs at 0 this method is never reached and the delivery schedule is
        untouched."""
        rng = self.fault_rng if self.fault_rng is not None else self.rng
        duplicate = ()
        if self.duplicate_prob > 0.0 and rng.random() < self.duplicate_prob:
            self.record_injection("duplicate")
            # The copy takes its own (longer) path: original delay plus a
            # fresh latency sample, so both copies arrive.
            duplicate = (delay + self.latency.sample(rng),)
        if self.reorder_prob > 0.0 and rng.random() < self.reorder_prob:
            self.record_injection("reorder")
            # Hold the message back several latencies: messages sent after
            # it will (with high probability) be delivered before it.
            delay += 3.0 * (self.latency.base + self.latency.jitter)
        return (*duplicate, delay)

    def _deliver(self, event: _Delivery) -> None:
        """Delivery-time dispatch for an in-flight message event."""
        sender, recipient, message = event.sender, event.recipient, event.message
        # Reset and recycle before dispatching: the mailbox hand-off may
        # synchronously trigger another send that can then reuse the event.
        event.message = None
        event.callbacks = event._cblist
        self._delivery_pool.append(event)
        # Re-check at delivery time: the endpoint may have crashed, or the
        # link been cut, while the message was in flight.
        partition = self._partition
        if (partition.down or partition.links) and self._dropped(sender, recipient):
            return
        self._mailboxes[recipient].deliver(message)

    def _dropped(self, sender: str, recipient: str) -> bool:
        """Drop (and account) a message whose recipient is down or whose
        link is cut.  Callers test the two sets for emptiness first, so a
        fault-free network never builds the link tuple."""
        if recipient in self._partition.down:
            self.record_drop("endpoint-down")
            return True
        if (sender, recipient) in self._partition.links:
            self.record_drop("link-cut")
            return True
        return False
