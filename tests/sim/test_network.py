"""Tests for the network fabric."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, LatencyModel, Network, RngRegistry, SimulationError
from repro.sim.rng import Rng


@pytest.fixture
def net(env):
    rng = RngRegistry(9).stream("net")
    return Network(env, rng, LatencyModel(base=1.0, jitter=0.0))


def receive_one(env, mailbox):
    def proc(env):
        message = yield mailbox.receive()
        return (env.now, message)

    return env.process(proc(env))


class TestRegistration:
    def test_register_returns_mailbox(self, env, net):
        mailbox = net.register("a")
        assert mailbox.name == "a"
        assert len(mailbox) == 0

    def test_duplicate_registration_rejected(self, env, net):
        net.register("a")
        with pytest.raises(ValueError):
            net.register("a")

    def test_mailbox_lookup(self, env, net):
        created = net.register("a")
        assert net.mailbox("a") is created

    def test_send_to_unknown_endpoint_rejected(self, env, net):
        with pytest.raises(KeyError):
            net.send("x", "nowhere", "msg")


class TestDelivery:
    def test_message_arrives_after_latency(self, env, net):
        mailbox = net.register("a")
        net.send("src", "a", "hello")
        p = receive_one(env, mailbox)
        env.run()
        assert p.value == (1.0, "hello")

    def test_messages_preserve_send_order_same_link(self, env, net):
        mailbox = net.register("a")
        for i in range(3):
            net.send("src", "a", i)
        received = []

        def consumer(env):
            for _ in range(3):
                message = yield mailbox.receive()
                received.append(message)

        env.process(consumer(env))
        env.run()
        assert received == [0, 1, 2]

    def test_jitter_varies_latency(self, env):
        rng = RngRegistry(9).stream("jitter")
        net = Network(env, rng, LatencyModel(base=1.0, jitter=5.0))
        mailbox = net.register("a")
        arrivals = []

        def consumer(env):
            while True:
                yield mailbox.receive()
                arrivals.append(env.now)

        env.process(consumer(env))
        for _ in range(10):
            net.send("src", "a", "m")
        env.run(until=100.0)
        assert len(arrivals) == 10
        assert all(1.0 <= t <= 6.0 for t in arrivals)
        assert len(set(arrivals)) > 1

    def test_sent_count(self, env, net):
        net.register("a")
        net.send("x", "a", 1)
        net.send("x", "a", 2)
        assert net.sent_count == 2

    def test_delivered_count_on_mailbox(self, env, net):
        mailbox = net.register("a")
        net.send("x", "a", 1)
        env.run()
        assert mailbox.delivered_count == 1


class TestFaults:
    def test_messages_to_down_endpoint_dropped(self, env, net):
        mailbox = net.register("a")
        net.take_down("a")
        net.send("x", "a", "lost")
        env.run()
        assert len(mailbox) == 0
        assert net.dropped_count == 1

    def test_in_flight_message_dropped_on_crash(self, env, net):
        mailbox = net.register("a")
        net.send("x", "a", "in-flight")
        net.take_down("a")  # crash before delivery
        env.run()
        assert len(mailbox) == 0
        assert net.dropped_count == 1

    def test_bring_up_resumes_delivery(self, env, net):
        mailbox = net.register("a")
        net.take_down("a")
        net.send("x", "a", "lost")
        net.bring_up("a")
        net.send("x", "a", "delivered")
        env.run()
        assert len(mailbox) == 1

    def test_is_down(self, env, net):
        net.register("a")
        assert not net.is_down("a")
        net.take_down("a")
        assert net.is_down("a")


class TestTaps:
    def test_tap_observes_all_sends(self, env, net):
        net.register("a")
        seen = []
        net.add_tap(lambda s, r, m: seen.append((s, r, m)))
        net.send("x", "a", "m1")
        net.send("y", "a", "m2")
        assert seen == [("x", "a", "m1"), ("y", "a", "m2")]

    def test_tap_sees_dropped_messages_too(self, env, net):
        net.register("a")
        seen = []
        net.add_tap(lambda s, r, m: seen.append(m))
        net.take_down("a")
        net.send("x", "a", "m")
        assert seen == ["m"]


class TestDropReasons:
    def test_send_to_down_endpoint(self, env, net):
        net.register("a")
        net.take_down("a")
        net.send("src", "a", "m")
        env.run()
        assert net.dropped_count == 1
        assert net.dropped_by_reason == {"endpoint-down": 1}

    def test_send_over_cut_link(self, env, net):
        net.register("a")
        net.partition_link("src", "a")
        net.send("src", "a", "m")
        env.run()
        assert net.dropped_by_reason == {"link-cut": 1}

    def test_in_flight_crash_is_endpoint_down(self, env, net):
        net.register("a")
        net.send("src", "a", "m")
        net.take_down("a")
        env.run()
        assert net.dropped_by_reason == {"endpoint-down": 1}

    def test_in_flight_cut_is_link_cut(self, env, net):
        net.register("a")
        net.send("src", "a", "m")
        net.partition_link("src", "a")
        env.run()
        assert net.dropped_by_reason == {"link-cut": 1}

    def test_record_drop_accumulates_custom_reason(self, env, net):
        net.record_drop("overload-shed")
        net.record_drop("overload-shed")
        assert net.dropped_count == 2
        assert net.dropped_by_reason == {"overload-shed": 2}

    def test_reasons_sum_to_dropped_count(self, env, net):
        net.register("a")
        net.take_down("a")
        net.send("src", "a", "m")
        net.bring_up("a")
        net.partition_link("src", "a")
        net.send("src", "a", "m")
        net.record_drop("overload-shed")
        env.run()
        assert sum(net.dropped_by_reason.values()) == net.dropped_count == 3


class TestDeliveryFaults:
    """Seeded duplicate/reorder injection (both knobs default off and then
    draw zero random numbers — the golden-trace test proves neutrality)."""

    def make_net(self, env, **kwargs):
        rngs = RngRegistry(5)
        return Network(
            env, rngs.stream("net"), LatencyModel(base=1.0, jitter=0.0),
            fault_rng=rngs.stream("net:faults"), **kwargs,
        )

    def test_probabilities_validated(self, env):
        rng = RngRegistry(5).stream("net")
        with pytest.raises(ValueError):
            Network(env, rng, duplicate_prob=1.5)
        with pytest.raises(ValueError):
            Network(env, rng, reorder_prob=-0.1)

    def test_duplicate_delivers_message_twice(self, env):
        net = self.make_net(env, duplicate_prob=1.0)
        mailbox = net.register("a")
        net.send("src", "a", "hello")
        env.run()
        assert mailbox.delivered_count == 2
        assert net.injected_by_reason == {"duplicate": 1}
        assert net.sent_count == 1  # one logical send, two deliveries

    def test_reorder_lets_later_send_overtake(self, env):
        net = self.make_net(env, reorder_prob=1.0)
        mailbox = net.register("a")

        arrivals = []

        def consume(env):
            while True:
                message = yield mailbox.receive()
                arrivals.append((env.now, message))

        env.process(consume(env))
        net.reorder_prob = 1.0
        net.send("src", "a", "first")
        net.reorder_prob = 0.0
        net.send("src", "a", "second")
        env.run()
        assert [m for _t, m in arrivals] == ["second", "first"]
        assert net.injected_by_reason == {"reorder": 1}

    def test_off_by_default_draws_nothing(self, env):
        net = self.make_net(env)
        mailbox = net.register("a")
        net.send("src", "a", "hello")
        env.run()
        assert mailbox.delivered_count == 1
        assert net.injected_count == 0
        # The dedicated fault stream was never consumed: its next draw
        # equals a fresh stream's first draw.
        fresh = RngRegistry(5).stream("net:faults")
        assert net.fault_rng.random() == fresh.random()

    def test_duplicates_still_dropped_by_partitions(self, env):
        net = self.make_net(env, duplicate_prob=1.0)
        net.register("a")
        net.partition_link("src", "a")
        net.send("src", "a", "hello")
        env.run()
        assert net.dropped_by_reason == {"link-cut": 1}
        assert net.injected_count == 0  # dropped before the fault draw


class TestHandlerEndpoints:
    """An endpoint registered with a handler has its messages delivered to
    it.  The order rule: the handler runs where a consumer process woken by
    the arrival would have run — in place when nothing else is due at that
    instant, otherwise behind everything that already is."""

    def test_handler_runs_at_the_delivery_instant_with_no_extra_event(self, env, net):
        seen = []
        net.register("a", lambda message: seen.append((env.now, message)))
        net.send("src", "a", "hello")
        env.run()
        assert seen == [(1.0, "hello")]
        assert env.events_processed == 1  # the delivery itself, no wake-up

    def test_deferred_behind_a_timer_due_at_the_same_instant(self, env, net):
        log = []
        net.register("a", log.append)
        net.send("src", "a", "message")  # arrives at t=1.0, scheduled first
        env.timeout(1.0).callbacks.append(lambda _e: log.append("timer"))
        env.run()
        assert log == ["timer", "message"]

    def test_deferred_behind_queued_zero_delay_events(self, env):
        net = Network(env, RngRegistry(9).stream("net"), LatencyModel(0.0, 0.0))
        log = []
        net.register("a", log.append)
        net.send("src", "a", "message")
        env.event().succeed().callbacks.append(lambda _e: log.append("immediate"))
        env.run()
        assert log == ["immediate", "message"]

    def test_same_instant_messages_are_fifo_around_what_the_first_spawns(self, env, net):
        """The case in-place dispatch alone gets wrong: the second message
        is handled after the zero-delay event the first handler scheduled,
        exactly as a loop's next ``receive()`` would have queued it."""
        log = []

        def handler(message):
            log.append(message)
            env.event().succeed().callbacks.append(
                lambda _e: log.append(f"spawned by {message}")
            )

        net.register("a", handler)
        net.send("src", "a", "first")
        net.send("src", "a", "second")
        env.run()
        assert log == ["first", "spawned by first", "second", "spawned by second"]

    def test_matches_a_polling_consumer_on_same_instant_fan_in(self):
        """Same sends to a handler endpoint and to a polled one: same order
        of effects, fewer kernel events."""
        def run_once(polled):
            env = Environment()
            network = Network(env, RngRegistry(9).stream("net"), LatencyModel(1.0, 0.0))
            log = []

            def handle(message):
                log.append((env.now, message))
                if message < 3:
                    network.send("a", "b", message + 10)

            if polled:
                mailbox = network.register("a")

                def loop():
                    while True:
                        handle((yield mailbox.receive()))

                env.process(loop())
            else:
                network.register("a", handle)
            network.register("b", lambda message: log.append((env.now, message)))
            for i in range(5):
                network.send("src", "a", i)
            env.timeout(1.0).callbacks.append(lambda _e: log.append("timer"))
            env.run()
            return log, env.events_processed

        delivered, delivered_events = run_once(polled=False)
        polled, polled_events = run_once(polled=True)
        assert delivered == polled
        assert delivered_events < polled_events

    def test_busy_while_a_returned_generator_runs(self, env, net):
        log = []

        def handler(message):
            if message == "slow":
                return work()
            log.append((env.now, message, len(mailbox)))
            return None

        def work():
            log.append((env.now, "slow starts", len(mailbox)))
            yield env.timeout(5.0)
            log.append((env.now, "slow ends", len(mailbox)))

        mailbox = net.register("a", handler)
        net.send("src", "a", "slow")  # t=1
        env.run(until=2.0)
        net.send("src", "a", "x")  # t=3, waits
        net.send("src", "a", "y")  # t=3, waits behind x
        env.run(until=4.0)
        assert len(mailbox) == 2
        env.run()
        assert log == [
            (1.0, "slow starts", 0),
            (6.0, "slow ends", 2),
            (6.0, "x", 1),
            (6.0, "y", 0),
        ]
        assert mailbox.delivered_count == 3

    def test_generator_that_never_yields_leaves_the_endpoint_idle(self, env, net):
        log = []

        def handler(message):
            def work():
                log.append(message)
                return
                yield

            return work()

        mailbox = net.register("a", handler)
        net.send("src", "a", 1)
        net.send("src", "a", 2)
        env.run()
        assert log == [1, 2] and len(mailbox) == 0

    def test_a_raising_handler_surfaces_from_run(self, env, net):
        def handler(message):
            raise TypeError(f"a got unexpected message {message!r}")

        net.register("a", handler)
        net.send("src", "a", "bogus")
        with pytest.raises(TypeError, match="a got unexpected"):
            env.run()

    def test_a_raising_handler_generator_surfaces_from_run(self, env, net):
        def handler(message):
            yield env.timeout(1.0)
            raise RuntimeError("mid-work failure")

        net.register("a", handler)
        net.send("src", "a", "m")
        with pytest.raises(RuntimeError, match="mid-work failure"):
            env.run()
        assert env.now == 2.0

    def test_receive_on_a_handler_endpoint_is_an_error(self, env, net):
        mailbox = net.register("a", lambda message: None)
        with pytest.raises(SimulationError, match="has a handler"):
            mailbox.receive()

    def test_crash_and_link_cut_drop_before_the_handler(self, env, net):
        seen = []
        net.register("a", seen.append)
        net.take_down("a")
        net.send("src", "a", "to a down endpoint")
        net.bring_up("a")
        net.send("src", "a", "crashes in flight")
        net.take_down("a")
        env.run()
        net.bring_up("a")
        net.partition_link("src", "a")
        net.send("src", "a", "over a cut link")
        net.heal_all_links()
        net.send("src", "a", "cut in flight")
        net.partition_link("src", "a")
        env.run()
        assert seen == []
        assert net.dropped_by_reason == {"endpoint-down": 2, "link-cut": 2}


class TestHandOffsBehindTheMessageInHand:
    """``Mailbox._next`` — the message in hand is done and another waits —
    follows ``deliver``'s rule: in place when nothing else is due at this
    instant, otherwise one wake-up behind what is."""

    @staticmethod
    def slow_then_log(env, log, hold=5.0):
        def handler(message):
            if message == "slow":
                return work()
            log.append((env.now, message))
            return None

        def work():
            yield env.timeout(hold)
            log.append((env.now, "slow ends"))

        return handler

    def test_in_place_when_the_generator_ends_with_nothing_due(self, env, net):
        log = []
        net.register("a", self.slow_then_log(env, log))
        net.send("src", "a", "slow")  # t=1.0, alone: handled in place
        env.run(until=2.0)
        net.send("src", "a", "x")
        net.send("src", "a", "y")
        env.run()
        assert log == [(6.0, "slow ends"), (6.0, "x"), (6.0, "y")]
        assert env.events_processed == 4  # three deliveries and the hold

    def test_deferred_behind_what_is_due_when_the_generator_ends(self, env, net):
        log = []
        net.register("a", self.slow_then_log(env, log))
        net.send("src", "a", "slow")
        env.run(until=2.0)
        net.send("src", "a", "x")
        net.send("src", "a", "y")
        env.run(until=3.0)
        # due at t=6.0 like the end of the hold, but scheduled after it
        env.timeout(3.0).callbacks.append(lambda _e: log.append((env.now, "timer")))
        env.run()
        assert log == [(6.0, "slow ends"), (6.0, "timer"), (6.0, "x"), (6.0, "y")]
        # deliveries, hold, timer, one wake-up for x; y follows x in place
        assert env.events_processed == 3 + 1 + 1 + 1

    def test_in_place_after_a_deferred_message_that_spawned_nothing(self, env, net):
        log = []
        net.register("a", log.append)
        net.send("src", "a", "first")  # deferred: the second delivery is due
        net.send("src", "a", "second")  # waits in the inbox behind it
        env.run()
        assert log == ["first", "second"]
        assert env.events_processed == 3  # two deliveries, one wake-up

    def test_a_long_backlog_of_generators_that_never_yield(self, env, net):
        """Refusals under backpressure return without waiting: the backlog
        behind a slow message drains in one step, iteratively."""
        log = []

        def handler(message):
            return work(message)

        def work(message):
            if message == "slow":
                yield env.timeout(5.0)
            log.append(message)

        mailbox = net.register("a", handler)
        net.send("src", "a", "slow")
        for i in range(5_000):
            net.send("src", "a", i)
        env.run()
        assert log == ["slow", *range(5_000)]
        assert len(mailbox) == 0 and not mailbox._busy


class TestPullHandOff:
    """A reply for a consumer already parked in ``receive()`` resumes it by
    the same rule; with nobody parked the message waits in the store."""

    @staticmethod
    def consumer(env, mailbox, log, spawn=False):
        def loop():
            while True:
                message = yield mailbox.receive()
                log.append((env.now, message))
                if spawn:
                    env.event().succeed().callbacks.append(
                        lambda _e, m=message: log.append((env.now, f"spawned by {m}"))
                    )

        return env.process(loop())

    def test_parked_consumer_resumes_in_place(self, env, net):
        log = []
        mailbox = net.register("a")
        self.consumer(env, mailbox, log)
        net.send("src", "a", "reply")
        env.run()
        assert log == [(1.0, "reply")]
        assert env.events_processed == 2  # kick-off and the delivery

    def test_message_waits_for_a_consumer_that_is_not_parked(self, env, net):
        log = []
        mailbox = net.register("a")
        net.send("src", "a", "early")
        env.run()
        assert len(mailbox) == 1
        self.consumer(env, mailbox, log)
        env.run()
        assert log == [(1.0, "early")] and len(mailbox) == 0

    def test_deferred_behind_a_timer_due_at_the_same_instant(self, env, net):
        log = []
        mailbox = net.register("a")
        self.consumer(env, mailbox, log)
        net.send("src", "a", "reply")
        env.timeout(1.0).callbacks.append(lambda _e: log.append((env.now, "timer")))
        env.run()
        assert log == [(1.0, "timer"), (1.0, "reply")]

    def test_same_instant_replies_are_fifo_around_what_the_first_spawns(self, env, net):
        log = []
        mailbox = net.register("a")
        self.consumer(env, mailbox, log, spawn=True)
        net.send("src", "a", "first")
        net.send("src", "a", "second")
        env.run()
        assert [entry for _t, entry in log] == [
            "first", "spawned by first", "second", "spawned by second",
        ]

    def test_synchronous_wait_on_a_reply(self, env, net):
        """The session's shape: nobody's callback on the event, the caller
        drives the kernel until it has fired."""
        mailbox = net.register("a")
        net.send("src", "a", "reply")
        reply = mailbox.receive()
        assert env.run_until_event(reply) == "reply"
        assert env.now == 1.0 and env.events_processed == 1


class TestLatencyDraws:
    def test_send_draws_what_latency_model_sample_draws(self, env):
        """``Network.send`` writes ``LatencyModel.sample`` out in place
        (``random.uniform``'s own arithmetic).  Every virtual-time golden
        depends on the same floats from the same generator state."""
        model = LatencyModel(base=0.1, jitter=0.05)
        network = Network(env, Rng(20261003, "net"), model)
        reference = Rng(20261003, "net")
        stdlib = random.Random(20261003)
        arrivals = []
        network.register("a", lambda _message: arrivals.append(env.now))
        expected = []
        for _ in range(10_000):
            now = env.now
            network.send("src", "a", None)
            sample = model.sample(reference)
            assert sample == 0.1 + stdlib.uniform(0.0, 0.05)
            expected.append(now + sample)
            env.run()
        assert arrivals == expected
        assert network.rng._random.getstate() == reference._random.getstate()

    def test_no_jitter_draws_nothing(self, env, net):
        net.register("a", lambda _message: None)
        net.send("src", "a", None)
        env.run()
        assert env.now == 1.0
        assert net.rng.random() == RngRegistry(9).stream("net").random()


BAD_LATENCIES = [
    {"base": -5.0, "jitter": 0.0},
    {"base": math.nan, "jitter": 0.0},
    {"base": math.inf, "jitter": 0.0},
    {"base": 0.1, "jitter": -0.01},
    {"base": 0.1, "jitter": math.nan},
    {"base": 0.1, "jitter": math.inf},
]


class TestLatencyValidation:
    """``Network.send`` schedules deliveries itself, past the kernel's
    delay checks: a latency it would accept must never move the clock
    backwards or to NaN."""

    @pytest.mark.parametrize("terms", BAD_LATENCIES)
    def test_construction_refuses_negative_or_non_finite_terms(self, terms):
        with pytest.raises(ValueError, match="finite and >= 0"):
            LatencyModel(**terms)

    @pytest.mark.parametrize("terms", BAD_LATENCIES)
    def test_cluster_config_cannot_carry_one(self, terms):
        from repro.core import ClusterConfig

        config = ClusterConfig()
        with pytest.raises(ValueError, match="finite and >= 0"):
            dataclasses.replace(config, latency=dataclasses.replace(config.latency, **terms))

    def test_zero_latency_is_accepted(self, env):
        network = Network(env, RngRegistry(9).stream("net"), LatencyModel(0.0, 0.0))
        arrivals = []
        network.register("a", lambda _message: arrivals.append(env.now))
        network.send("src", "a", None)
        env.run()
        assert arrivals == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(min_value=-50.0, max_value=50.0) | st.just(math.nan),
        jitter=st.floats(min_value=-50.0, max_value=50.0) | st.just(math.inf),
        gaps=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=20),
        duplicate_prob=st.sampled_from([0.0, 0.5]),
        reorder_prob=st.sampled_from([0.0, 0.5]),
    )
    def test_no_delivery_fires_before_its_send(
        self, base, jitter, gaps, duplicate_prob, reorder_prob
    ):
        """Whatever latency is asked for, either the model refuses it or
        every delivery lands at or after its send, in clock order."""
        try:
            latency = LatencyModel(base, jitter)
        except ValueError:
            assert not (0.0 <= base < math.inf and 0.0 <= jitter < math.inf)
            return
        env = Environment()
        network = Network(
            env, RngRegistry(9).stream("net"), latency,
            duplicate_prob=duplicate_prob, reorder_prob=reorder_prob,
        )
        clock = []
        network.register("a", lambda sent_at: clock.append((sent_at, env.now)))

        def sender(env):
            for gap in gaps:
                yield env.timeout(gap)
                network.send("src", "a", env.now)

        env.process(sender(env))
        env.run()
        assert len(clock) >= len(gaps)
        assert all(sent_at <= delivered_at for sent_at, delivered_at in clock)
        delivered = [delivered_at for _sent, delivered_at in clock]
        assert delivered == sorted(delivered)
