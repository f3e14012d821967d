"""Tests for Resource and Store."""

import pytest

from repro.sim import Resource, SimulationError, Store


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.in_use == 2

    def test_request_beyond_capacity_queues(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert first.triggered
        assert not second.triggered
        assert res.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        res.release(first)
        assert second.triggered
        assert not third.triggered

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        res.cancel(second)
        res.release(first)
        assert third.triggered
        assert not second.triggered

    @pytest.mark.parametrize("hold", [-1.0, float("nan")])
    def test_bad_hold_rejected(self, env, hold):
        res = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.request(hold)
        assert res.in_use == 0 and res.queue_length == 0

    def test_release_of_waiting_request_cancels_it(self, env):
        res = Resource(env, capacity=1)
        res.request()
        waiting = res.request()
        res.release(waiting)  # behaves as cancel
        assert res.queue_length == 0

    def test_use_helper_serializes_two_processes(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(env, name):
            yield from res.use(5.0)
            log.append((name, env.now))

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        env.run()
        assert log == [("a", 5.0), ("b", 10.0)]

    def test_use_helper_parallel_within_capacity(self, env):
        res = Resource(env, capacity=3)
        log = []

        def worker(env, name):
            yield from res.use(5.0)
            log.append((name, env.now))

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert [t for _n, t in log] == [5.0, 5.0, 5.0]

    def test_use_releases_slot_after_duration(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            yield from res.use(2.0)

        env.process(worker(env))
        env.run()
        assert res.in_use == 0

    def test_throughput_matches_capacity(self, env):
        """10 jobs of 1 ms on a 2-slot server finish at t=5."""
        res = Resource(env, capacity=2)

        def worker(env):
            yield from res.use(1.0)

        for _ in range(10):
            env.process(worker(env))
        env.run()
        assert env.now == 5.0

    def test_use_costs_one_kernel_event_per_hold(self, env):
        """Kick-off and the hold: two events a worker, whether it found the
        slot free or had to queue for it (nobody waits on the workers, so
        their completions schedule nothing)."""
        res = Resource(env, capacity=1)
        done = []

        def worker(env):
            yield from res.use(2.0)
            done.append(env.now)

        for _ in range(5):
            env.process(worker(env))
        env.run()
        assert done == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert env.events_processed == 2 * 5

    def test_request_with_a_hold_fires_when_the_hold_is_over(self, env):
        res = Resource(env, capacity=1)
        fired = []
        first, second = res.request(5.0), res.request(2.0)
        first.callbacks.append(lambda _e: (fired.append(env.now), res.release(first)))
        second.callbacks.append(lambda _e: fired.append(env.now))
        assert res.in_use == 1 and res.queue_length == 1
        env.run()
        assert fired == [5.0, 7.0]  # granted at 5, held for 2
        assert res.busy_slot_ms == 7.0

    def test_zero_length_use_still_takes_its_turn(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, name, duration):
            yield from res.use(duration)
            order.append((name, env.now))

        env.process(worker(env, "long", 3.0))
        env.process(worker(env, "instant", 0.0))
        env.run()
        assert order == [("long", 3.0), ("instant", 3.0)]

    def test_negative_use_rejected_before_claiming_a_slot(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            yield from res.use(-1.0)

        proc = env.process(worker(env))
        env.run()
        assert isinstance(proc.value, SimulationError) and not proc.ok
        assert res.in_use == 0 and res.queue_length == 0


class TestInterruptInteraction:
    """A ``use()`` cut short -- its generator closed, as when a dropped
    process is collected -- still gives its slot or queue place back."""

    def test_interrupted_holder_releases_slot(self, env):
        res = Resource(env, capacity=1)
        holder = res.use(100.0)
        next(holder)  # granted: holds the only slot

        def follower(env):
            yield from res.use(1.0)
            return env.now

        p2 = env.process(follower(env))
        env.run(until=5.0)
        assert res.in_use == 1 and res.queue_length == 1
        holder.close()
        env.run()
        assert p2.value == 6.0  # got the slot right after the close
        assert res.in_use == 0

    def test_interrupted_waiter_leaves_queue_clean(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            yield from res.use(10.0)

        env.process(holder(env))
        env.run(until=1.0)
        waiter = res.use(1.0)
        next(waiter)  # queued behind the holder
        assert res.queue_length == 1
        env.run(until=2.0)
        waiter.close()
        assert res.queue_length == 0
        env.run()
        assert env.now == 10.0
        assert res.in_use == 0
        assert res.queue_length == 0


class TestUtilization:
    def test_idle_resource_has_zero_utilization(self, env):
        res = Resource(env, capacity=2)
        env.timeout(10.0)
        env.run()
        assert res.utilization() == 0.0
        assert res.busy_slot_ms == 0.0

    def test_fully_busy_single_slot(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            yield from res.use(10.0)

        env.process(worker(env))
        env.run()
        assert res.busy_slot_ms == pytest.approx(10.0)
        assert res.utilization() == pytest.approx(1.0)

    def test_partial_utilization(self, env):
        res = Resource(env, capacity=2)

        def worker(env):
            yield from res.use(5.0)

        env.process(worker(env))
        env.timeout(10.0)
        env.run()
        # One of two slots busy for 5 of 10 ms -> 25 %.
        assert res.utilization() == pytest.approx(0.25)

    def test_busy_time_accumulates_across_jobs(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            yield from res.use(3.0)

        for _ in range(4):
            env.process(worker(env))
        env.run()
        assert res.busy_slot_ms == pytest.approx(12.0)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("x")
        event = store.get()
        assert event.triggered
        assert event.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def consumer(env):
            item = yield store.get()
            results.append((item, env.now))

        def producer(env):
            yield env.timeout(3.0)
            store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert results == [("late", 3.0)]

    def test_fifo_order_of_items(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = [store.get().value for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_order_of_getters(self, env):
        store = Store(env)
        results = []

        def consumer(env, name):
            item = yield store.get()
            results.append((name, item))

        env.process(consumer(env, "first"))
        env.process(consumer(env, "second"))
        env.run()
        store.put("a")
        store.put("b")
        env.run()
        assert results == [("first", "a"), ("second", "b")]

    def test_len_counts_buffered_items(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2
        store.get()
        assert len(store) == 1

    def test_peek_all_is_non_destructive(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert store.peek_all() == [1, 2]
        assert len(store) == 2

    def test_items_snapshot(self, env):
        store = Store(env)
        store.put("a")
        assert store.items == ("a",)
