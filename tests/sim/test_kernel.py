"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AnyOf, Environment, SimulationError


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_while_pending(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_is_an_error(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_records_exception(self, env):
        event = env.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_callbacks_run_on_step(self, env):
        seen = []
        event = env.event()
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["x"]
        assert event.processed

    def test_trigger_copies_state(self, env):
        source = env.event()
        source.succeed(7)
        target = env.event()
        target.trigger(source)
        assert target.value == 7


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        for delay in (-1.0, float("nan")):
            with pytest.raises(SimulationError):
                env.timeout(delay)

    def test_zero_delay_is_legal(self, env):
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0

    def test_timeout_carries_value(self, env):
        def proc(env):
            value = yield env.timeout(1.0, value="done")
            return value

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_timeouts_fire_in_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay)
            t.callbacks.append(lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_times_fire_fifo(self, env):
        order = []
        for i in range(5):
            t = env.timeout(1.0)
            t.callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_returns_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return "result"

        p = env.process(proc(env))
        env.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_process_is_alive_until_done(self, env):
        def proc(env):
            yield env.timeout(10.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run(until=5.0)
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_sequential_timeouts_accumulate(self, env):
        def proc(env):
            yield env.timeout(2.0)
            yield env.timeout(3.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0

    def test_waiting_on_another_process(self, env):
        def inner(env):
            yield env.timeout(4.0)
            return "inner-done"

        def outer(env):
            result = yield env.process(inner(env))
            return (env.now, result)

        p = env.process(outer(env))
        env.run()
        assert p.value == (4.0, "inner-done")

    def test_waiting_on_finished_process_resumes_immediately(self, env):
        inner_proc = {}

        def inner(env):
            yield env.timeout(1.0)
            return 99

        def outer(env):
            yield env.timeout(5.0)
            value = yield inner_proc["p"]
            return (env.now, value)

        inner_proc["p"] = env.process(inner(env))
        p = env.process(outer(env))
        env.run()
        assert p.value == (5.0, 99)

    def test_exception_in_process_fails_it(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("inside")

        p = env.process(proc(env))
        env.run()
        assert p.triggered and not p.ok
        assert isinstance(p.value, RuntimeError)

    def test_failed_event_raises_inside_waiter(self, env):
        event = env.event()

        def proc(env):
            try:
                yield event
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(proc(env))
        event.fail(ValueError("bad"))
        env.run()
        assert p.value == "caught bad"

    def test_yielding_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        env.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_yielding_foreign_event_fails_process(self, env):
        other_env = Environment()

        def proc(env):
            yield other_env.event()

        p = env.process(proc(env))
        env.run()
        assert not p.ok

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_process_name_defaults(self, env):
        def my_worker(env):
            yield env.timeout(1.0)

        p = env.process(my_worker(env))
        assert p.name == "my_worker"


class TestUnobservedCompletion:
    """A process nobody waits on finishes without scheduling an event; a
    later waiter finds it already processed."""

    @staticmethod
    def finished(env, value="done"):
        def worker(env):
            yield env.timeout(1.0)
            return value

        proc = env.process(worker(env))
        env.run()
        assert env.events_processed == 2  # kick-off, timeout: no completion
        assert proc.processed and proc.ok and not proc.is_alive
        return proc

    def test_waiting_on_it_later_returns_its_value(self, env):
        proc = self.finished(env)

        def waiter(env):
            return (yield proc)

        assert env.run_until_event(env.process(waiter(env))) == "done"
        assert env.now == 1.0

    def test_any_of_with_a_finished_process_fires_at_once(self, env):
        proc = self.finished(env)
        either = env.any_of([proc, env.timeout(3.0)])
        assert env.run_until_event(either) == {proc: "done"}
        assert env.now == 1.0

    def test_run_until_event_on_it_returns_without_stepping(self, env):
        proc = self.finished(env)
        before = env.events_processed
        assert env.run_until_event(proc) == "done"
        assert env.events_processed == before

    def test_a_waiter_still_gets_a_completion_event(self, env):
        def inner(env):
            yield env.timeout(1.0)
            return 7

        def outer(env):
            return (yield env.process(inner(env)))

        proc = env.process(outer(env))
        env.run()
        assert proc.value == 7
        # outer's kick-off, inner's kick-off, the timeout, inner's completion
        assert env.events_processed == 4

    def test_an_unobserved_failure_is_still_scheduled(self, env):
        def worker(env):
            yield env.timeout(1.0)
            raise RuntimeError("nobody is watching")

        proc = env.process(worker(env))
        env.run()
        assert env.events_processed == 3  # kick-off, timeout, the failure
        assert proc.processed and not proc.ok
        with pytest.raises(RuntimeError, match="nobody is watching"):
            env.run_until_event(proc)


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(1.0, "fast"), env.timeout(5.0, "slow")

        def proc(env):
            results = yield env.any_of([t1, t2])
            return (env.now, list(results.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (1.0, ["fast"])

    def test_empty_any_of_fires_immediately(self, env):
        def proc(env):
            value = yield env.any_of([])
            return (env.now, value)

        p = env.process(proc(env))
        env.run()
        assert p.value == (0.0, {})

    def test_any_of_fails_on_constituent_failure(self, env):
        event = env.event()
        t = env.timeout(1.0)

        def proc(env):
            try:
                yield env.any_of([event, t])
            except RuntimeError:
                return "failed"

        p = env.process(proc(env))
        event.fail(RuntimeError("x"))
        env.run()
        assert p.value == "failed"

    def test_condition_mixing_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [env.event(), other.event()])


class TestEnvironmentRun:
    def test_run_until_stops_clock_exactly(self, env):
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_clock_rejected(self, env):
        env.timeout(1.0)
        env.run()
        for until in (0.5, float("nan")):
            with pytest.raises(SimulationError):
                env.run(until=until)

    def test_step_without_events_rejected(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_reports_next_event_time(self, env):
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0

    def test_run_until_event_returns_value(self, env):
        def producer(env, event):
            yield env.timeout(3.0)
            event.succeed("produced")

        event = env.event()
        env.process(producer(env, event))
        value = env.run_until_event(event)
        assert value == "produced"
        assert env.now == 3.0

    def test_run_until_event_raises_on_failure(self, env):
        def producer(env, event):
            yield env.timeout(1.0)
            event.fail(ValueError("nope"))

        event = env.event()
        env.process(producer(env, event))
        with pytest.raises(ValueError):
            env.run_until_event(event)

    def test_run_until_event_respects_limit(self, env):
        event = env.event()
        env.timeout(100.0)  # keeps the queue non-empty

        with pytest.raises(SimulationError):
            env.run_until_event(event, limit=50.0)

    def test_run_until_event_empty_queue_error(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(event)

    def test_deterministic_replay(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                trace.append((name, env.now))
                yield env.timeout(delay * 2)
                trace.append((name, env.now))

            for i in range(5):
                env.process(worker(env, f"w{i}", 1.0 + i))
            env.run()
            return trace

        assert build_and_run() == build_and_run()
