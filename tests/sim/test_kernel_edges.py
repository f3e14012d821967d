"""Edge-case kernel tests: failing triggers, nested processes."""


class TestTriggerChaining:
    def test_trigger_propagates_failure(self, env):
        source = env.event()
        source.fail(ValueError("boom"))
        target = env.event()
        target.trigger(source)
        assert not target.ok
        assert isinstance(target.value, ValueError)

    def test_trigger_propagates_success(self, env):
        source = env.event()
        source.succeed([1, 2])
        target = env.event()
        target.trigger(source)
        assert target.ok and target.value == [1, 2]


class TestNestedProcesses:
    def test_three_level_nesting(self, env):
        def leaf(env):
            yield env.timeout(2.0)
            return "leaf"

        def middle(env):
            value = yield env.process(leaf(env))
            yield env.timeout(3.0)
            return f"middle({value})"

        def root(env):
            value = yield env.process(middle(env))
            return f"root({value})"

        p = env.process(root(env))
        env.run()
        assert p.value == "root(middle(leaf))"
        assert env.now == 5.0

    def test_failure_propagates_up_the_chain(self, env):
        def leaf(env):
            yield env.timeout(1.0)
            raise RuntimeError("leaf died")

        def root(env):
            try:
                yield env.process(leaf(env))
            except RuntimeError as exc:
                return f"caught: {exc}"

        p = env.process(root(env))
        env.run()
        assert p.value == "caught: leaf died"

    def test_many_concurrent_processes_scale(self, env):
        finished = []

        def worker(env, index):
            yield env.timeout(float(index % 10))
            finished.append(index)

        for index in range(500):
            env.process(worker(env, index))
        env.run()
        assert len(finished) == 500
        assert env.now == 9.0
