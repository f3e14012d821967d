"""Overload protection: admission control, shedding, backpressure, valve."""

import pytest

from repro.core.partition import PartitionMap
from repro.histories import RunHistory
from repro.metrics import StageTimings
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    ClientRequest,
    ClientResponse,
    LoadBalancer,
    TxnResponse,
)
from repro.middleware.overload import OverloadSettings, RetryBudget
from repro.sim import RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet

from .conftest import fixed_latency_network, low_variance_params, make_catalog


class TestOverloadSettings:
    def test_defaults_are_valid(self):
        settings = OverloadSettings(mpl_cap=8)
        assert settings.queue_depth == 64
        assert settings.shed_deadline_ms is None
        assert settings.valve_policy is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mpl_cap=0),
            dict(mpl_cap=4, queue_depth=-1),
            dict(mpl_cap=4, shed_deadline_ms=0.0),
            dict(mpl_cap=4, retry_after_ms=-1.0),
            dict(mpl_cap=4, valve_high=0),
            dict(mpl_cap=4, valve_low=-1),
            dict(mpl_cap=4, valve_high=4, valve_low=4),
            dict(mpl_cap=4, valve_high=4, valve_low=9),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OverloadSettings(**kwargs)


class TestRetryBudget:
    def test_starts_full_and_spends_down(self):
        budget = RetryBudget(ratio=0.1, burst=3)
        assert [budget.try_spend() for _ in range(4)] == [True, True, True, False]
        assert budget.spent == 3
        assert budget.denied == 1

    def test_successes_refill_at_ratio(self):
        budget = RetryBudget(ratio=0.5, burst=2)
        budget.try_spend(), budget.try_spend()
        assert not budget.try_spend()
        budget.on_success()  # +0.5 tokens: still not a whole retry
        assert not budget.try_spend()
        budget.on_success()
        budget.on_success()
        assert budget.try_spend()

    def test_tokens_cap_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=2)
        for _ in range(10):
            budget.on_success()
        assert [budget.try_spend() for _ in range(3)] == [True, True, False]

    @pytest.mark.parametrize("kwargs", [dict(ratio=-0.1), dict(ratio=0.1, burst=0)])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetryBudget(**kwargs)


# ---------------------------------------------------------------------------
# Load balancer admission control
# ---------------------------------------------------------------------------

@pytest.fixture
def setup(env):
    def build(level="sc-coarse", replicas=1, latency_ms=0.1, **kwargs):
        network = fixed_latency_network(env, base=latency_ms)
        names = [f"replica-{i}" for i in range(replicas)]
        mailboxes = {name: network.register(name) for name in names}
        client = network.register("client-x")
        balancer = LoadBalancer(
            env=env,
            network=network,
            replica_names=names,
            level=level,
            templates=make_catalog(("t", "u")),
            history=RunHistory(),
            **kwargs,
        )
        return network, mailboxes, client, balancer

    return build


def request(env, template="read-t", request_id=1, session="s1", degradable=False):
    return ClientRequest(
        request_id=request_id,
        template=template,
        params={"key": 1},
        session_id=session,
        reply_to="client-x",
        submit_time=env.now,
        degradable=degradable,
    )


def response_for(routed, replica="replica-0", committed=True, commit_version=None,
                 tables=frozenset(), replica_version=0):
    req = routed.request
    return TxnResponse(
        request_id=req.request_id,
        session_id=req.session_id,
        reply_to=req.reply_to,
        replica=replica,
        committed=committed,
        commit_version=commit_version,
        abort_reason=None if committed else "conflict",
        replica_version=replica_version,
        updated_tables=frozenset(tables),
        stages=StageTimings(),
        snapshot_version=0,
    )


def drain(mailbox):
    out = []
    while len(mailbox):
        out.append(mailbox.receive().value)
    return out


class TestAdmissionControl:
    def test_dispatches_within_cap_queues_beyond(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=2, queue_depth=8)
        )
        for i in range(1, 4):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert len(drain(mailboxes["replica-0"])) == 2
        assert balancer.admission.pending_depth("replica-0") == 1
        assert balancer.admission.pending_depth() == 1
        assert balancer.admission.shed_count == 0

    def test_fast_rejects_past_queue_bound_with_retry_hint(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=1, retry_after_ms=25.0)
        )
        for i in range(1, 4):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert len(drain(mailboxes["replica-0"])) == 1  # one in flight
        assert balancer.admission.pending_depth("replica-0") == 1  # one queued
        assert balancer.admission.shed_count == 1  # one rejected
        rejections = [
            m for m in drain(client)
            if isinstance(m, ClientResponse) and not m.committed
        ]
        assert len(rejections) == 1
        assert rejections[0].overloaded
        assert rejections[0].retry_after_ms == 25.0
        assert "overloaded" in rejections[0].abort_reason

    def test_shed_counts_as_network_drop_reason(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=0)
        )
        network.send("client-x", "lb", request(env, request_id=1))
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        assert network.dropped_by_reason.get("overload-shed") == 1

    def test_completion_pumps_the_queue(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=4)
        )
        for i in range(1, 3):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        first = drain(mailboxes["replica-0"])
        assert [r.request.request_id for r in first] == [1]
        network.send("replica-0", "lb", response_for(first[0]))
        env.run()
        # The response freed the slot; the queued request dispatched.
        assert [r.request.request_id for r in drain(mailboxes["replica-0"])] == [2]
        assert balancer.admission.pending_depth() == 0
        assert len([m for m in drain(client) if m.committed]) == 1

    def test_queue_drains_in_fifo_order(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=8)
        )
        for i in range(1, 5):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        order = []
        for _ in range(4):
            routed = drain(mailboxes["replica-0"])
            assert len(routed) == 1
            order.append(routed[0].request.request_id)
            network.send("replica-0", "lb", response_for(routed[0]))
            env.run()
        assert order == [1, 2, 3, 4]

    def test_replica_down_readmits_queued_requests_elsewhere(self, env, setup):
        network, mailboxes, client, balancer = setup(
            replicas=2, overload=OverloadSettings(mpl_cap=1, queue_depth=8)
        )
        # Fill both replicas' slots, then queue two more on whichever
        # replica the router picks.
        for i in range(1, 5):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert balancer.admission.pending_depth() == 2
        victim = next(
            name for name in ("replica-0", "replica-1")
            if balancer.admission.pending_depth(name) > 0
        )
        balancer.replica_down(victim)
        env.run()
        assert balancer.admission.pending_depth(victim) == 0
        # Nothing silently vanished: every request is in flight, queued on
        # the survivor, or answered (shed / failed by the down-replica path).
        survivor = "replica-1" if victim == "replica-0" else "replica-0"
        accounted = (
            balancer.active_transactions(survivor)
            + balancer.admission.pending_depth(survivor)
            + len(drain(client))
        )
        assert accounted == 4


class TestDeadlineShedding:
    def test_sheds_when_deadline_unreachable_at_enqueue(self, env, setup):
        # Slot taken and 10 requests queued ahead: the EWMA prior (1 ms)
        # puts the 11th's expected wait past a 2 ms deadline at submit.
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=64, shed_deadline_ms=2.0)
        )
        for i in range(1, 13):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert balancer.admission.deadline_shed_count > 0
        assert balancer.admission.shed_count == 0  # the queue never filled
        rejected = [m for m in drain(client) if not m.committed]
        assert all(m.overloaded for m in rejected)
        assert any("deadline" in m.abort_reason for m in rejected)

    def test_sheds_stale_request_at_dequeue(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=4, shed_deadline_ms=50.0)
        )
        network.send("client-x", "lb", request(env, request_id=1))
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        first = drain(mailboxes["replica-0"])[0]
        assert balancer.admission.pending_depth() == 1
        # The in-flight request takes 100 ms — far past the queued one's
        # deadline — so the pump drops it instead of dispatching stale work.
        env.run(until=env.now + 100.0)
        network.send("replica-0", "lb", response_for(first))
        env.run()
        assert drain(mailboxes["replica-0"]) == []
        assert balancer.admission.deadline_shed_count == 1
        rejected = [m for m in drain(client) if not m.committed]
        assert any("deadline exceeded" in m.abort_reason for m in rejected)

    def test_ewma_tracks_observed_service_time(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=1, queue_depth=4)
        )
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        env.run(until=env.now + 40.0)
        network.send("replica-0", "lb", response_for(routed))
        env.run()
        # The first observation (~40 ms) seeds the average directly...
        assert balancer.admission._service_ewma_ms == pytest.approx(40.2, rel=0.05)
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send("replica-0", "lb", response_for(routed))
        env.run()
        # ...and a fast follow-up (~0.2 ms) decays it: 0.8*40.2 + 0.2*0.2.
        assert balancer.admission._service_ewma_ms == pytest.approx(32.2, rel=0.05)

    def test_ewma_seeded_by_a_dispatch_at_time_zero(self, env, setup):
        # Zero latency: the request dispatches at virtual time 0.0, which is
        # a real dispatch time, not "unset".
        network, mailboxes, client, balancer = setup(
            latency_ms=0.0, overload=OverloadSettings(mpl_cap=1, queue_depth=4)
        )
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        assert env.now == 0.0
        routed = drain(mailboxes["replica-0"])[0]
        env.run(until=40.0)
        network.send("replica-0", "lb", response_for(routed))
        env.run()
        assert balancer.admission._service_ewma_ms == 40.0


class TestUnknownTemplate:
    def test_submit_rejected_with_known_templates_listed(self, env, setup):
        network, mailboxes, client, balancer = setup()
        with pytest.raises(ValueError, match="unknown template 'nope'"):
            balancer._dispatch(request(env, template="nope"))

    def test_admission_path_rejects_unknown_template_too(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(mpl_cap=4)
        )
        with pytest.raises(ValueError, match="known templates"):
            balancer._dispatch(request(env, template="nope"))


class TestDegradationValve:
    def make(self, setup, high=2, low=1):
        return setup(
            level="sc-coarse",
            overload=OverloadSettings(
                mpl_cap=1, queue_depth=16,
                valve_policy="session", valve_high=high, valve_low=low,
            ),
        )

    def bump_v_system(self, env, network, mailboxes, client):
        """Commit one update so SC-COARSE demands start_version 1."""
        network.send("client-x", "lb", request(env, template="write-t", request_id=900))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=1, tables={"t"}, replica_version=1),
        )
        env.run()
        drain(client)

    def test_opens_at_high_water_and_closes_at_low(self, env, setup):
        network, mailboxes, client, balancer = self.make(setup)
        for i in range(1, 5):  # 1 in flight + 3 queued >= valve_high
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert balancer.admission.valve_open
        assert [event[1] for event in balancer.admission.valve_events] == ["open"]
        inflight = drain(mailboxes["replica-0"])
        network.send("replica-0", "lb", response_for(inflight[0]))
        env.run()
        inflight = drain(mailboxes["replica-0"])
        assert balancer.admission.pending_depth() == 2
        assert balancer.admission.valve_open  # hysteresis: still above valve_low
        network.send("replica-0", "lb", response_for(inflight[0]))
        env.run()
        assert balancer.admission.pending_depth() == 1  # drained to the low-water mark
        assert not balancer.admission.valve_open
        assert [event[1] for event in balancer.admission.valve_events] == ["open", "close"]

    def test_degrades_only_tagged_reads_while_open(self, env, setup):
        network, mailboxes, client, balancer = self.make(setup)
        self.bump_v_system(env, network, mailboxes, client)
        for i in range(1, 5):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        assert balancer.admission.valve_open
        drain(mailboxes["replica-0"])
        # While open: a degradable read starts at the SESSION policy's
        # version (0 — this session saw nothing) instead of V_system=1;
        # an untagged read still pays the full SC-COARSE version.
        tagged = request(env, request_id=50, degradable=True, session="fresh")
        plain = request(env, request_id=51, degradable=False, session="fresh")
        assert balancer._start_version(tagged, read_only=True) == 0
        assert balancer._start_version(plain, read_only=True) == 1
        # Updates are never degraded, tagged or not.
        update = request(env, template="write-t", request_id=52, degradable=True)
        assert balancer._start_version(update, read_only=False) == 1
        assert balancer.admission.degraded_count == 1

    def test_valve_events_record_v_system(self, env, setup):
        network, mailboxes, client, balancer = self.make(setup)
        for i in range(1, 5):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        time_ms, action, v_system = balancer.admission.valve_events[0]
        assert action == "open"
        assert v_system == balancer.v_system

    def test_no_valve_without_policy(self, env, setup):
        network, mailboxes, client, balancer = setup(
            overload=OverloadSettings(
                mpl_cap=1, queue_depth=16, valve_high=1, valve_low=0
            )
        )
        for i in range(1, 6):
            network.send("client-x", "lb", request(env, request_id=i))
        env.run()
        # Admission control without a valve policy: depth is far past
        # valve_high, but nothing opens and nothing is ever degraded.
        assert balancer.admission.pending_depth() >= 1
        assert not balancer.admission.valve_open
        assert balancer.admission.valve_events == []
        tagged = request(env, request_id=50, degradable=True)
        balancer._start_version(tagged, read_only=True)
        assert balancer.admission.degraded_count == 0


# ---------------------------------------------------------------------------
# Certifier backpressure
# ---------------------------------------------------------------------------

def ws(key, value=1, table="t"):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": value})])


class TestCertifierBackpressure:
    def build(self, env, bound, partition_map=None):
        network = fixed_latency_network(env)
        mailbox = network.register("replica-0")
        certifier = Certifier(
            env=env,
            network=network,
            perf=CertifierPerformance(
                low_variance_params(), RngRegistry(1).stream("c")
            ),
            replica_names=["replica-0"],
            level="sc-coarse",
            inbound_queue_bound=bound,
            partition_map=partition_map,
        )
        return network, mailbox, certifier

    def send_burst(self, network, count):
        for i in range(1, count + 1):
            network.send(
                "replica-0",
                "certifier",
                CertifyRequest(
                    txn_id=i,
                    origin="replica-0",
                    snapshot_version=0,
                    writeset=ws(i),
                    request_id=i,
                ),
            )

    def test_bound_rejects_excess_without_deciding(self, env):
        network, mailbox, certifier = self.build(env, bound=2)
        self.send_burst(network, 8)
        env.run()
        replies = [m for m in drain(mailbox) if isinstance(m, CertifyReply)]
        assert len(replies) == 8
        rejected = [r for r in replies if r.overloaded]
        accepted = [r for r in replies if not r.overloaded]
        assert certifier.backpressure_rejects == len(rejected) > 0
        # Shed certifications decided nothing: no log entry, no version.
        assert all(not r.certified and r.commit_version is None for r in rejected)
        assert certifier.commit_version == len([r for r in accepted if r.certified])

    @pytest.mark.parametrize("num_partitions", [1, 2])
    def test_bound_sheds_steady_arrivals_at_every_shard_count(
        self, env, num_partitions
    ):
        """With several shards the message loop hands each request to its
        own process at once, so the queue forms behind the shard slots, not
        in the mailbox: the bound must count it where the request waits."""
        partition_map = (
            PartitionMap(2, table_groups=(("t",), ("u",)))
            if num_partitions > 1
            else None
        )
        network, mailbox, certifier = self.build(env, 2, partition_map)
        peak_slot_queue = 0

        def arrivals():
            nonlocal peak_slot_queue
            for i in range(1, 201):
                network.send(
                    "replica-0",
                    "certifier",
                    CertifyRequest(
                        txn_id=i, origin="replica-0", snapshot_version=0,
                        writeset=ws(i, table="tu"[i % 2]), request_id=i,
                    ),
                )
                yield env.timeout(0.01)  # far faster than one certification
                peak_slot_queue = max(
                    [peak_slot_queue]
                    + [shard.queue_length for shard in certifier.shards.values()]
                )

        env.process(arrivals())
        env.run()
        replies = [m for m in drain(mailbox) if isinstance(m, CertifyReply)]
        assert len(replies) == 200
        shed = [r for r in replies if r.overloaded]
        assert certifier.backpressure_rejects == len(shed) > 100
        assert certifier.commit_version == 200 - len(shed) > 0
        assert peak_slot_queue <= 2

    def test_unbounded_by_default(self, env):
        network, mailbox, certifier = self.build(env, bound=None)
        self.send_burst(network, 8)
        env.run()
        assert certifier.backpressure_rejects == 0
        assert certifier.commit_version == 8

    def test_bound_validated(self, env):
        with pytest.raises(ValueError):
            self.build(env, bound=0)
