"""Tests for the load balancer: routing, version tagging, session state."""

import pytest

from repro.histories import RunHistory
from repro.metrics import StageTimings
from repro.middleware import (
    ClientRequest,
    ClientResponse,
    FateQuery,
    FateReply,
    LoadBalancer,
    TxnResponse,
    next_request_id,
)

from .conftest import fixed_latency_network, make_catalog


@pytest.fixture
def setup(env):
    def build(level="sc-coarse", **kwargs):
        network = fixed_latency_network(env)
        replicas = ["replica-0", "replica-1"]
        mailboxes = {name: network.register(name) for name in replicas}
        client = network.register("client-x")
        balancer = LoadBalancer(
            env=env,
            network=network,
            replica_names=replicas,
            level=level,
            templates=make_catalog(("t", "u")),
            history=RunHistory(),
            **kwargs,
        )
        return network, mailboxes, client, balancer

    return build


def request(env, template="read-t", request_id=1, session="s1"):
    return ClientRequest(
        request_id=request_id,
        template=template,
        params={"key": 1},
        session_id=session,
        reply_to="client-x",
        submit_time=env.now,
    )


def response_for(routed, committed=True, commit_version=None, tables=frozenset(),
                 replica_version=0, snapshot_version=0):
    req = routed.request
    return TxnResponse(
        request_id=req.request_id,
        session_id=req.session_id,
        reply_to=req.reply_to,
        replica="replica-0",
        committed=committed,
        commit_version=commit_version,
        abort_reason=None if committed else "conflict",
        replica_version=replica_version,
        updated_tables=frozenset(tables),
        stages=StageTimings(),
        snapshot_version=snapshot_version,
    )


def drain(mailbox):
    out = []
    while len(mailbox):
        out.append(mailbox.receive().value)
    return out


class TestRouting:
    def test_dispatch_to_least_active(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, request_id=1))
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        # Least-active with ties broken by name: first goes to replica-0,
        # which then has 1 active, so the second goes to replica-1.
        assert len(drain(mailboxes["replica-0"])) == 1
        assert len(drain(mailboxes["replica-1"])) == 1
        assert balancer.active_transactions("replica-0") == 1
        assert balancer.active_transactions("replica-1") == 1

    def test_response_decrements_active_and_relays(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send("replica-0", "lb", response_for(routed))
        env.run()
        assert balancer.active_transactions("replica-0") == 0
        replies = drain(client)
        assert len(replies) == 1
        assert isinstance(replies[0], ClientResponse)
        assert replies[0].committed

    def test_late_duplicate_response_ignored(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send("replica-0", "lb", response_for(routed))
        network.send("replica-0", "lb", response_for(routed))
        env.run()
        assert len(drain(client)) == 1
        assert balancer.relayed_count == 1


class TestVersionTagging:
    def test_sc_coarse_tags_v_system(self, env, setup):
        network, mailboxes, client, balancer = setup("sc-coarse")
        network.send("client-x", "lb", request(env, template="write-t", request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        assert routed.start_version == 0
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=1, tables={"t"}, replica_version=1),
        )
        env.run()
        network.send("client-x", "lb", request(env, template="read-u", request_id=2))
        env.run()
        # SC-COARSE requires the full V_system even for an unrelated table.
        routed2 = [m for mb in mailboxes.values() for m in drain(mb)][0]
        assert routed2.start_version == 1

    def test_sc_fine_tags_only_relevant_table_version(self, env, setup):
        network, mailboxes, client, balancer = setup("sc-fine")
        network.send("client-x", "lb", request(env, template="write-t", request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=1, tables={"t"}, replica_version=1),
        )
        env.run()
        network.send("client-x", "lb", request(env, template="read-u", request_id=2))
        network.send("client-x", "lb", request(env, template="read-t", request_id=3))
        env.run()
        routed_all = [m for mb in mailboxes.values() for m in drain(mb)]
        by_id = {r.request.request_id: r for r in routed_all}
        assert by_id[2].start_version == 0  # table u never updated
        assert by_id[3].start_version == 1  # table t updated at v1

    def test_session_tags_own_session_version_only(self, env, setup):
        network, mailboxes, client, balancer = setup("session")
        network.send("client-x", "lb", request(env, template="write-t", request_id=1, session="alice"))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=3, tables={"t"}, replica_version=3),
        )
        env.run()
        network.send("client-x", "lb", request(env, request_id=2, session="alice"))
        network.send("client-x", "lb", request(env, request_id=3, session="bob"))
        env.run()
        routed_all = [m for mb in mailboxes.values() for m in drain(mb)]
        by_id = {r.request.request_id: r for r in routed_all}
        assert by_id[2].start_version == 3  # alice waits for her update
        assert by_id[3].start_version == 0  # bob does not

    def test_eager_and_baseline_never_tag(self, env, setup):
        for level in ("eager", "baseline"):
            network, mailboxes, client, balancer = setup(level)
            network.send("client-x", "lb", request(env, template="write-t", request_id=1))
            env.run()
            routed = drain(mailboxes["replica-0"])[0]
            network.send(
                "replica-0", "lb",
                response_for(routed, commit_version=2, tables={"t"}, replica_version=2),
            )
            env.run()
            network.send("client-x", "lb", request(env, request_id=9))
            env.run()
            routed2 = [m for mb in mailboxes.values() for m in drain(mb)][0]
            assert routed2.start_version == 0

    def test_relaxed_tags_bounded_staleness(self, env, setup):
        network, mailboxes, client, balancer = setup("relaxed:3")
        network.send("client-x", "lb", request(env, template="write-t", request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=10, tables={"t"}, replica_version=10),
        )
        env.run()
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        routed2 = [m for mb in mailboxes.values() for m in drain(mb)][0]
        assert routed2.start_version == 7  # V_system(10) - bound(3)

    def test_aborted_response_does_not_advance_versions(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, template="write-t", request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send("replica-0", "lb", response_for(routed, committed=False))
        env.run()
        assert balancer.v_system == 0


class TestHistoryRecording:
    def test_history_records_submit_and_ack(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, template="write-t", request_id=1))
        env.run()
        routed = drain(mailboxes["replica-0"])[0]
        network.send(
            "replica-0", "lb",
            response_for(routed, commit_version=1, tables={"t"}, replica_version=1,
                         snapshot_version=0),
        )
        env.run()
        records = balancer.history.records
        assert len(records) == 1
        record = records[0]
        assert record.commit_version == 1
        assert record.accessed_tables == frozenset({"t"})
        assert record.ack_time > record.submit_time


class TestFaultPaths:
    def test_replica_down_fails_outstanding_and_stops_routing(self, env, setup):
        network, mailboxes, client, balancer = setup()
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        drain(mailboxes["replica-0"])
        balancer.replica_down("replica-0")
        env.run()
        replies = drain(client)
        assert len(replies) == 1
        assert not replies[0].committed
        assert "failed" in replies[0].abort_reason
        # New requests avoid the dead replica.
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        assert len(drain(mailboxes["replica-1"])) == 1
        assert drain(mailboxes["replica-0"]) == []

    def test_replica_up_resumes_routing(self, env, setup):
        network, mailboxes, client, balancer = setup()
        balancer.replica_down("replica-0")
        balancer.replica_up("replica-0")
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        assert len(drain(mailboxes["replica-0"])) == 1

    def test_all_replicas_down_fails_requests_gracefully(self, env, setup):
        # The balancer must survive a total outage: requests are answered
        # with a failure instead of crashing the routing loop, so routing
        # can resume once a replica comes back.
        network, mailboxes, client, balancer = setup()
        balancer.replica_down("replica-0")
        balancer.replica_down("replica-1")
        assert balancer._pick_replica() is None
        network.send("client-x", "lb", request(env, request_id=1))
        env.run()
        replies = drain(client)
        assert len(replies) == 1
        assert not replies[0].committed
        assert "no replicas available" in replies[0].abort_reason
        assert balancer.rejected_count == 1
        # Recovery restores routing.
        balancer.replica_up("replica-0")
        network.send("client-x", "lb", request(env, request_id=2))
        env.run()
        assert len(drain(mailboxes["replica-0"])) == 1


class TestDeadlines:
    """Request deadlines, re-routing and fate resolution.

    Request ids come from ``next_request_id`` so a retry's fresh id can never
    collide with one a test picked by hand.  The deadline is 50 ms and the
    network adds 0.1 ms per hop, so the first attempt times out at 50.1 ms
    and its ``FateQuery`` reaches the certifier at 50.2 ms.
    """

    DEADLINE_MS = 50.0

    def build(self, setup, **kwargs):
        network, mailboxes, client, balancer = setup(
            request_deadline_ms=self.DEADLINE_MS, **kwargs
        )
        certifier = network.register("certifier")
        return network, mailboxes, client, balancer, certifier

    def submit(self, env, network, template="read-t"):
        request_id = next_request_id()
        network.send("client-x", "lb", request(env, template=template, request_id=request_id))
        return request_id

    def test_timed_out_read_is_rerouted_under_a_fresh_id(self, env, setup):
        network, mailboxes, client, balancer, _ = self.build(setup)
        first = self.submit(env, network)
        env.run(until=1.0)
        assert [r.request.request_id for r in drain(mailboxes["replica-0"])] == [first]
        env.run(until=self.DEADLINE_MS + 1.0)
        retried = drain(mailboxes["replica-1"])
        assert len(retried) == 1
        fresh = retried[0].request.request_id
        assert fresh != first
        assert balancer.retry_lineage == {first: [first, fresh]}
        assert drain(client) == []
        stats = balancer.stats()
        assert (stats["timed_out"], stats["rerouted_reads"]) == (1, 1)
        assert stats["dispatched"] == 1  # a retry is not a new dispatch
        # The retry's answer reaches the client under its original id.
        network.send("replica-1", "lb", response_for(retried[0]))
        env.run(until=self.DEADLINE_MS + 2.0)
        replies = drain(client)
        assert [(r.request_id, r.committed) for r in replies] == [(first, True)]
        assert balancer.stats()["outstanding"] == 0

    def test_timed_out_update_acked_from_the_decision_log(self, env, setup):
        network, mailboxes, client, balancer, certifier = self.build(setup)
        rid = self.submit(env, network, template="write-t")
        env.run(until=self.DEADLINE_MS + 1.0)
        queries = drain(certifier)
        assert len(queries) == 1 and isinstance(queries[0], FateQuery)
        assert (queries[0].request_id, queries[0].reply_to) == (rid, "lb")
        network.send("certifier", "lb", FateReply(rid, committed=True, commit_version=7))
        env.run(until=self.DEADLINE_MS + 2.0)
        replies = drain(client)
        assert [(r.request_id, r.committed, r.commit_version) for r in replies] == [
            (rid, True, 7)
        ]
        stats = balancer.stats()
        assert (stats["timed_out"], stats["fate_commits"], stats["fate_aborts"]) == (1, 1, 0)
        assert stats["v_system"] == 7
        assert stats["outstanding"] == 0
        assert balancer.fenced_request_ids == []
        assert [r.commit_version for r in balancer.history.records] == [7]
        # Nothing was retried: no replica saw a second attempt.
        assert drain(mailboxes["replica-1"]) == []

    def test_fenced_update_is_retried_elsewhere(self, env, setup):
        network, mailboxes, client, balancer, certifier = self.build(setup)
        rid = self.submit(env, network, template="write-t")
        env.run(until=self.DEADLINE_MS + 1.0)
        assert len(drain(mailboxes["replica-0"])) == 1
        assert len(drain(certifier)) == 1
        network.send("certifier", "lb", FateReply(rid, committed=False))
        env.run(until=self.DEADLINE_MS + 2.0)
        assert balancer.fenced_request_ids == [rid]
        retried = drain(mailboxes["replica-1"])
        assert len(retried) == 1
        fresh = retried[0].request.request_id
        assert balancer.retry_lineage == {rid: [rid, fresh]}
        assert drain(client) == []
        stats = balancer.stats()
        assert (stats["fate_aborts"], stats["retried_updates"]) == (1, 1)
        assert stats["fate_commits"] == 0

    def test_exhausted_read_attempts_fail_the_client(self, env, setup):
        network, mailboxes, client, balancer, _ = self.build(setup, max_attempts=2)
        rid = self.submit(env, network)
        env.run(until=2 * self.DEADLINE_MS + 1.0)
        replies = drain(client)
        assert len(replies) == 1
        assert replies[0].request_id == rid and not replies[0].committed
        assert "read-only transaction failed" in replies[0].abort_reason
        assert "(2 attempts)" in replies[0].abort_reason
        stats = balancer.stats()
        assert (stats["timed_out"], stats["rerouted_reads"]) == (2, 1)
        assert stats["outstanding"] == 0

    def test_exhausted_update_attempts_fail_the_client(self, env, setup):
        network, mailboxes, client, balancer, certifier = self.build(setup, max_attempts=1)
        rid = self.submit(env, network, template="write-t")
        env.run(until=self.DEADLINE_MS + 1.0)
        network.send("certifier", "lb", FateReply(rid, committed=False))
        env.run(until=self.DEADLINE_MS + 2.0)
        replies = drain(client)
        assert len(replies) == 1
        assert replies[0].request_id == rid and not replies[0].committed
        assert "fate resolved as aborted (1 attempts)" in replies[0].abort_reason
        assert balancer.fenced_request_ids == [rid]
        stats = balancer.stats()
        assert (stats["fate_aborts"], stats["retried_updates"]) == (1, 0)
        assert stats["outstanding"] == 0

    def test_unanswered_fate_query_reports_outcome_unknown(self, env, setup):
        network, mailboxes, client, balancer, certifier = self.build(setup)
        rid = self.submit(env, network, template="write-t")
        env.run(until=2_000.0)
        # 40 queries, 25 ms apart: the whole fate budget, then give up.
        queries = drain(certifier)
        assert len(queries) == 40
        assert {q.request_id for q in queries} == {rid}
        replies = drain(client)
        assert len(replies) == 1 and not replies[0].committed
        assert "outcome unknown" in replies[0].abort_reason
        stats = balancer.stats()
        assert (stats["unresolved"], stats["fate_commits"], stats["fate_aborts"]) == (1, 0, 0)
        assert stats["outstanding"] == 0

    def test_replica_down_reroutes_in_flight_reads(self, env, setup):
        network, mailboxes, client, balancer, _ = self.build(setup)
        rid = self.submit(env, network)
        env.run(until=1.0)
        assert len(drain(mailboxes["replica-0"])) == 1
        balancer.replica_down("replica-0")
        env.run(until=2.0)
        # Not failed: re-routed like a timed-out read, before any deadline.
        assert drain(client) == []
        retried = drain(mailboxes["replica-1"])
        assert len(retried) == 1
        assert balancer.retry_lineage == {rid: [rid, retried[0].request.request_id]}
        stats = balancer.stats()
        assert (stats["timed_out"], stats["rerouted_reads"]) == (0, 1)
        assert stats["active"] == {"replica-0": 0, "replica-1": 1}

    def test_replica_down_fate_resolves_in_flight_updates(self, env, setup):
        network, mailboxes, client, balancer, certifier = self.build(setup)
        rid = self.submit(env, network, template="write-t")
        env.run(until=1.0)
        balancer.replica_down("replica-0")
        env.run(until=2.0)
        assert drain(client) == []
        queries = drain(certifier)
        assert [q.request_id for q in queries] == [rid]
        assert balancer.stats()["timed_out"] == 0
