"""Tests for the replica proxy: stages, refresh ordering, early
certification, read-only fast path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, ReplicatedDatabase
from repro.middleware import (
    ClientRequest,
    CommitApplied,
    RefreshWriteset,
    RoutedRequest,
)
from repro.middleware.messages import next_request_id
from repro.sim import Environment
from repro.storage import OpKind, WriteOp, WriteSet
from repro.workloads import MicroBenchmark

from .conftest import Harness


def ws(key, value=1, table="t"):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": value})])


def route(harness, template, params, start_version=0, request_id=None,
          session="s1", replica="replica-0"):
    request_id = request_id if request_id is not None else id(params) % 100000
    request = ClientRequest(
        request_id=request_id,
        template=template,
        params=params,
        session_id=session,
        reply_to="lb",
        submit_time=harness.env.now,
    )
    harness.network.send("lb", replica, RoutedRequest(request, start_version))
    return request_id


def seed(harness, key=1, v=0):
    """Load a row into every replica at version 0."""
    for proxy in harness.proxies.values():
        proxy.engine.database.load_row("t", {"id": key, "v": v})


class TestReadOnlyPath:
    def test_read_only_commits_locally_with_no_version(self, env, harness):
        seed(harness, 1, 7)
        route(harness, "read-t", {"key": 1}, request_id=1)
        env.run()
        responses = harness.responses()
        assert len(responses) == 1
        response = responses[0]
        assert response.committed
        assert response.commit_version is None
        assert response.result == {"id": 1, "v": 7}
        assert response.updated_tables == frozenset()
        assert harness.certifier.certified_count == 0

    def test_read_only_stages_have_no_certify_or_sync(self, env, harness):
        seed(harness)
        route(harness, "read-t", {"key": 1}, request_id=1)
        env.run()
        stages = harness.responses()[0].stages
        assert stages.certify == 0.0
        assert stages.sync == 0.0
        assert stages.global_ == 0.0
        assert stages.queries > 0.0
        assert stages.commit > 0.0


class TestUpdatePath:
    def test_update_certifies_and_commits(self, env, harness):
        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 5}, request_id=1)
        env.run()
        response = harness.responses()[0]
        assert response.committed
        assert response.commit_version == 1
        assert response.updated_tables == frozenset({"t"})
        assert harness.proxy(0).v_local == 1

    def test_update_propagates_to_other_replica(self, env, harness):
        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 5}, request_id=1)
        env.run()
        other = harness.proxy(1)
        assert other.v_local == 1
        assert other.engine.database.table("t").read(1, 1)["v"] == 5
        assert other.refresh_applied_count == 1

    def test_certification_conflict_aborts_with_reason(self, env, harness):
        # Disable early certification so the conflict reaches the certifier.
        for proxy in harness.proxies.values():
            proxy.early_certification = False
        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 5}, request_id=1, replica="replica-0")
        route(harness, "write-t", {"key": 1, "v": 6}, request_id=2, replica="replica-1")
        env.run()
        committed = [r for r in harness.responses() if r.committed]
        assert len(committed) == 1
        assert harness.certifier.abort_count + sum(
            p.early_abort_count for p in harness.proxies.values()
        ) >= 1

    def test_version_stage_waits_for_start_version(self, env, harness):
        seed(harness)
        # Ask replica-1 (still at version 0) for start_version=1.
        route(harness, "read-t", {"key": 1}, start_version=1,
              request_id=2, replica="replica-1")
        env.run(until=1.0)
        assert harness.responses() == []  # still waiting
        # Now commit an update via replica-0 so version 1 propagates.
        route(harness, "write-t", {"key": 1, "v": 9}, request_id=1, replica="replica-0")
        env.run()
        responses = harness.responses()
        read = next(r for r in responses if r.request_id == 2)
        assert read.committed
        assert read.stages.version > 0.0
        assert read.result["v"] == 9  # strong consistency: saw the update
        assert read.snapshot_version == 1


class TestRefreshApplication:
    def test_refreshes_apply_in_version_order(self, env, harness):
        proxy = harness.proxy(1)
        seed(harness)
        # Deliver versions out of order straight to the proxy.
        harness.network.send("certifier", "replica-1", RefreshWriteset(2, ws(1, 20), "replica-0", 11))
        harness.network.send("certifier", "replica-1", RefreshWriteset(3, ws(1, 30), "replica-0", 12))
        env.run()
        assert proxy.v_local == 0  # gap at version 1 blocks application
        assert proxy.pending_refresh_count == 2
        harness.network.send("certifier", "replica-1", RefreshWriteset(1, ws(1, 10), "replica-0", 10))
        env.run()
        assert proxy.v_local == 3
        assert proxy.engine.database.table("t").read(1, 3)["v"] == 30

    def test_duplicate_refresh_ignored(self, env, harness):
        proxy = harness.proxy(1)
        seed(harness)
        harness.network.send("certifier", "replica-1", RefreshWriteset(1, ws(1, 10), "replica-0", 10))
        env.run()
        assert proxy.v_local == 1
        harness.network.send("certifier", "replica-1", RefreshWriteset(1, ws(1, 10), "replica-0", 10))
        env.run()
        assert proxy.v_local == 1
        assert proxy.refresh_applied_count == 1


def drive_refreshes(arrivals, sizes, vectors):
    """Feed one proxy the ``(gap_ms, version)`` arrivals; return what it did:
    ``(time, version)`` per install and per ``CommitApplied`` report."""
    env = Environment()
    harness = Harness(env)
    proxy = harness.proxy(0)
    installs, reports = [], []
    apply_refresh = proxy.engine.apply_refresh
    send = harness.network.send

    def recording_apply(writeset, version, after=None):
        installs.append((env.now, version))
        apply_refresh(writeset, version, after=after)

    def recording_send(sender, recipient, message):
        if isinstance(message, CommitApplied):
            reports.append((env.now, message.commit_version))
        send(sender, recipient, message)

    proxy.engine.apply_refresh = recording_apply
    harness.network.send = recording_send

    def feed():
        for gap, version in arrivals:
            yield env.timeout(gap)
            writeset = WriteSet([
                WriteOp("t", version * 10 + i, OpKind.INSERT,
                        {"id": version * 10 + i, "v": version})
                for i in range(sizes[version - 1])
            ])
            send(
                "certifier", "replica-0",
                RefreshWriteset(
                    version, writeset, "replica-1", version,
                    prev_versions=((0, version - 1),) if vectors else None,
                ),
            )

    env.process(feed())
    env.run()
    return installs, reports, proxy


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_shard_vector_is_the_full_prefix(data):
    """In-order apply is the no-vector case of the one applier: at one
    shard the explicit vector ``((0, v - 1),)`` and no vector at all give
    the same apply order, virtual apply times and progress reports, for any
    arrival permutation with duplicates."""
    n = data.draw(st.integers(1, 8), label="versions")
    order = list(data.draw(st.permutations(range(1, n + 1)), label="arrival"))
    for duplicate in data.draw(st.lists(st.integers(1, n), max_size=4)):
        order.insert(data.draw(st.integers(0, len(order))), duplicate)
    gaps = data.draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.4, 1.5]),
                 min_size=len(order), max_size=len(order)),
        label="gaps",
    )
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    arrivals = list(zip(gaps, order))
    plain = drive_refreshes(arrivals, sizes, vectors=False)
    vectored = drive_refreshes(arrivals, sizes, vectors=True)
    assert plain[:2] == vectored[:2]
    installs, reports, proxy = plain
    assert [version for _t, version in installs] == list(range(1, n + 1))
    assert [version for _t, version in reports] == list(range(1, n + 1))
    assert proxy.v_local == n and proxy.pending_refresh_count == 0
    assert not proxy.partition_clocks  # no vector, no partition clock
    assert set(vectored[2].partition_clocks) == {0}


class TestEarlyCertification:
    def test_statement_side_conflict_with_pending_refresh(self, env, harness):
        """A pending (unapplied) refresh writing the same row aborts the
        local update at statement time."""
        proxy = harness.proxy(1)
        seed(harness)
        # Version 2 arrives but version 1 is missing -> stays pending.
        harness.network.send("certifier", "replica-1", RefreshWriteset(2, ws(1, 20), "replica-0", 11))
        env.run()
        assert proxy.pending_refresh_count == 1
        route(harness, "write-t", {"key": 1, "v": 99}, request_id=5, replica="replica-1")
        env.run()
        response = harness.responses()[0]
        assert not response.committed
        assert "early certification" in response.abort_reason
        assert proxy.early_abort_count == 1

    @pytest.mark.parametrize("num_partitions", [1, 4])
    def test_refresh_under_apply_is_left_to_the_certifier(self, num_partitions):
        """The refresh leaves the pending map *before* its CPU hold, at
        every shard count: a local statement writing one of its rows during
        the hold passes the statement-side check and is aborted by the
        certifier instead."""
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=4, rows_per_table=10),
            ClusterConfig(num_replicas=2, seed=1, num_partitions=num_partitions),
        )
        env, proxy = cluster.env, cluster.replica(1)

        def submit(replica):
            request = ClientRequest(
                request_id=next_request_id(), template="micro-update-0",
                params={"key": 1}, session_id="s", reply_to="lb",
                submit_time=env.now,
            )
            cluster.network.send("lb", replica, RoutedRequest(request, 0))

        submit("replica-0")
        while not proxy.cpu.in_use:  # until replica-1's applier holds the CPU
            cluster.run(env.now + 0.05)
        assert proxy.v_local == 0 and proxy.refresh_applied_count == 0
        assert proxy.pending_refresh_count == 0
        submit("replica-1")
        cluster.run(env.now + 50.0)
        assert proxy.v_local == 1 and proxy.refresh_applied_count == 1
        assert (proxy.aborted_count, proxy.early_abort_count) == (1, 0)
        assert cluster.certifier.abort_count == 1
        # The refresh carried a vector exactly when there are several shards.
        assert bool(proxy.partition_clocks) == (num_partitions > 1)

    def test_precheck_against_newer_committed_write(self, env, harness):
        """The committed-row pre-check: a transaction on a stale snapshot
        aborts locally instead of round-tripping to the certifier."""
        proxy = harness.proxy(0)
        seed(harness)
        txn = proxy.engine.begin(snapshot_version=0)
        proxy.engine.update(txn, "t", 1, {"v": 50})
        # Apply a newer committed version under it.
        proxy.engine.apply_refresh(ws(1, 20), 1)
        reason = proxy.early_certification_conflict(txn, "t", 1)
        assert reason is not None and "overwritten" in reason

    def test_no_conflict_returns_none(self, env, harness):
        proxy = harness.proxy(0)
        seed(harness)
        txn = proxy.engine.begin()
        proxy.engine.update(txn, "t", 1, {"v": 50})
        assert proxy.early_certification_conflict(txn, "t", 1) is None


class TestEagerStage:
    def test_global_stage_present_only_in_eager(self, env):
        eager = Harness(env, level="eager")
        seed(eager, 1, 0)
        route(eager, "write-t", {"key": 1, "v": 5}, request_id=1)
        env.run()
        response = eager.responses()[0]
        assert response.committed
        assert response.stages.global_ > 0.0

    def test_lazy_has_zero_global_stage(self, env, harness):
        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 5}, request_id=1)
        env.run()
        assert harness.responses()[0].stages.global_ == 0.0


class TestCrash:
    def test_crashed_replica_does_not_respond(self, env, harness):
        seed(harness)
        harness.proxy(0).crash()
        harness.network.take_down("replica-0")
        route(harness, "read-t", {"key": 1}, request_id=1)
        env.run()
        assert harness.responses() == []

    def test_recovery_replays_via_certifier(self, env, harness):
        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 1}, request_id=1, replica="replica-0")
        env.run()
        harness.responses()
        victim = harness.proxy(1)
        victim.crash()
        harness.network.take_down("replica-1")
        # Two more commits while replica-1 is down.
        route(harness, "write-t", {"key": 1, "v": 2}, request_id=2, replica="replica-0")
        env.run()
        route(harness, "write-t", {"key": 1, "v": 3}, request_id=3, replica="replica-0")
        env.run()
        assert victim.v_local == 1
        victim.recover()
        env.run()
        assert victim.v_local == 3
        assert victim.engine.database.table("t").read(1, 3)["v"] == 3

    def test_recovery_drops_stale_pending_refresh(self, env, harness):
        """A recovery reply must purge pending entries at or below the
        engine's version — a stale replayed writeset can never match
        ``engine.version + 1`` and would otherwise linger forever."""
        from repro.middleware import RecoveryReply

        seed(harness)
        route(harness, "write-t", {"key": 1, "v": 1}, request_id=1, replica="replica-0")
        env.run()
        route(harness, "write-t", {"key": 1, "v": 2}, request_id=2, replica="replica-0")
        env.run()
        harness.responses()
        victim = harness.proxy(1)
        assert victim.v_local == 2
        # A duplicate replay of already-applied versions (e.g. a second
        # recovery racing a refresh that caught the replica up first).
        victim._enqueue_refresh(1, ws(1, 1))
        victim._receive_recovery(
            RecoveryReply("replica-1", ((1, ws(1, 1)), (2, ws(1, 2))))
        )
        assert victim.pending_refresh_count == 0



class TestRoutedRequestDedup:
    """A network that duplicates delivers every message twice — client
    requests, routed requests and client responses alike.  Under closed-loop
    clients each client request still executes once, on one replica, and
    each client takes only its own request's answer.  A network that cannot
    duplicate keeps no request ids at all."""

    CLIENTS = 6

    @classmethod
    def run_cluster(cls, duplicate_prob):
        from collections import Counter

        from repro.faults.audit import audit
        from repro.middleware import ClientResponse, TxnResponse

        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(num_replicas=3, seed=11, net_duplicate_prob=duplicate_prob),
        )
        # Sends, not deliveries: each send is delivered twice at
        # duplicate_prob=1.
        executed, answered = Counter(), Counter()
        routed = set()

        def tap(sender, recipient, message):
            if isinstance(message, RoutedRequest):
                # Checked as it happens, because a second dispatch multiplies
                # the load: the copy runs too, and its client's next request
                # goes out early on the copied answer.
                rid = message.request.request_id
                assert rid not in routed, f"request {rid} routed twice"
                routed.add(rid)
            elif isinstance(message, TxnResponse):
                executed[message.request_id] += 1
            elif isinstance(message, ClientResponse):
                answered[message.request_id] += 1

        cluster.network.add_tap(tap)
        cluster.add_clients(cls.CLIENTS)
        cluster.run(600.0)
        cluster.quiesce()
        report = audit(cluster)
        assert report.ok, report.failures
        assert len(routed) > 100
        return cluster, routed, executed, answered

    def test_every_duplicated_request_executes_once(self):
        cluster, routed, executed, _ = self.run_cluster(1.0)
        proxies = cluster.replicas.values()
        assert cluster.certifier.certified_count > 0
        # The balancer routes each client request once and drops the
        # network's copy of it.
        balancer = cluster.metrics.tree("balancer")
        assert balancer["dispatched"] == len(routed)
        assert len(routed) - self.CLIENTS <= balancer["duplicate_requests"] <= len(routed)
        # A replica runs a routed request once, whatever the number of
        # copies, and answers it once.  At most one request per client is
        # still on the wire or running.
        assert set(executed.values()) == {1}
        ran = sum(proxy.executed_count for proxy in proxies)
        ignored = sum(proxy.duplicate_requests_ignored for proxy in proxies)
        assert len(routed) - self.CLIENTS <= len(executed) <= ran <= len(routed)
        assert len(routed) - self.CLIENTS <= ignored <= len(routed)

    def test_closed_loop_clients_take_only_their_own_answer(self):
        cluster, _, _, answered = self.run_cluster(1.0)
        # Each client request is answered once; a client counts an answer
        # only when it names its outstanding request, so the network's
        # copies never complete a later request.  At most one answer per
        # client is still on the wire.
        assert set(answered.values()) == {1}
        assert len(answered) - self.CLIENTS <= cluster.client_pool.completed <= len(answered)

    def test_a_network_that_cannot_duplicate_keeps_no_request_ids(self):
        cluster, routed, executed, _ = self.run_cluster(0.0)
        proxies = cluster.replicas.values()
        assert set(executed.values()) == {1}
        assert all(proxy.duplicate_requests_ignored == 0 for proxy in proxies)
        assert all(proxy._routed_seen is None for proxy in proxies)
        assert cluster.load_balancer._dispatched_ids is None
        assert cluster.metrics.get("balancer.duplicate_requests") == 0
