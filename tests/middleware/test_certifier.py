"""Tests for the certifier: certification, ordering, propagation, counters."""

import pytest

from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    ClientRequest,
    CommitApplied,
    GlobalCommitNotice,
    RecoveryReply,
    RecoveryRequest,
    RefreshWriteset,
    RoutedRequest,
)
from repro.sim import RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet

from .conftest import Harness, fixed_latency_network, low_variance_params


@pytest.fixture
def setup(env):
    network = fixed_latency_network(env)
    replicas = ["replica-0", "replica-1", "replica-2"]
    mailboxes = {name: network.register(name) for name in replicas}
    certifier = Certifier(
        env=env,
        network=network,
        perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
        replica_names=replicas,
        level="sc-coarse",
    )
    return network, mailboxes, certifier


def ws(key, value=1, table="t"):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": value})])


def certify(network, origin, snapshot, writeset, request_id=1, txn_id=1):
    network.send(
        origin,
        "certifier",
        CertifyRequest(
            txn_id=txn_id,
            origin=origin,
            snapshot_version=snapshot,
            writeset=writeset,
            request_id=request_id,
        ),
    )


def drain(mailbox):
    messages = []
    while len(mailbox):
        messages.append(mailbox.receive().value)
    return messages


class TestCertification:
    def test_first_transaction_commits_at_version_1(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1))
        env.run()
        replies = [m for m in drain(mailboxes["replica-0"]) if isinstance(m, CertifyReply)]
        assert len(replies) == 1
        assert replies[0].certified
        assert replies[0].commit_version == 1
        assert certifier.commit_version == 1

    def test_conflicting_concurrent_transactions_second_aborts(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        certify(network, "replica-1", 0, ws(1), request_id=2)
        env.run()
        reply0 = drain(mailboxes["replica-0"])[0]
        reply1 = [m for m in drain(mailboxes["replica-1"]) if isinstance(m, CertifyReply)][0]
        assert reply0.certified
        assert not reply1.certified
        assert reply1.conflict_with == 1
        assert certifier.abort_count == 1

    def test_non_conflicting_concurrent_transactions_both_commit(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        certify(network, "replica-1", 0, ws(2), request_id=2)
        env.run()
        assert certifier.commit_version == 2
        assert certifier.abort_count == 0

    def test_fresh_snapshot_does_not_conflict_with_older_commit(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        drain(mailboxes["replica-0"])
        certify(network, "replica-0", 1, ws(1), request_id=2)  # snapshot includes v1
        env.run()
        reply = [m for m in drain(mailboxes["replica-0"]) if isinstance(m, CertifyReply)][0]
        assert reply.certified
        assert reply.commit_version == 2

    def test_refresh_fanout_excludes_origin(self, env):
        """One refresh message per commit, shared by the N-1 non-origin
        replicas; every replica installs the version exactly once."""
        harness = Harness(env, num_replicas=3)
        for proxy in harness.proxies.values():
            proxy.engine.database.load_row("t", {"id": 1, "v": 0})
        fanout = []
        harness.network.add_tap(
            lambda sender, recipient, message: fanout.append((recipient, message))
            if isinstance(message, RefreshWriteset) else None
        )
        request = ClientRequest(
            request_id=1, template="write-t", params={"key": 1, "v": 5},
            session_id="s", reply_to="lb", submit_time=0.0,
        )
        harness.network.send("lb", "replica-0", RoutedRequest(request, 0))
        env.run()
        assert sorted(recipient for recipient, _ in fanout) == ["replica-1", "replica-2"]
        first, second = (message for _, message in fanout)
        assert first == second
        assert first.commit_version == 1
        assert first.origin == "replica-0"
        origin = harness.proxy(0)
        assert (origin.committed_count, origin.refresh_applied_count) == (1, 0)
        for other in (harness.proxy(1), harness.proxy(2)):
            assert other.refresh_applied_count == 1
            assert other.duplicate_refreshes_ignored == 0
        for proxy in harness.proxies.values():
            assert proxy.v_local == 1
            assert proxy.engine.database.table("t").read(1, 1)["v"] == 5

    def test_total_order_is_serial_and_contiguous(self, env, setup):
        network, mailboxes, certifier = setup
        for i in range(5):
            certify(network, "replica-0", 0, ws(key=i + 10), request_id=i)
        env.run()
        replies = [m for m in drain(mailboxes["replica-0"]) if isinstance(m, CertifyReply)]
        versions = [r.commit_version for r in replies if r.certified]
        assert versions == [1, 2, 3, 4, 5]


class TestProgressTracking:
    def test_applied_versions_updated(self, env, setup):
        network, mailboxes, certifier = setup
        network.send("replica-1", "certifier", CommitApplied("replica-1", 4))
        env.run()
        assert certifier.applied_versions["replica-1"] == 4

    def test_applied_versions_monotonic(self, env, setup):
        network, mailboxes, certifier = setup
        network.send("replica-1", "certifier", CommitApplied("replica-1", 4))
        network.send("replica-1", "certifier", CommitApplied("replica-1", 2))
        env.run()
        assert certifier.applied_versions["replica-1"] == 4

    def test_replication_horizon_is_minimum(self, env, setup):
        network, mailboxes, certifier = setup
        for name, version in [("replica-0", 5), ("replica-1", 3), ("replica-2", 9)]:
            network.send(name, "certifier", CommitApplied(name, version))
        env.run()
        assert certifier.replication_horizon() == 3


class TestRecovery:
    def test_recovery_reply_contains_missed_entries(self, env, setup):
        network, mailboxes, certifier = setup
        for i in range(3):
            certify(network, "replica-0", i, ws(key=i + 1), request_id=i)
        env.run()
        drain(mailboxes["replica-1"])
        network.send("replica-1", "certifier", RecoveryRequest("replica-1", 1))
        env.run()
        replies = [m for m in drain(mailboxes["replica-1"]) if isinstance(m, RecoveryReply)]
        assert len(replies) == 1
        versions = [v for v, _ws in replies[0].entries]
        assert versions == [2, 3]


class TestEagerCounters:
    @pytest.fixture
    def eager(self, env):
        network = fixed_latency_network(env)
        replicas = ["replica-0", "replica-1"]
        mailboxes = {name: network.register(name) for name in replicas}
        certifier = Certifier(
            env=env,
            network=network,
            perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
            replica_names=replicas,
            level="eager",
        )
        return network, mailboxes, certifier

    def test_global_notice_after_all_replicas_apply(self, env, eager):
        network, mailboxes, certifier = eager
        certify(network, "replica-0", 0, ws(1), request_id=42)
        env.run()
        assert not [
            m for m in mailboxes["replica-0"]._store.peek_all()
            if isinstance(m, GlobalCommitNotice)
        ]
        drain(mailboxes["replica-0"])
        drain(mailboxes["replica-1"])
        network.send("replica-0", "certifier", CommitApplied("replica-0", 1))
        env.run()
        assert drain(mailboxes["replica-0"]) == []  # still waiting for replica-1
        network.send("replica-1", "certifier", CommitApplied("replica-1", 1))
        env.run()
        notices = [m for m in drain(mailboxes["replica-0"]) if isinstance(m, GlobalCommitNotice)]
        assert len(notices) == 1
        assert notices[0].commit_version == 1
        assert notices[0].request_id == 42

    def test_later_report_heals_a_lost_one(self, env, eager):
        """A replica applies in version order, so its report of v2 vouches
        for v1 too: a lost ``CommitApplied(1)`` must not leave v1's global
        commit awaited forever."""
        network, mailboxes, certifier = eager
        certify(network, "replica-0", 0, ws(1), request_id=41, txn_id=1)
        certify(network, "replica-0", 0, ws(2), request_id=42, txn_id=2)
        env.run()
        for version in (1, 2):
            network.send("replica-0", "certifier", CommitApplied("replica-0", version))
        # replica-1's report for v1 is lost; only the one for v2 arrives.
        network.send("replica-1", "certifier", CommitApplied("replica-1", 2))
        env.run()
        notices = [
            (m.commit_version, m.request_id)
            for m in drain(mailboxes["replica-0"])
            if isinstance(m, GlobalCommitNotice)
        ]
        assert notices == [(1, 41), (2, 42)]

    def test_removing_replica_releases_blocked_global_commit(self, env, eager):
        network, mailboxes, certifier = eager
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        drain(mailboxes["replica-0"])
        drain(mailboxes["replica-1"])
        network.send("replica-0", "certifier", CommitApplied("replica-0", 1))
        env.run()
        # replica-1 dies without applying; removing it unblocks the commit.
        certifier.remove_replica("replica-1")
        env.run()
        notices = [m for m in drain(mailboxes["replica-0"]) if isinstance(m, GlobalCommitNotice)]
        assert len(notices) == 1


class TestMembership:
    def test_remove_and_add_replica(self, env, setup):
        network, mailboxes, certifier = setup
        certifier.remove_replica("replica-2")
        assert "replica-2" not in certifier.replica_names
        certifier.add_replica("replica-2", applied_version=7)
        assert "replica-2" in certifier.replica_names
        assert certifier.applied_versions["replica-2"] == 7

    def test_removed_replica_not_in_fanout(self, env, setup):
        network, mailboxes, certifier = setup
        certifier.remove_replica("replica-2")
        certify(network, "replica-0", 0, ws(1))
        env.run()
        assert not [
            m for m in drain(mailboxes["replica-2"]) if isinstance(m, RefreshWriteset)
        ]
