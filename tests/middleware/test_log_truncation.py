"""Tests for decision-log truncation and its interplay with recovery."""

import pytest

from repro.middleware import DecisionLog, LogEntry
from repro.storage import OpKind, WriteOp, WriteSet


def entry(version, key=1):
    ws = WriteSet([WriteOp("t", key, OpKind.UPDATE, {"id": key, "v": version})])
    return LogEntry(version, txn_id=version, origin="replica-0", writeset=ws)


def filled_log(n=10):
    log = DecisionLog()
    for version in range(1, n + 1):
        log.append(entry(version, key=version))
    return log


class TestTruncation:
    def test_truncate_drops_prefix(self):
        log = filled_log(10)
        dropped = log.truncate_to(4)
        assert dropped == 4
        assert log.truncation_version == 4
        assert log.first_version == 5
        assert log.last_version == 10
        assert len(log) == 6

    def test_truncate_is_idempotent(self):
        log = filled_log(10)
        log.truncate_to(4)
        assert log.truncate_to(4) == 0
        assert log.truncate_to(2) == 0  # never un-truncates

    def test_append_continues_after_truncation(self):
        log = filled_log(5)
        log.truncate_to(5)
        log.append(entry(6))
        assert log.last_version == 6
        assert log.entry(6).commit_version == 6

    def test_entry_below_truncation_raises(self):
        log = filled_log(10)
        log.truncate_to(4)
        with pytest.raises(KeyError):
            log.entry(4)
        assert log.entry(5).commit_version == 5

    def test_entries_after_across_truncation_raises(self):
        log = filled_log(10)
        log.truncate_to(4)
        with pytest.raises(KeyError):
            log.entries_after(2)
        assert [e.commit_version for e in log.entries_after(4)] == list(range(5, 11))

    def test_writesets_between_respects_truncation(self):
        log = filled_log(10)
        log.truncate_to(4)
        window = list(log.writesets_between(0, 6))
        assert len(window) == 2  # only v5 and v6 remain visible

    def test_clone_preserves_offset(self):
        log = filled_log(10)
        log.truncate_to(6)
        copy = log.clone()
        assert copy.truncation_version == 6
        assert copy.last_version == 10
        copy.append(entry(11))
        assert log.last_version == 10  # independent

    def test_truncate_everything(self):
        log = filled_log(3)
        assert log.truncate_to(99) == 3
        assert len(log) == 0
        assert log.last_version == 3
        log.append(entry(4))
        assert log.last_version == 4


class TestCertifierTruncation:
    def build(self, env):
        from repro.middleware import Certifier, CertifierPerformance, CommitApplied
        from repro.sim import RngRegistry

        from .conftest import fixed_latency_network, low_variance_params

        network = fixed_latency_network(env)
        replicas = ["replica-0", "replica-1"]
        for name in replicas:
            network.register(name)
        certifier = Certifier(
            env=env,
            network=network,
            perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
            replica_names=replicas,
            level="sc-coarse",
        )
        for version in range(1, 6):
            certifier.log.append(entry(version, key=version))
        return network, certifier

    def test_truncate_to_horizon(self, env):
        from repro.middleware import CommitApplied

        network, certifier = self.build(env)
        network.send("replica-0", "certifier", CommitApplied("replica-0", 5))
        network.send("replica-1", "certifier", CommitApplied("replica-1", 3))
        env.run()
        assert certifier.replication_horizon() == 3
        assert certifier.truncate_log() == 3
        assert certifier.log.first_version == 4

    def test_departed_replica_bounds_horizon(self, env):
        from repro.middleware import CommitApplied

        network, certifier = self.build(env)
        network.send("replica-0", "certifier", CommitApplied("replica-0", 5))
        network.send("replica-1", "certifier", CommitApplied("replica-1", 2))
        env.run()
        certifier.remove_replica("replica-1")  # crashed, may return
        assert certifier.replication_horizon() == 2
        assert certifier.truncate_log() == 2
        # Recovery replay for the departed replica still possible.
        assert [e.commit_version for e in certifier.log.entries_after(2)] == [3, 4, 5]
        certifier.add_replica("replica-1", applied_version=5)
        assert certifier.replication_horizon() == 5

    def test_stale_snapshot_aborts_conservatively(self, env):
        """A certify request whose window reaches below the truncated
        prefix must abort, never silently commit."""
        from repro.middleware import CertifyReply, CertifyRequest, CommitApplied

        network, certifier = self.build(env)
        network.send("replica-0", "certifier", CommitApplied("replica-0", 5))
        network.send("replica-1", "certifier", CommitApplied("replica-1", 5))
        env.run()
        certifier.truncate_log()
        ws = WriteSet([WriteOp("t", 99, OpKind.UPDATE, {"id": 99, "v": 0})])
        network.send(
            "replica-0", "certifier",
            CertifyRequest(txn_id=1, origin="replica-0", snapshot_version=1,
                           writeset=ws, request_id=1),
        )
        env.run()
        mailbox = network.mailbox("replica-0")
        replies = []
        while len(mailbox):
            message = mailbox.receive().value
            if isinstance(message, CertifyReply):
                replies.append(message)
        assert len(replies) == 1
        assert not replies[0].certified
