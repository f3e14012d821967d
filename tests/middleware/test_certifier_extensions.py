"""Tests for certifier extensions: halt semantics and readset validation."""

import pytest

from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
)
from repro.sim import RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet

from .conftest import fixed_latency_network, low_variance_params


@pytest.fixture
def setup(env):
    network = fixed_latency_network(env)
    replicas = ["replica-0", "replica-1"]
    mailboxes = {name: network.register(name) for name in replicas}
    certifier = Certifier(
        env=env,
        network=network,
        perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
        replica_names=replicas,
        level="sc-coarse",
    )
    return network, mailboxes, certifier


def ws(key, value=1):
    return WriteSet([WriteOp("t", key, OpKind.UPDATE, {"id": key, "v": value})])


def certify(network, origin, snapshot, writeset, request_id=1, readset=None):
    network.send(
        origin,
        "certifier",
        CertifyRequest(
            txn_id=request_id,
            origin=origin,
            snapshot_version=snapshot,
            writeset=writeset,
            request_id=request_id,
            readset=readset,
        ),
    )


def drain(mailbox):
    out = []
    while len(mailbox):
        out.append(mailbox.receive().value)
    return out


class TestHalt:
    def test_halted_certifier_decides_nothing(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1))
        certifier.halt()
        env.run()
        assert certifier.commit_version == 0
        replies = [m for m in drain(mailboxes["replica-0"])
                   if isinstance(m, CertifyReply)]
        assert replies == []

    def test_halt_mid_certification_discards_decision(self, env, setup):
        """A decision in flight at halt time must never materialize — the
        exact failover race the chaos test exposed."""
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1))
        # Let the request arrive and enter service, then halt mid-service.
        env.run(until=0.2)
        certifier.halt()
        env.run()
        assert certifier.commit_version == 0
        assert len(certifier.log) == 0

    def test_decisions_before_halt_stand(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1))
        env.run()
        assert certifier.commit_version == 1
        certifier.halt()
        certify(network, "replica-0", 1, ws(2), request_id=2)
        env.run()
        assert certifier.commit_version == 1


class TestReadsetValidation:
    def test_read_write_conflict_aborts(self, env, setup):
        network, mailboxes, certifier = setup
        # T1 commits a write to key 1.
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        # T2 (snapshot 0) wrote key 2 but *read* key 1 -> backward
        # validation fails.
        certify(network, "replica-1", 0, ws(2), request_id=2,
                readset=frozenset({("t", 1)}))
        env.run()
        reply = [m for m in drain(mailboxes["replica-1"])
                 if isinstance(m, CertifyReply)][0]
        assert not reply.certified
        assert reply.conflict_with == 1

    def test_disjoint_readset_commits(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        certify(network, "replica-1", 0, ws(2), request_id=2,
                readset=frozenset({("t", 99)}))
        env.run()
        reply = [m for m in drain(mailboxes["replica-1"])
                 if isinstance(m, CertifyReply)][0]
        assert reply.certified

    def test_no_readset_means_plain_fcw(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        certify(network, "replica-1", 0, ws(2), request_id=2, readset=None)
        env.run()
        reply = [m for m in drain(mailboxes["replica-1"])
                 if isinstance(m, CertifyReply)][0]
        assert reply.certified

    def test_fresh_snapshot_passes_readset_validation(self, env, setup):
        network, mailboxes, certifier = setup
        certify(network, "replica-0", 0, ws(1), request_id=1)
        env.run()
        # Snapshot 1 already includes the write to key 1.
        certify(network, "replica-1", 1, ws(2), request_id=2,
                readset=frozenset({("t", 1)}))
        env.run()
        reply = [m for m in drain(mailboxes["replica-1"])
                 if isinstance(m, CertifyReply)][0]
        assert reply.certified
