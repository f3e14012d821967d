"""Tests for the optional extensions: relaxed currency, serializable
certification and load spreading."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase, resolve_policy
from repro.histories import staleness_report
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark, TransactionTemplate


def build(level="sc-coarse", **config):
    workload = MicroBenchmark(update_types=20, rows_per_table=200)
    return ReplicatedDatabase(
        workload, ClusterConfig(num_replicas=4, level=level, seed=3, **config)
    )


class TestRelaxedCurrency:
    def run_with_bound(self, bound):
        cluster = build(level=f"relaxed:{bound}")
        collector = MetricsCollector()
        cluster.add_clients(16, collector)
        cluster.run(2_000.0)
        return cluster

    def test_staleness_respects_the_bound(self):
        for bound in (0, 5, 20):
            cluster = self.run_with_bound(bound)
            report = staleness_report(cluster.history)
            assert report["max"] <= bound, f"bound {bound} violated"

    def test_bound_zero_equals_coarse_grained(self):
        """Freshness bound 0 degenerates to SC-COARSE: zero staleness."""
        cluster = self.run_with_bound(0)
        assert staleness_report(cluster.history)["max"] == 0.0

    def test_looser_bound_means_less_waiting(self):
        tight = self.run_with_bound(0)
        loose = self.run_with_bound(50)
        # More transactions complete when the freshness constraint relaxes
        # (no version waits), or at least no fewer.
        assert len(loose.history) >= len(tight.history)

    def test_relaxed_level_classification(self):
        policy = resolve_policy("relaxed")
        assert policy.is_lazy
        assert policy.uses_start_delay
        assert not policy.is_strong


class TestSerializableCertification:
    def write_skew_cluster(self, certify_reads):
        """A two-template workload that exhibits write skew: each template
        reads both rows and writes one of them."""

        def make_body(write_table, read_table):
            def body(ctx, params):
                mine = ctx.read_required(write_table, params["key"])
                ctx.read_required(read_table, params["key"])  # the skew read
                ctx.update(write_table, params["key"], {"payload": mine["payload"] + 1})
                return mine["payload"] + 1

            return body

        workload = MicroBenchmark(update_types=4, total_types=4,
                                  num_tables=4, rows_per_table=10)
        catalog = workload.catalog()
        catalog.register(TransactionTemplate(
            "skew-a", frozenset({"t0", "t1"}), make_body("t0", "t1"), is_update=True
        ))
        catalog.register(TransactionTemplate(
            "skew-b", frozenset({"t0", "t1"}), make_body("t1", "t0"), is_update=True
        ))
        return ReplicatedDatabase(
            workload,
            ClusterConfig(num_replicas=2, level="baseline", seed=1,
                          certify_reads=certify_reads,
                          early_certification=False),
        )

    def run_concurrent_skew(self, certify_reads):
        """Launch skew-a and skew-b truly concurrently (two replicas) and
        report how many committed."""
        from repro.middleware.messages import ClientRequest, next_request_id

        cluster = self.write_skew_cluster(certify_reads)
        outcomes = []
        mailboxes = {}
        for name, template in (("c1", "skew-a"), ("c2", "skew-b")):
            mailboxes[name] = cluster.network.register(name)
            cluster.network.send(
                name, "lb",
                ClientRequest(
                    request_id=next_request_id(),
                    template=template,
                    params={"key": 1},
                    session_id=name,
                    reply_to=name,
                    submit_time=cluster.env.now,
                ),
            )
        cluster.env.run(until=5_000.0)
        for name, mailbox in mailboxes.items():
            assert len(mailbox) == 1
            outcomes.append(mailbox.receive().value)
        return outcomes

    def test_write_skew_commits_under_plain_gsi(self):
        outcomes = self.run_concurrent_skew(certify_reads=False)
        assert all(r.committed for r in outcomes)  # SI's famous anomaly

    def test_write_skew_prevented_with_readset_validation(self):
        outcomes = self.run_concurrent_skew(certify_reads=True)
        committed = [r for r in outcomes if r.committed]
        aborted = [r for r in outcomes if not r.committed]
        assert len(committed) == 1
        assert len(aborted) == 1
        assert "conflict" in aborted[0].abort_reason

    def test_disjoint_transactions_unaffected(self):
        cluster = build(certify_reads=True)
        session = cluster.open_session("s")
        for key in range(1, 6):
            assert session.execute("micro-update-0", {"key": key}).committed


class TestRoutingPolicies:
    """Least-active, the paper's policy, is the balancer's only one."""

    @pytest.mark.parametrize("routing", ["least-active"])
    def test_all_policies_spread_load(self, routing):
        cluster = build()
        cluster.add_clients(8, MetricsCollector())
        cluster.run(600.0)
        assert all(proxy.executed_count > 0 for proxy in cluster.replicas.values())


class TestResourceUtilization:
    def test_cpu_utilization_tracked(self):
        cluster = build()
        collector = MetricsCollector()
        cluster.add_clients(8, collector)
        cluster.run(1_000.0)
        for proxy in cluster.replicas.values():
            utilization = proxy.cpu.utilization()
            assert 0.0 < utilization <= 1.0
