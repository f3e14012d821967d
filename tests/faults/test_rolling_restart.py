"""Rolling-restart chaos: the nemesis serially crash-restarts every replica
of an elastic cluster under load, holding one victim down past the departed
grace and truncating the decision log while it is gone — so its return must
go through a full checkpoint re-bootstrap, not a replay.  The standard
safety audit then applies unchanged."""

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector, Nemesis
from repro.faults.audit import audit
from repro.sim.rng import RngRegistry
from repro.workloads import MicroBenchmark


def rolling_run(seed, duration_ms=2_000.0, num_replicas=3, **config_overrides):
    config = ClusterConfig.elastic(
        num_replicas=num_replicas, seed=seed, level="sc-fine", **config_overrides
    )
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )
    cluster.add_clients(6, retry_aborts=True)
    nemesis = Nemesis(
        cluster,
        RngRegistry(seed).stream("nemesis"),
        duration_ms=duration_ms,
        injector=FaultInjector(cluster),
        kill_certifier=False,
        rolling_restart=True,
    )
    # The rolling schedule is open-ended (each stop waits for the returnee
    # to reach live), so run in slices until the nemesis reports done.
    limit = cluster.env.now + duration_ms + 30_000.0
    while not nemesis.finished and cluster.env.now < limit:
        cluster.run(cluster.env.now + 500.0)
    cluster.quiesce(max_wait_ms=60_000.0)
    return cluster, nemesis


def test_rolling_restart_cycles_every_replica_back_to_live():
    """One victim is held past the departed grace while the log is
    truncated: its recovery request is refused and the lifecycle brings it
    back via checkpoint instead, like every other replica to live."""
    cluster, nemesis = rolling_run(13)
    assert nemesis.finished
    crashed = {r for _, a, r in _action_triples(nemesis) if a == "rolling-crash"}
    live = {r for _, a, r in _action_triples(nemesis) if a == "rolling-live"}
    assert crashed == set(cluster.replica_names)
    assert live == crashed, "a restarted replica never reached live"
    purges = [d for _, a, d in _action_triples(nemesis) if a == "rolling-purge"]
    assert len(purges) == 1
    assert cluster.certifier.stale_recovery_refusals >= 1
    boot = cluster.bootstrap.stats()
    assert boot["rebootstraps_triggered"] >= 1
    assert boot["bootstraps_completed"] >= 1
    assert boot["active"] == []
    # Every replica back in membership and routable is the audit's
    # ``not_live`` check.
    report = audit(cluster)
    assert report.ok, report.failures
    assert report.committed > 100


def test_rolling_arm_off_by_default():
    """Without the opt-in flag the nemesis never emits rolling actions, so
    existing seeded chaos schedules replay unchanged."""
    config = ClusterConfig.self_healing(num_replicas=3, seed=3, level="sc-fine")
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )
    cluster.add_clients(6, retry_aborts=True)
    nemesis = Nemesis(
        cluster,
        RngRegistry(3).stream("nemesis"),
        duration_ms=900.0,
        injector=FaultInjector(cluster),
        kill_certifier=False,
    )
    cluster.run(1_600.0)
    cluster.quiesce(max_wait_ms=60_000.0)
    assert nemesis.rolling_restart is False
    assert all(
        not a.startswith("rolling") for _, a, _ in _action_triples(nemesis)
    )


def test_rolling_schedule_is_deterministic():
    def schedule(seed):
        _, nemesis = rolling_run(seed, duration_ms=1_200.0)
        return nemesis.actions

    assert schedule(5) == schedule(5)
    assert schedule(5) != schedule(6)


def _action_triples(nemesis):
    for t, action, detail in nemesis.actions:
        # Rolling actions log the replica name first in the detail string.
        yield t, action, str(detail).split()[0] if detail else detail
