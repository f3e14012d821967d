"""Fault tolerance under the crash-recovery model.

Demonstrates the availability story of Section IV:

1. a replica crashes under load — the system keeps serving, strong
   consistency holds, and the recovered replica replays the certifier's
   durable decision log to an identical copy;
2. the certifier fails over to a standby reconstructed from the decision
   log (state-machine replication of a deterministic component);
3. the eager approach's weakness: with a dead replica left in the
   membership, update commits stop being acknowledged entirely.

Run:  python examples/fault_tolerance.py
"""

from repro import ReplicatedDatabase
from repro.faults import FaultInjector
from repro.histories import is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark


def build(level, clients=10):
    workload = MicroBenchmark(update_types=20, rows_per_table=200)
    cluster = ReplicatedDatabase(workload, num_replicas=4, level=level, seed=13)
    collector = MetricsCollector()
    cluster.add_clients(clients, collector)
    return cluster, collector


def replica_crash_and_recovery():
    print("=== replica crash and recovery (SC-COARSE) ===")
    cluster, collector = build("sc-coarse")
    injector = FaultInjector(cluster)

    cluster.run(500.0)
    print(f"t=500ms   committed so far: {cluster.commit_version}")

    injector.crash_replica("replica-2")
    print("t=500ms   replica-2 CRASHED (soft state lost, durable data kept)")
    cluster.run(1_500.0)
    lag = cluster.commit_version - cluster.replica("replica-2").v_local
    print(f"t=1500ms  system still committing "
          f"(V_commit={cluster.commit_version}); replica-2 lags {lag} versions")

    injector.recover_replica("replica-2")
    print("t=1500ms  replica-2 RECOVERING: replaying the certifier's log")
    cluster.run(3_500.0)
    lag = cluster.commit_version - cluster.replica("replica-2").v_local
    print(f"t=3500ms  replica-2 caught up to within {lag} versions")

    assert is_strongly_consistent(cluster.history)
    print("strong consistency held through crash and recovery\n")


def certifier_failover():
    print("=== certifier failover (SC-FINE) ===")
    cluster, collector = build("sc-fine")
    injector = FaultInjector(cluster)

    cluster.run(500.0)
    before = cluster.commit_version
    standby = injector.failover_certifier()
    print(f"t=500ms   certifier FAILED OVER to {standby.name} "
          f"(log reconstructed at V_commit={standby.commit_version})")
    assert standby.commit_version == before

    cluster.run(1_500.0)
    print(f"t=1500ms  commits continue: V_commit={cluster.commit_version}")
    assert cluster.commit_version > before
    assert is_strongly_consistent(cluster.history)
    print("strong consistency held across the failover\n")


def eager_availability_weakness():
    print("=== the eager approach vs a dead replica ===")
    cluster, collector = build("eager", clients=6)
    injector = FaultInjector(cluster)
    cluster.run(500.0)

    injector.crash_replica("replica-1", exclude_from_membership=False)
    committed_before = len([s for s in collector.samples if s.is_update and s.committed])
    cluster.run(2_000.0)
    committed_after = len([s for s in collector.samples if s.is_update and s.committed])
    print(f"replica-1 dead but still a member: "
          f"{committed_after - committed_before} update acks in 1.5 s "
          "(every update blocks on the dead replica)")

    cluster.certifier.remove_replica("replica-1")
    marker = len([s for s in collector.samples if s.is_update and s.committed])
    cluster.run(3_500.0)
    resumed = len([s for s in collector.samples if s.is_update and s.committed]) - marker
    print(f"after membership exclusion: {resumed} update acks in 1.5 s — "
          "eager strong consistency needs failure detection to stay live")


def main():
    replica_crash_and_recovery()
    certifier_failover()
    eager_availability_weakness()


if __name__ == "__main__":
    main()
