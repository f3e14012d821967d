"""Monitoring a replicated cluster: metrics snapshots and throughput timelines.

Runs a loaded SC-FINE cluster, crashes a replica mid-run and recovers it,
sampling the ``cluster.metrics`` registry around the fault and plotting the
throughput timeline with the library's ASCII chart — the crash dip and the
recovery catch-up are visible directly in the terminal.

Run:  python examples/monitoring.py
"""

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.metrics import MetricsCollector, line_chart
from repro.workloads import MicroBenchmark


def main():
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=300),
        ClusterConfig(num_replicas=4, level="sc-fine", seed=31),
    )
    collector = MetricsCollector(measure_start=0.0, measure_end=6_000.0)
    cluster.add_clients(12, collector)
    injector = FaultInjector(cluster)

    def report(moment):
        metrics = cluster.metrics
        replicas = metrics.tree("replica")
        lags = {name: r["lag"] for name, r in replicas.items()}
        crashed = [name for name, r in replicas.items() if r["crashed"]]
        print(f"t={metrics.get('cluster.time_ms'):6.0f}ms  {moment:22s} "
              f"V_commit={metrics.get('certifier.commit_version'):5d}  lags={lags}  "
              f"crashed={crashed or '-'}")

    cluster.run(1_500.0)
    report("steady state")

    injector.crash_replica("replica-3")
    cluster.run(2_000.0)
    report("just after crash")

    cluster.run(3_500.0)
    report("degraded (3/4 up)")

    injector.recover_replica("replica-3")
    cluster.run(4_000.0)
    report("recovering")

    cluster.run(6_000.0)
    report("catching up")
    # The recovered replica drains its backlog while the cluster keeps
    # committing near the apply capacity, so the lag shrinks gradually;
    # the least-active balancer automatically routes around it meanwhile,
    # and the version tags keep every served read strongly consistent.

    timeline = collector.timeline(bucket_ms=250.0)
    print()
    print(line_chart(
        [t for t, _ in timeline],
        {"TPS": [tps for _, tps in timeline]},
        title="throughput timeline (crash at t=1500ms, recovery at t=3500ms)",
        x_label="ms",
        width=72,
        height=12,
    ))

    summary = collector.summary()
    print(f"\noverall: {summary.tps:.0f} TPS, p95 response "
          f"{summary.p95_response_ms:.2f} ms, aborts {summary.aborted}")
    print("OK")


if __name__ == "__main__":
    main()
