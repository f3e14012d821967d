"""The paper's motivating example: hidden channels between clients.

Agent A executes a trade on behalf of Agent B and notifies B out of band
(a hidden communication channel the database cannot see).  B then checks
the database.  In a centralized database B always sees A's committed trade;
in a replicated database it depends on the consistency configuration:

* SESSION consistency only guarantees A sees A's *own* updates — B may
  read a stale replica and miss the trade;
* the lazy strong-consistency techniques (SC-COARSE / SC-FINE) guarantee
  B sees it, while still propagating updates lazily.

This example makes the race observable by *pausing* update propagation:
we crash-stop nothing, but we pick the weakest configurations and inspect
the version B's read snapshot was taken at.

Run:  python examples/hidden_channel.py
"""

from repro import ReplicatedDatabase, resolve_policy
from repro.workloads import MicroBenchmark

LEVELS = ["baseline", "session", "sc-coarse", "sc-fine", "eager"]


def trade_scenario(level, seed):
    """Returns (trade_value, value_b_observed, b_snapshot, trade_version)."""
    workload = MicroBenchmark(update_types=10, rows_per_table=500)
    cluster = ReplicatedDatabase(workload, num_replicas=6, level=level, seed=seed)
    # Background traffic keeps the replicas unevenly busy, so the least-
    # active routing spreads A and B across replicas — as in production.
    from repro.metrics import MetricsCollector

    cluster.add_clients(12, MetricsCollector())
    cluster.run(300.0)

    agent_a = cluster.open_session("agent-a")
    agent_b = cluster.open_session("agent-b")

    # Warm up B's routing so its next read lands on an arbitrary replica.
    agent_b.execute("micro-read-12", {"key": 1})

    # Agent A executes the trade (an update on table t0) and, once the
    # commit is acknowledged, tells Agent B over the hidden channel.
    response = agent_a.execute("micro-update-0", {"key": 1})
    trade_value = response.result

    # Agent B reacts to the out-of-band notification with a read.
    observed = agent_b.result("micro-read-12", {"key": 1})
    return (
        trade_value,
        observed["payload"],
        agent_b.last_response.snapshot_version,
        response.commit_version,
    )


def main():
    print(f"{'level':12s} {'trade seen by B?':18s} {'B snapshot':>10s} {'trade version':>14s}")
    for level in map(resolve_policy, LEVELS):
        # Try several seeds: under the weak configurations the race only
        # fires when B is routed to a replica the update has not reached.
        # "Stale" means B's snapshot predates the trade's commit version.
        missed = None
        for seed in range(20):
            trade, seen, snapshot, version = trade_scenario(level, seed)
            if snapshot < version:
                missed = (trade, seen, snapshot, version)
                break
        if missed:
            trade, seen, snapshot, version = missed
            print(f"{level.label:12s} {'MISSED (stale!)':18s} {snapshot:>10d} {version:>14d}")
            assert not level.is_strong, "a strong level exposed a stale read!"
        else:
            print(f"{level.label:12s} {'always seen':18s} {'>= trade':>10s} {'-':>14s}")
            if not level.is_strong:
                print(f"{'':12s} (weak level, but the race never fired in 20 seeds)")
    print()
    print("Strong consistency (EAGER / SC-COARSE / SC-FINE) closes the hidden-"
          "channel anomaly; SESSION and BASELINE can expose it.")


if __name__ == "__main__":
    main()
