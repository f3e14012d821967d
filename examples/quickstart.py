"""Quickstart: a strongly consistent replicated database in ~40 lines.

Builds a 4-replica cluster running the lazy fine-grained strong-consistency
configuration (the paper's best technique), executes a few transactions
through synchronous sessions, and shows that a second client immediately
observes the first client's committed update — the guarantee a centralized
database gives you, here at lazy-propagation cost.

Run:  python examples/quickstart.py
"""

from repro import ReplicatedDatabase
from repro.workloads import MicroBenchmark


def main():
    workload = MicroBenchmark(update_types=10, rows_per_table=1_000)
    cluster = ReplicatedDatabase(
        workload,
        num_replicas=4,
        level="sc-fine",
        seed=42,
    )
    print(f"cluster: {len(cluster.replicas)} replicas, level={cluster.policy.label}")

    alice = cluster.open_session("alice")
    bob = cluster.open_session("bob")

    # Alice reads a row, updates it, and gets the commit acknowledgment.
    row = alice.result("micro-read-12", {"key": 7})   # read table t0
    print(f"alice reads   key=7 -> payload={row['payload']}")
    response = alice.execute("micro-update-0", {"key": 7})  # update table t0
    print(
        f"alice updates key=7 -> payload={response.result} "
        f"(committed at global version {response.commit_version} "
        f"on {response.replica})"
    )

    # Bob — a different client, probably routed to a different replica —
    # immediately sees Alice's committed update: strong consistency.
    observed = bob.result("micro-read-12", {"key": 7})
    print(f"bob reads     key=7 -> payload={observed['payload']} "
          f"(snapshot v{bob.last_response.snapshot_version})")
    assert observed["payload"] == response.result, "strong consistency violated!"

    # The per-transaction latency breakdown the paper reports (Figure 4).
    stages = response.stages.as_dict()
    print("alice's update stages (ms): "
          + ", ".join(f"{name}={value:.2f}" for name, value in stages.items()))

    # Replicas converge to an identical copy once updates propagate.
    cluster.quiesce()
    print(f"replica versions after quiesce: {cluster.replica_versions()} "
          f"(global V_commit={cluster.commit_version})")
    print("OK")


if __name__ == "__main__":
    main()
