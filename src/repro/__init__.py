"""repro — reproduction of "Strongly consistent replication for a bargain"
(Krikellas, Elnikety, Vagena, Hodson; ICDE 2010).

A multi-master replicated database prototype with four consistency
configurations — eager strong consistency, lazy coarse-grained strong
consistency, lazy fine-grained strong consistency, and session
consistency — running on a deterministic discrete-event-simulated cluster
with a from-scratch snapshot-isolation storage engine.

Quickstart::

    from repro import ReplicatedDatabase
    from repro.workloads import MicroBenchmark

    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=10, rows_per_table=1000),
        num_replicas=3,
        level="sc-fine",
        seed=42,
    )
    session = cluster.open_session("alice")
    response = session.execute("micro-update-0", {"key": 7})
    print(response.commit_version)
"""

from .core import (
    ClusterConfig,
    ConsistencyPolicy,
    ReplicatedDatabase,
    SyncSession,
    VersionTracker,
    available_policies,
    register_policy,
    resolve_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ConsistencyPolicy",
    "ReplicatedDatabase",
    "SyncSession",
    "VersionTracker",
    "available_policies",
    "register_policy",
    "resolve_policy",
    "__version__",
]
