"""The metric-name catalog in docs/OBSERVABILITY.md is the contract: every
name the registry publishes is in the table, and every name in the table
is published."""

import re
from pathlib import Path

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.workloads import MicroBenchmark

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: per-instance path segments, as the table spells them
PLACEHOLDERS = (
    (r"^replica\.[^.]+\.", "replica.NAME."),
    (r"^certifier\.shard\.\d+\.", "certifier.shard.N."),
    (r"^balancer\.active\..+$", "balancer.active.NAME"),
    (r"^(network\.(?:dropped|injected)_by_reason)\..+$", r"\1.*"),
)
#: published only once a message has been dropped / injected
BY_REASON = {"network.dropped_by_reason.*", "network.injected_by_reason.*"}


def catalog() -> set:
    """``prefix + key`` for every backticked pair in the table's rows."""
    table = DOC.read_text(encoding="utf-8").split("### Name catalog", 1)[1]
    names = set()
    for row in table.splitlines():
        if not row.startswith("| `"):
            continue
        prefixes, keys = row.strip("|").split("|")[:2]
        for prefix in re.findall(r"`([\w.]+\.)`", prefixes):
            names.update(prefix + key for key in re.findall(r"`(\w+|\*)`", keys))
    return names


def published(cluster) -> set:
    names = set()
    for name in cluster.metrics.collect():
        for pattern, placeholder in PLACEHOLDERS:
            name = re.sub(pattern, placeholder, name)
        names.add(name)
    return names


def run(config):
    cluster = ReplicatedDatabase(MicroBenchmark(update_types=5, rows_per_table=50), config)
    cluster.add_clients(3)
    cluster.run(300.0)
    return cluster


def test_every_subsystem_on_publishes_exactly_the_catalog():
    cluster = run(ClusterConfig.elastic(
        num_replicas=2, seed=3, num_partitions=2, scrub_interval_ms=100.0,
    ))
    names = published(cluster)
    assert names - catalog() == set()
    assert catalog() - names <= BY_REASON


def test_default_cluster_publishes_the_catalog_minus_absent_subsystems():
    names = published(run(ClusterConfig(num_replicas=2, seed=3)))
    assert names - catalog() == set()
    absent = catalog() - names - BY_REASON
    assert absent and all(
        name.startswith(("scrub.", "bootstrap."))
        for name in absent
    )
