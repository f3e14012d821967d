"""Rows handed to a transaction body are read-only.

A committed row image is one dict for the whole cluster: the certified
``WriteOp`` in the certifier's log, the refresh messages and every replica's
stored ``RowVersion`` all hold it (``Workload.populate`` documents the same
for the version-0 image).  A body that edits a row it read would rewrite
history everywhere at once, so every template of the shipped workloads runs
here against reads that hand out ``MappingProxyType`` views: an in-place
edit raises, the proxy reports it as a template bug, and the test fails.
"""

from types import MappingProxyType

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.sim import RngRegistry
from repro.storage import StorageEngine
from repro.workloads import MicroBenchmark, TPCCBenchmark, TPCWBenchmark
from repro.workloads.base import TemplateCatalog, TransactionTemplate

WORKLOADS = {
    "micro": lambda: MicroBenchmark(update_types=20, rows_per_table=40),
    "tpcw": lambda: TPCWBenchmark(
        mix="ordering", num_items=30, num_customers=20, num_authors=10
    ),
    "tpcc": lambda: TPCCBenchmark(
        num_warehouses=1, districts_per_warehouse=3,
        customers_per_district=5, num_items=12,
    ),
}


@pytest.fixture
def read_only_rows(monkeypatch):
    """Every row a transaction reads — stored image or its own buffered
    write — arrives as a read-only view."""
    read, scan = StorageEngine.read, StorageEngine.scan

    def view(row):
        return None if row is None else MappingProxyType(row)

    monkeypatch.setattr(
        StorageEngine, "read", lambda self, *args: view(read(self, *args)))
    monkeypatch.setattr(
        StorageEngine, "scan",
        lambda self, *args: [view(row) for row in scan(self, *args)])


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_no_template_mutates_a_row_it_read(kind, read_only_rows):
    workload = WORKLOADS[kind]()
    cluster = ReplicatedDatabase(workload, ClusterConfig(num_replicas=2, seed=5))
    rng = RngRegistry(9).stream("calls")
    session = cluster.open_session("s")
    pending = set(workload.catalog().names)
    for _ in range(3_000):
        if not pending:
            break
        call = workload.next_call("client-0", rng)
        response = session.try_execute(call.template, call.params)
        assert "raised" not in (response.abort_reason or ""), response.abort_reason
        if response.committed:
            pending.discard(call.template)
    assert not pending, f"templates never committed: {sorted(pending)}"
    cluster.quiesce()
    first, second = (cluster.replica(i).engine.database for i in range(2))
    assert first.version == second.version > 0
    assert first.recompute_digests() == second.recompute_digests() == first.digests()


def test_a_mutating_template_is_caught(read_only_rows):
    """The harness above has teeth."""

    def scribble(ctx, params):
        ctx.read("t0", params["key"])["payload"] = -1

    class Scribbling(MicroBenchmark):
        def catalog(self):
            return TemplateCatalog(
                [*super().catalog(),
                 TransactionTemplate("scribble", frozenset({"t0"}), scribble)]
            )

    cluster = ReplicatedDatabase(
        Scribbling(rows_per_table=10), ClusterConfig(num_replicas=1, seed=5))
    response = cluster.open_session("s").try_execute("scribble", {"key": 1})
    assert not response.committed
    assert "TypeError" in response.abort_reason
    assert cluster.replica(0).engine.database.table("t0").read(1, 0)["payload"] != -1
