"""Tests for the TPC-C-lite workload."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.histories import is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.sim import RngRegistry
from repro.storage import Database
from repro.workloads import TPCCBenchmark
from repro.workloads.tpcc import MIX, customer_key, district_key, order_key, stock_key


@pytest.fixture
def rng():
    return RngRegistry(4).stream("tpcc")


def small_tpcc(**kwargs):
    defaults = dict(num_warehouses=1, districts_per_warehouse=4,
                    customers_per_district=10, num_items=40)
    defaults.update(kwargs)
    return TPCCBenchmark(**defaults)


def tpcc_cluster(level="sc-fine", n=2, seed=6, **wl_kwargs):
    return ReplicatedDatabase(
        small_tpcc(**wl_kwargs), ClusterConfig(num_replicas=n, level=level, seed=seed)
    )


class TestKeys:
    def test_key_encodings_are_injective(self):
        seen = set()
        for w in range(1, 4):
            for d in range(1, 11):
                assert district_key(w, d) not in seen
                seen.add(district_key(w, d))
                for c in range(1, 31):
                    key = customer_key(w, d, c)
                    assert key not in seen
                    seen.add(key)

    def test_order_key_ordering_within_district(self):
        assert order_key(1, 2, 5) < order_key(1, 2, 6)

    def test_stock_key_unique_per_warehouse_item(self):
        assert stock_key(1, 5) != stock_key(2, 5)


class TestConfiguration:
    def test_mix_sums_to_one(self):
        assert sum(w for _n, w in MIX) == pytest.approx(1.0)

    def test_update_fraction(self):
        assert small_tpcc().update_fraction == pytest.approx(0.92)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            TPCCBenchmark(districts_per_warehouse=0)
        with pytest.raises(ValueError):
            TPCCBenchmark(customers_per_district=0)

    def test_catalog_has_five_templates(self):
        assert len(small_tpcc().catalog()) == 5


class TestPopulate:
    def test_cardinalities(self, rng):
        workload = small_tpcc()
        db = Database()
        for schema in workload.schemas():
            db.create_table(schema)
        workload.populate(db, rng)
        assert db.table("warehouse").count(0) == 1
        assert db.table("district").count(0) == 4
        assert db.table("customer").count(0) == 40
        assert db.table("item").count(0) == 40
        assert db.table("stock").count(0) == 40
        assert db.table("orders").count(0) == 0
        assert db.version == 0


class TestTransactions:
    @pytest.fixture(scope="class")
    def cluster(self):
        return tpcc_cluster()

    @pytest.fixture(scope="class")
    def session(self, cluster):
        return cluster.open_session("client-1")

    def test_new_order(self, session):
        result = session.result("tpcc-new-order", {
            "warehouse": 1, "district": 1, "customer": 3,
            "items": [(1, 2), (2, 1)],
        })
        assert result["total"] > 0
        assert result["order"] == order_key(1, 1, 1)

    def test_new_order_increments_district(self, session):
        result = session.result("tpcc-new-order", {
            "warehouse": 1, "district": 1, "customer": 4,
            "items": [(3, 1)],
        })
        assert result["order"] == order_key(1, 1, 2)  # next_o_id advanced

    def test_new_order_decrements_stock(self, cluster, session):
        db = cluster.replica(0).engine.database
        before = db.table("stock").read(stock_key(1, 10), db.version)["quantity"]
        session.execute("tpcc-new-order", {
            "warehouse": 1, "district": 2, "customer": 1,
            "items": [(10, 3)],
        })
        cluster.quiesce()
        after = db.table("stock").read(stock_key(1, 10), db.version)["quantity"]
        assert after in (before - 3, before - 3 + 91)

    def test_payment_moves_money(self, cluster, session):
        session.execute("tpcc-payment", {
            "warehouse": 1, "district": 1, "customer": 3,
            "amount": 120.0, "history_id": 1,
        })
        cluster.quiesce()
        db = cluster.replica(0).engine.database
        assert db.table("warehouse").read(1, db.version)["ytd"] == 120.0
        customer = db.table("customer").read(customer_key(1, 1, 3), db.version)
        assert customer["balance"] == -120.0
        assert customer["ytd_payment"] == 120.0

    def test_order_status_sees_latest_order(self, session):
        status = session.result("tpcc-order-status", {
            "warehouse": 1, "district": 1, "customer": 4,
        })
        assert status["order"] is not None
        assert status["lines"]

    def test_delivery_pops_oldest_new_order(self, session):
        delivered = session.result("tpcc-delivery", {
            "warehouse": 1, "district": 1, "carrier": 7,
        })
        assert delivered["delivered"] == order_key(1, 1, 1)
        again = session.result("tpcc-delivery", {
            "warehouse": 1, "district": 1, "carrier": 7,
        })
        assert again["delivered"] == order_key(1, 1, 2)

    def test_delivery_with_empty_queue(self, session):
        result = session.result("tpcc-delivery", {
            "warehouse": 1, "district": 4, "carrier": 2,
        })
        assert result["delivered"] is None

    def test_stock_level_counts(self, session):
        result = session.result("tpcc-stock-level", {
            "warehouse": 1, "district": 1, "threshold": 1000,
        })
        assert result["low_stock"] >= 0


class TestUnderLoad:
    def test_district_contention_causes_aborts_and_retries_win(self):
        """Concurrent new-orders on one district conflict at certification;
        with retries the workload still makes progress and order numbers
        stay unique."""
        cluster = ReplicatedDatabase(
            small_tpcc(districts_per_warehouse=1, customers_per_district=20),
            ClusterConfig(num_replicas=3, level="sc-coarse", seed=2),
        )
        collector = MetricsCollector()
        cluster.add_clients(8, collector, retry_aborts=True)
        cluster.run(1_500.0)
        cluster.quiesce()
        aborted = [s for s in collector.samples if not s.committed]
        assert aborted  # the hot district really conflicts
        db = cluster.replica(0).engine.database
        next_o = db.table("district").read(district_key(1, 1), db.version)["next_o_id"]
        orders = db.table("orders").count(db.version)
        assert orders == next_o - 1  # every committed order got a unique id

    def test_strong_consistency_on_tpcc(self):
        cluster = tpcc_cluster(level="sc-fine", n=3)
        collector = MetricsCollector()
        cluster.add_clients(8, collector)
        cluster.run(1_500.0)
        assert is_strongly_consistent(cluster.history)

    def test_replicas_converge(self):
        cluster = tpcc_cluster(level="session", n=3)
        collector = MetricsCollector()
        cluster.add_clients(6, collector)
        cluster.run(1_000.0)
        # Stop issuing by running only the propagation forward.
        cluster.quiesce(max_wait_ms=10_000.0)
        # Clients keep running during quiesce, so allow the tail to differ
        # by the in-flight window; check data identity at a common version.
        common = min(p.engine.database.version for p in cluster.replicas.values())
        reference = cluster.replica(0).engine.database
        for index in (1, 2):
            other = cluster.replica(index).engine.database
            for table in reference.table_names:
                for row in reference.table(table).scan(common):
                    assert other.table(table).read(row["id"], common) == row
