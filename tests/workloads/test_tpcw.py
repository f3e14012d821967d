"""Tests for the TPC-W workload: mixes, schema, templates, behaviour."""

import pytest

from repro import ReplicatedDatabase
from repro.sim import RngRegistry
from repro.storage import Database
from repro.workloads import MIXES, MIX_UPDATE_FRACTION, TPCWBenchmark
from repro.workloads.tpcw import _UPDATE_TEMPLATES


@pytest.fixture
def rng():
    return RngRegistry(3).stream("tpcw")


def small_tpcw(mix="shopping"):
    return TPCWBenchmark(mix=mix, num_items=60, num_customers=40, num_authors=20)


def tpcw_cluster(mix="shopping", level="sc-fine", n=2, seed=5):
    return ReplicatedDatabase(
        small_tpcw(mix), num_replicas=n, level=level, seed=seed
    )


class TestMixes:
    def test_three_mixes_defined(self):
        assert set(MIXES) == {"browsing", "shopping", "ordering"}

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_weights_sum_to_one(self, mix):
        assert sum(MIXES[mix].values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_update_fraction_matches_paper(self, mix):
        update_weight = sum(
            w for name, w in MIXES[mix].items() if name in _UPDATE_TEMPLATES
        )
        assert update_weight == pytest.approx(MIX_UPDATE_FRACTION[mix])

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            TPCWBenchmark(mix="nonsense")

    def test_statistical_update_fraction(self, rng):
        wl = small_tpcw("ordering")
        catalog = wl.catalog()
        picks = [wl.next_call("client-1", rng) for _ in range(3_000)]
        fraction = sum(
            1 for c in picks if catalog[c.template].is_update
        ) / len(picks)
        assert 0.45 < fraction < 0.55


class TestCatalog:
    def test_twelve_templates(self):
        assert len(small_tpcw().catalog()) == 12

    def test_update_flags(self):
        for t in small_tpcw().catalog():
            assert t.is_update == (t.name in _UPDATE_TEMPLATES)

    def test_table_sets_within_schema(self):
        wl = small_tpcw()
        tables = {s.name for s in wl.schemas()}
        for t in wl.catalog():
            assert t.table_set <= tables

    def test_buy_confirm_has_widest_table_set(self):
        catalog = small_tpcw().catalog()
        widest = max(catalog, key=lambda t: len(t.table_set))
        assert widest.name == "tpcw-buy-confirm"


class TestPopulate:
    def test_cardinalities(self, rng):
        wl = small_tpcw()
        db = Database()
        for schema in wl.schemas():
            db.create_table(schema)
        wl.populate(db, rng)
        assert db.table("item").count(0) == 60
        assert db.table("customer").count(0) == 40
        assert db.table("author").count(0) == 20
        assert db.table("shopping_cart").count(0) == 40
        assert db.table("orders").count(0) == 40
        assert db.table("order_line").count(0) >= 40
        assert db.version == 0

    def test_customer_binding_is_stable(self):
        wl = small_tpcw()
        assert wl.customer_for("client-7") == wl.customer_for("client-7")
        assert wl.customer_for("client-7") != wl.customer_for("client-8")
        assert 1 <= wl.customer_for("client-999") <= wl.num_customers


class TestTemplatesEndToEnd:
    """Every TPC-W template runs and returns sensible data."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return tpcw_cluster()

    @pytest.fixture(scope="class")
    def session(self, cluster):
        return cluster.open_session("client-1")

    def test_home(self, cluster, session):
        cid = cluster.workload.customer_for("client-1")
        out = session.result("tpcw-home", {"customer_id": cid, "promo_items": [1, 2]})
        assert out["customer"]["id"] == cid
        assert len(out["promotions"]) == 2

    def test_product_detail(self, session):
        out = session.result("tpcw-product-detail", {"item_id": 5})
        assert out["item"]["id"] == 5
        assert out["author"]["id"] == out["item"]["author_id"]

    def test_search_subject(self, cluster, session):
        subject = cluster.replica(0).engine.database.table("item").read(1, 0)["subject"]
        out = session.result("tpcw-search-subject", {"subject": subject})
        assert any(item["subject"] == subject for item in out["items"])

    def test_search_author(self, cluster, session):
        author_id = cluster.replica(0).engine.database.table("item").read(1, 0)["author_id"]
        out = session.result("tpcw-search-author", {"author_id": author_id})
        assert all(item["author_id"] == author_id for item in out["items"])

    def test_new_products(self, session):
        out = session.result("tpcw-new-products", {"subject": "ARTS"})
        assert "items" in out and "authors" in out

    def test_best_sellers(self, session):
        out = session.result("tpcw-best-sellers", {"subject": "ARTS"})
        assert isinstance(out["top_items"], list)

    def test_cart_then_buy_confirm(self, cluster, session):
        cid = cluster.workload.customer_for("client-1")
        added = session.result(
            "tpcw-shopping-cart", {"customer_id": cid, "item_id": 3, "qty": 2}
        )
        assert added["qty"] == 2
        cart = session.result("tpcw-buy-request", {"customer_id": cid})
        assert len(cart["lines"]) == 1
        order_id = cid * 1_000_000 + 1
        confirmed = session.result(
            "tpcw-buy-confirm", {"customer_id": cid, "order_id": order_id}
        )
        assert confirmed["lines"] == 1
        assert confirmed["total"] > 0
        # Cart emptied, order visible.
        after = session.result("tpcw-buy-request", {"customer_id": cid})
        assert after["lines"] == []
        inquiry = session.result("tpcw-order-inquiry", {"customer_id": cid})
        assert inquiry["order"]["id"] == order_id

    def test_buy_confirm_decrements_stock(self, cluster, session):
        cid = cluster.workload.customer_for("client-1")
        before = session.result("tpcw-product-detail", {"item_id": 9})["item"]["stock"]
        session.execute("tpcw-shopping-cart", {"customer_id": cid, "item_id": 9, "qty": 1})
        session.execute(
            "tpcw-buy-confirm", {"customer_id": cid, "order_id": cid * 1_000_000 + 2}
        )
        after = session.result("tpcw-product-detail", {"item_id": 9})["item"]["stock"]
        assert after == before - 1

    def test_customer_registration(self, cluster, session):
        cid = cluster.workload.customer_for("client-1")
        session.execute(
            "tpcw-customer-registration",
            {"customer_id": cid, "discount": 0.42, "city": "city-5"},
        )
        out = session.result("tpcw-home", {"customer_id": cid, "promo_items": [1]})
        assert out["customer"]["discount"] == 0.42

    def test_admin_confirm_raises_price(self, session):
        before = session.result("tpcw-product-detail", {"item_id": 11})["item"]["price"]
        session.execute("tpcw-admin-confirm", {"item_id": 11})
        after = session.result("tpcw-product-detail", {"item_id": 11})["item"]["price"]
        assert after > before


class TestCallGeneration:
    def test_buy_confirm_order_ids_unique_per_client(self, rng):
        wl = small_tpcw("ordering")
        order_ids = set()
        for _ in range(2_000):
            call = wl.next_call("client-3", rng)
            if call.template == "tpcw-buy-confirm":
                assert call.params["order_id"] not in order_ids
                order_ids.add(call.params["order_id"])
        assert order_ids  # the mix produced at least one buy-confirm

    def test_think_time_exponential_mean(self, rng):
        wl = TPCWBenchmark(think_time_mean_ms=100.0, num_items=10,
                           num_customers=10, num_authors=5)
        samples = [wl.think_time_ms("c", rng) for _ in range(5_000)]
        assert abs(sum(samples) / len(samples) - 100.0) < 10.0

    def test_zero_think_time(self, rng):
        wl = TPCWBenchmark(think_time_mean_ms=0.0, num_items=10,
                           num_customers=10, num_authors=5)
        assert wl.think_time_ms("c", rng) == 0.0
