"""TPC-C-lite: the order-entry benchmark, scaled for the simulated cluster.

The paper notes (Section IV) that "the workloads of the TPC-C and TPC-W
transaction benchmarks run serializably under SI and GSI".  This module
provides a compact but faithful TPC-C: the full five-transaction mix
(new-order 45 %, payment 43 %, order-status 4 %, delivery 4 %, stock-level
4 %) over the warehouse/district/customer/item/stock/order schema.

TPC-C stresses the replicated system differently from TPC-W:

* the **district row is hot** — every new-order increments
  ``district.next_o_id``, so concurrent new-orders in one district are
  write-write conflicts that certification must abort (first-committer
  wins); clients retry, as the TPC-C spec prescribes;
* writesets are **large** (a new-order writes ~2 + 2·items rows), loading
  the refresh pipeline.

Primary keys are integers with positional encoding (district 42 of
warehouse 3 is ``3 * 100 + 42``), matching how the engine's single-column
primary keys work.
"""

from __future__ import annotations

from typing import Sequence

from ..middleware.perfmodel import PerformanceParams
from ..sim.rng import Rng
from ..storage.database import Database
from ..storage.schema import Column, TableSchema
from .base import TemplateCatalog, TransactionTemplate, TxnCall, Workload

__all__ = ["TPCCBenchmark", "district_key", "customer_key", "stock_key", "order_key"]

#: the standard TPC-C transaction mix
MIX = (
    ("tpcc-new-order", 0.45),
    ("tpcc-payment", 0.43),
    ("tpcc-order-status", 0.04),
    ("tpcc-delivery", 0.04),
    ("tpcc-stock-level", 0.04),
)

#: order lines in one new-order transaction, at most (at least 3)
MAX_ORDER_LINES = 8


def district_key(warehouse: int, district: int) -> int:
    """Primary key of a district."""
    return warehouse * 100 + district


def customer_key(warehouse: int, district: int, customer: int) -> int:
    """Primary key of a customer."""
    return district_key(warehouse, district) * 10_000 + customer


def stock_key(warehouse: int, item: int) -> int:
    """Primary key of a stock row."""
    return warehouse * 1_000_000 + item


def order_key(warehouse: int, district: int, order: int) -> int:
    """Primary key of an order."""
    return district_key(warehouse, district) * 1_000_000 + order


# ---------------------------------------------------------------------------
# Transaction bodies
# ---------------------------------------------------------------------------

def _new_order(ctx, params):
    """Place an order: the hot district increment plus per-item stock
    updates and order lines."""
    warehouse = params["warehouse"]
    district = params["district"]
    d_key = district_key(warehouse, district)

    ctx.read_required("warehouse", warehouse)
    row = ctx.read_required("district", d_key)
    order_number = row["next_o_id"]
    ctx.update("district", d_key, {"next_o_id": order_number + 1})
    ctx.read_required("customer", customer_key(warehouse, district, params["customer"]))

    o_key = order_key(warehouse, district, order_number)
    ctx.insert("orders", {
        "id": o_key,
        "district_id": d_key,
        "customer_id": customer_key(warehouse, district, params["customer"]),
        "ol_cnt": len(params["items"]),
        "carrier_id": 0,
    })
    ctx.insert("new_order", {"id": o_key, "district_id": d_key})

    total = 0.0
    for line_number, (item_id, quantity) in enumerate(params["items"], start=1):
        item = ctx.read_required("item", item_id)
        s_key = stock_key(warehouse, item_id)
        stock = ctx.read_required("stock", s_key)
        new_quantity = stock["quantity"] - quantity
        if new_quantity < 10:
            new_quantity += 91  # TPC-C's restock rule
        ctx.update("stock", s_key, {"quantity": new_quantity,
                                    "ytd": stock["ytd"] + quantity})
        amount = item["price"] * quantity
        total += amount
        ctx.insert("order_line", {
            "id": o_key * 100 + line_number,
            "order_id": o_key,
            "item_id": item_id,
            "quantity": quantity,
            "amount": amount,
        })
    return {"order": o_key, "total": round(total, 2)}


def _payment(ctx, params):
    """Record a customer payment against warehouse/district/customer."""
    warehouse = params["warehouse"]
    district = params["district"]
    amount = params["amount"]
    d_key = district_key(warehouse, district)
    c_key = customer_key(warehouse, district, params["customer"])

    w_row = ctx.read_required("warehouse", warehouse)
    ctx.update("warehouse", warehouse, {"ytd": round(w_row["ytd"] + amount, 2)})
    d_row = ctx.read_required("district", d_key)
    ctx.update("district", d_key, {"ytd": round(d_row["ytd"] + amount, 2)})
    c_row = ctx.read_required("customer", c_key)
    ctx.update("customer", c_key, {
        "balance": round(c_row["balance"] - amount, 2),
        "ytd_payment": round(c_row["ytd_payment"] + amount, 2),
    })
    ctx.insert("history", {
        "id": params["history_id"],
        "customer_id": c_key,
        "amount": amount,
    })
    return {"customer": c_key, "amount": amount}


def _order_status(ctx, params):
    """Read a customer's most recent order and its lines."""
    c_key = customer_key(params["warehouse"], params["district"], params["customer"])
    customer = ctx.read_required("customer", c_key)
    order_keys = ctx.lookup("orders", "customer_id", c_key, cost_ms=2.0)
    if not order_keys:
        return {"customer": customer, "order": None, "lines": []}
    latest = max(order_keys)
    order = ctx.read("orders", latest)
    lines = [
        ctx.read("order_line", key)
        for key in ctx.lookup("order_line", "order_id", latest, cost_ms=1.5)
    ]
    return {"customer": customer, "order": order, "lines": lines}


def _delivery(ctx, params):
    """Deliver the oldest undelivered order of one district."""
    d_key = district_key(params["warehouse"], params["district"])
    pending = ctx.lookup("new_order", "district_id", d_key, cost_ms=2.0)
    if not pending:
        # Nothing to deliver: TPC-C treats this as a legal empty delivery.
        # Touch the district so the transaction is still an update (it
        # would update carrier info in the full spec).
        row = ctx.read_required("district", d_key)
        ctx.update("district", d_key, {"ytd": row["ytd"]})
        return {"delivered": None}
    oldest = min(pending)
    ctx.delete("new_order", oldest)
    order = ctx.read_required("orders", oldest)
    ctx.update("orders", oldest, {"carrier_id": params["carrier"]})
    customer = ctx.read_required("customer", order["customer_id"])
    amount = sum(
        ctx.read("order_line", key)["amount"]
        for key in ctx.lookup("order_line", "order_id", oldest, cost_ms=1.5)
    )
    ctx.update("customer", order["customer_id"],
               {"balance": round(customer["balance"] + amount, 2)})
    return {"delivered": oldest}


def _stock_level(ctx, params):
    """Count recent items whose stock fell below a threshold."""
    warehouse = params["warehouse"]
    d_key = district_key(warehouse, params["district"])
    district = ctx.read_required("district", d_key)
    next_order = district["next_o_id"]
    low = 0
    seen: set[int] = set()
    for order_number in range(max(1, next_order - 5), next_order):
        o_key = order_key(warehouse, params["district"], order_number)
        for line_key in ctx.lookup("order_line", "order_id", o_key, cost_ms=1.5):
            line = ctx.read("order_line", line_key)
            if line is None or line["item_id"] in seen:
                continue
            seen.add(line["item_id"])
            stock = ctx.read("stock", stock_key(warehouse, line["item_id"]))
            if stock is not None and stock["quantity"] < params["threshold"]:
                low += 1
    return {"low_stock": low}


class TPCCBenchmark(Workload):
    """TPC-C-lite over W warehouses x D districts."""

    name = "tpcc"

    def __init__(
        self,
        num_warehouses: int = 2,
        districts_per_warehouse: int = 10,
        customers_per_district: int = 30,
        num_items: int = 200,
        think_time_mean_ms: float = 50.0,
    ):
        if not 1 <= districts_per_warehouse <= 99:
            raise ValueError("districts_per_warehouse must be in [1, 99]")
        if not 1 <= customers_per_district <= 9_999:
            raise ValueError("customers_per_district must be in [1, 9999]")
        self.num_warehouses = num_warehouses
        self.districts_per_warehouse = districts_per_warehouse
        self.customers_per_district = customers_per_district
        self.num_items = num_items
        self.think_time_mean_ms = think_time_mean_ms
        self._history_seq: dict[str, int] = {}
        self._catalog = self._build_catalog()

    def _build_catalog(self) -> TemplateCatalog:
        specs = [
            ("tpcc-new-order",
             {"warehouse", "district", "customer", "orders", "new_order",
              "item", "stock", "order_line"},
             _new_order, True),
            ("tpcc-payment",
             {"warehouse", "district", "customer", "history"}, _payment, True),
            ("tpcc-order-status",
             {"customer", "orders", "order_line"}, _order_status, False),
            ("tpcc-delivery",
             {"district", "new_order", "orders", "order_line", "customer"},
             _delivery, True),
            ("tpcc-stock-level",
             {"district", "order_line", "stock"}, _stock_level, False),
        ]
        catalog = TemplateCatalog()
        for name, tables, body, is_update in specs:
            catalog.register(TransactionTemplate(
                name=name, table_set=frozenset(tables), body=body,
                is_update=is_update,
            ))
        return catalog

    # -- Workload interface ----------------------------------------------------
    def schemas(self) -> Sequence[TableSchema]:
        return [
            TableSchema("warehouse",
                        [Column("id", int), Column("name", str), Column("ytd", float)],
                        "id"),
            TableSchema("district",
                        [Column("id", int), Column("warehouse_id", int),
                         Column("next_o_id", int), Column("ytd", float)],
                        "id"),
            TableSchema("customer",
                        [Column("id", int), Column("district_id", int),
                         Column("balance", float), Column("ytd_payment", float)],
                        "id"),
            TableSchema("item",
                        [Column("id", int), Column("name", str),
                         Column("price", float)],
                        "id"),
            TableSchema("stock",
                        [Column("id", int), Column("warehouse_id", int),
                         Column("item_id", int), Column("quantity", int),
                         Column("ytd", int)],
                        "id"),
            TableSchema("orders",
                        [Column("id", int), Column("district_id", int),
                         Column("customer_id", int), Column("ol_cnt", int),
                         Column("carrier_id", int)],
                        "id",
                        indexes=["customer_id"]),
            TableSchema("order_line",
                        [Column("id", int), Column("order_id", int),
                         Column("item_id", int), Column("quantity", int),
                         Column("amount", float)],
                        "id",
                        indexes=["order_id"]),
            TableSchema("new_order",
                        [Column("id", int), Column("district_id", int)],
                        "id",
                        indexes=["district_id"]),
            TableSchema("history",
                        [Column("id", int), Column("customer_id", int),
                         Column("amount", float)],
                        "id"),
        ]

    def catalog(self) -> TemplateCatalog:
        return self._catalog

    def populate(self, database: Database, rng: Rng) -> None:
        for warehouse in range(1, self.num_warehouses + 1):
            database.load_row("warehouse", {
                "id": warehouse, "name": f"W{warehouse}", "ytd": 0.0,
            })
            for district in range(1, self.districts_per_warehouse + 1):
                database.load_row("district", {
                    "id": district_key(warehouse, district),
                    "warehouse_id": warehouse,
                    "next_o_id": 1,
                    "ytd": 0.0,
                })
                for customer in range(1, self.customers_per_district + 1):
                    database.load_row("customer", {
                        "id": customer_key(warehouse, district, customer),
                        "district_id": district_key(warehouse, district),
                        "balance": 0.0,
                        "ytd_payment": 0.0,
                    })
        for item in range(1, self.num_items + 1):
            database.load_row("item", {
                "id": item, "name": f"item-{item}",
                "price": round(rng.uniform(1.0, 100.0), 2),
            })
            for warehouse in range(1, self.num_warehouses + 1):
                database.load_row("stock", {
                    "id": stock_key(warehouse, item),
                    "warehouse_id": warehouse,
                    "item_id": item,
                    "quantity": rng.randint(20, 100),
                    "ytd": 0,
                })

    @property
    def update_fraction(self) -> float:
        """Nominal update fraction of the standard mix (92 %)."""
        return sum(w for name, w in MIX
                   if self._catalog[name].is_update)

    def next_call(self, client_id: str, rng: Rng) -> TxnCall:
        names = [name for name, _w in MIX]
        weights = [w for _name, w in MIX]
        template = rng.weighted_choice(names, weights)
        warehouse = rng.randint(1, self.num_warehouses)
        district = rng.randint(1, self.districts_per_warehouse)
        params: dict = {"warehouse": warehouse, "district": district}
        if template == "tpcc-new-order":
            params["customer"] = rng.randint(1, self.customers_per_district)
            count = rng.randint(3, MAX_ORDER_LINES)
            params["items"] = [
                (item, rng.randint(1, 5))
                for item in rng.sample(list(range(1, self.num_items + 1)), count)
            ]
        elif template == "tpcc-payment":
            params["customer"] = rng.randint(1, self.customers_per_district)
            params["amount"] = round(rng.uniform(1.0, 500.0), 2)
            sequence = self._history_seq.get(client_id, 0) + 1
            self._history_seq[client_id] = sequence
            digits = "".join(ch for ch in client_id if ch.isdigit()) or "0"
            params["history_id"] = int(digits) * 10_000_000 + sequence
        elif template == "tpcc-order-status":
            params["customer"] = rng.randint(1, self.customers_per_district)
        elif template == "tpcc-delivery":
            params["carrier"] = rng.randint(1, 10)
        elif template == "tpcc-stock-level":
            params["threshold"] = rng.randint(10, 20)
        return TxnCall(template, params)

    def think_time_ms(self, client_id: str, rng: Rng) -> float:
        if self.think_time_mean_ms <= 0:
            return 0.0
        return rng.exponential(self.think_time_mean_ms)

    def performance_params(self) -> PerformanceParams:
        # Order-entry statements are similar in weight to TPC-W's.
        return PerformanceParams(
            read_stmt_ms=1.2,
            write_stmt_ms=2.2,
            commit_base_ms=0.6,
            commit_per_op_ms=0.15,
            refresh_base_ms=0.8,
            refresh_per_op_ms=1.2,
            eager_flush_base_ms=1.0,
            eager_flush_per_op_ms=2.0,
        )
