"""TPC-W benchmark workload (Section V-C of the paper).

TPC-W models an online bookstore.  The paper drives its prototype with the
three standard mixes, which differ in the fraction of update transactions:

* **browsing** — 5 % updates,
* **shopping** — 20 % updates (the most representative mix),
* **ordering** — 50 % updates (the most challenging for replication).

We reproduce the *database-level* workload: the schema (country, author,
item, customer, address, orders, order_line, cc_xacts, shopping_cart,
shopping_cart_line), one transaction template per web interaction's database
transaction, and per-mix interaction weights whose update fractions are
exactly 5/20/50 %.  The web tier (IIS/ASP.NET in the paper) contributes
fixed per-interaction latency, which we fold into client think time; see
DESIGN.md's substitution table.

Each emulated browser is one closed-loop client bound to one customer
account; think times are negative-exponential as in the paper.
"""

from __future__ import annotations

from typing import Sequence

from ..middleware.perfmodel import PerformanceParams
from ..sim.rng import Rng
from ..storage.database import Database
from ..storage.schema import Column, TableSchema
from .base import TemplateCatalog, TransactionTemplate, TxnCall, Workload

__all__ = ["TPCWBenchmark", "MIXES", "MIX_UPDATE_FRACTION"]

#: rows of the country table (the TPC-W specification's 92 countries)
NUM_COUNTRIES = 92

SUBJECTS = [
    "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
    "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
    "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
    "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
    "YOUTH", "TRAVEL",
]

#: interaction weights per mix; update templates sum to exactly 5/20/50 %.
MIXES: dict[str, dict[str, float]] = {
    "browsing": {
        "tpcw-home": 0.25, "tpcw-new-products": 0.12, "tpcw-best-sellers": 0.12,
        "tpcw-product-detail": 0.20, "tpcw-search-subject": 0.10,
        "tpcw-search-author": 0.06, "tpcw-order-inquiry": 0.05,
        "tpcw-buy-request": 0.05,
        "tpcw-shopping-cart": 0.030, "tpcw-customer-registration": 0.010,
        "tpcw-buy-confirm": 0.007, "tpcw-admin-confirm": 0.003,
    },
    "shopping": {
        "tpcw-home": 0.18, "tpcw-new-products": 0.10, "tpcw-best-sellers": 0.10,
        "tpcw-product-detail": 0.18, "tpcw-search-subject": 0.08,
        "tpcw-search-author": 0.06, "tpcw-order-inquiry": 0.05,
        "tpcw-buy-request": 0.05,
        "tpcw-shopping-cart": 0.13, "tpcw-customer-registration": 0.02,
        "tpcw-buy-confirm": 0.04, "tpcw-admin-confirm": 0.01,
    },
    "ordering": {
        "tpcw-home": 0.10, "tpcw-new-products": 0.05, "tpcw-best-sellers": 0.05,
        "tpcw-product-detail": 0.10, "tpcw-search-subject": 0.05,
        "tpcw-search-author": 0.03, "tpcw-order-inquiry": 0.07,
        "tpcw-buy-request": 0.05,
        "tpcw-shopping-cart": 0.30, "tpcw-customer-registration": 0.05,
        "tpcw-buy-confirm": 0.13, "tpcw-admin-confirm": 0.02,
    },
}

#: the update fraction each mix is defined by (paper, Section V-C)
MIX_UPDATE_FRACTION = {"browsing": 0.05, "shopping": 0.20, "ordering": 0.50}

_UPDATE_TEMPLATES = {
    "tpcw-shopping-cart",
    "tpcw-customer-registration",
    "tpcw-buy-confirm",
    "tpcw-admin-confirm",
}


# ---------------------------------------------------------------------------
# Transaction template bodies
# ---------------------------------------------------------------------------

def _home(ctx, params):
    """Home interaction: customer greeting plus promotional items."""
    customer = ctx.read("customer", params["customer_id"])
    promos = [ctx.read("item", item_id) for item_id in params["promo_items"]]
    return {"customer": customer, "promotions": [p for p in promos if p]}


def _new_products(ctx, params):
    """New-products listing for one subject (index scan + detail reads)."""
    keys = ctx.lookup("item", "subject", params["subject"], cost_ms=6.0)
    items = [ctx.read("item", key) for key in keys[:10]]
    authors = {
        item["author_id"]: ctx.read("author", item["author_id"])
        for item in items
        if item
    }
    return {"items": items, "authors": authors}


def _best_sellers(ctx, params):
    """Best sellers: aggregate recent orders (the heaviest read query)."""
    orders = ctx.scan("orders", limit=20, cost_ms=10.0)
    counts: dict[int, int] = {}
    for order in orders[-10:]:
        for line_key in ctx.lookup("order_line", "order_id", order["id"], cost_ms=1.5):
            line = ctx.read("order_line", line_key)
            if line is not None:
                counts[line["item_id"]] = counts.get(line["item_id"], 0) + line["qty"]
    top = sorted(counts, key=lambda k: -counts[k])[:5]
    return {"top_items": [ctx.read("item", item_id) for item_id in top]}


def _product_detail(ctx, params):
    """Product detail page: item plus author."""
    item = ctx.read_required("item", params["item_id"])
    author = ctx.read("author", item["author_id"])
    return {"item": item, "author": author}


def _search_subject(ctx, params):
    """Search results by subject."""
    keys = ctx.lookup("item", "subject", params["subject"], cost_ms=5.0)
    return {"items": [ctx.read("item", key) for key in keys[:5]]}


def _search_author(ctx, params):
    """Search results by author."""
    keys = ctx.lookup("item", "author_id", params["author_id"], cost_ms=5.0)
    return {"items": [ctx.read("item", key) for key in keys[:5]]}


def _order_inquiry(ctx, params):
    """Display the customer's most recent order."""
    customer = ctx.read_required("customer", params["customer_id"])
    order_keys = ctx.lookup("orders", "customer_id", params["customer_id"], cost_ms=3.0)
    if not order_keys:
        return {"customer": customer, "order": None, "lines": []}
    latest = max(order_keys)
    order = ctx.read("orders", latest)
    lines = [
        ctx.read("order_line", key)
        for key in ctx.lookup("order_line", "order_id", latest, cost_ms=1.5)
    ]
    return {"customer": customer, "order": order, "lines": lines}


def _buy_request(ctx, params):
    """Checkout page: customer, address and current cart contents."""
    customer = ctx.read_required("customer", params["customer_id"])
    address = ctx.read("address", customer["addr_id"])
    cart = ctx.read("shopping_cart", params["customer_id"])
    line_keys = ctx.lookup(
        "shopping_cart_line", "cart_id", params["customer_id"], cost_ms=1.5
    )
    lines = [ctx.read("shopping_cart_line", key) for key in line_keys]
    return {"customer": customer, "address": address, "cart": cart, "lines": lines}


def _cart_line_key(cart_id: int, item_id: int) -> int:
    """Primary key of a cart line: unique per (cart, item)."""
    return cart_id * 1_000_000 + item_id


def _shopping_cart(ctx, params):
    """Add an item to the cart (or bump its quantity)."""
    cart_id = params["customer_id"]
    item = ctx.read_required("item", params["item_id"])
    cart = ctx.read_required("shopping_cart", cart_id)
    line_key = _cart_line_key(cart_id, params["item_id"])
    line = ctx.read("shopping_cart_line", line_key)
    qty = params.get("qty", 1)
    if line is None:
        ctx.insert(
            "shopping_cart_line",
            {
                "id": line_key,
                "cart_id": cart_id,
                "item_id": params["item_id"],
                "qty": qty,
            },
        )
    else:
        ctx.update("shopping_cart_line", line_key, {"qty": line["qty"] + qty})
    ctx.update(
        "shopping_cart", cart_id, {"total": cart["total"] + qty * item["price"]}
    )
    return {"cart_id": cart_id, "added": params["item_id"], "qty": qty}


def _customer_registration(ctx, params):
    """Refresh the customer's profile and address."""
    customer = ctx.read_required("customer", params["customer_id"])
    ctx.update(
        "customer",
        params["customer_id"],
        {"discount": params["discount"]},
    )
    ctx.update("address", customer["addr_id"], {"city": params["city"]})
    return {"customer_id": params["customer_id"]}


def _buy_confirm(ctx, params):
    """Turn the cart into an order: the heaviest update transaction."""
    customer_id = params["customer_id"]
    order_id = params["order_id"]
    customer = ctx.read_required("customer", customer_id)
    ctx.read_required("shopping_cart", customer_id)
    line_keys = ctx.lookup("shopping_cart_line", "cart_id", customer_id, cost_ms=1.5)
    total = 0.0
    line_number = 0
    for key in line_keys:
        line = ctx.read("shopping_cart_line", key)
        if line is None:
            continue
        item = ctx.read("item", line["item_id"])
        if item is None:
            continue
        line_number += 1
        total += line["qty"] * item["price"]
        ctx.insert(
            "order_line",
            {
                "id": order_id * 100 + line_number,
                "order_id": order_id,
                "item_id": line["item_id"],
                "qty": line["qty"],
            },
        )
        ctx.update("item", line["item_id"], {"stock": max(0, item["stock"] - line["qty"])})
        ctx.delete("shopping_cart_line", key)
    ctx.insert(
        "orders",
        {
            "id": order_id,
            "customer_id": customer_id,
            "total": total,
            "status": "PENDING",
        },
    )
    ctx.insert("cc_xacts", {"order_id": order_id, "amount": total})
    ctx.update("shopping_cart", customer_id, {"total": 0.0})
    ctx.update("customer", customer_id, {"balance": customer["balance"] + total})
    return {"order_id": order_id, "lines": line_number, "total": total}


def _admin_confirm(ctx, params):
    """Administrative item update (price/thumbnail change)."""
    item = ctx.read_required("item", params["item_id"])
    ctx.update("item", params["item_id"], {"price": round(item["price"] * 1.01, 2)})
    return {"item_id": params["item_id"]}


class TPCWBenchmark(Workload):
    """The TPC-W bookstore workload at one of the three standard mixes."""

    name = "tpcw"

    def __init__(
        self,
        mix: str = "shopping",
        num_items: int = 1_000,
        num_customers: int = 500,
        num_authors: int = 250,
        think_time_mean_ms: float = 50.0,
    ):
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r}; expected one of {sorted(MIXES)}")
        self.mix = mix
        self.num_items = num_items
        self.num_customers = num_customers
        self.num_authors = num_authors
        self.think_time_mean_ms = think_time_mean_ms
        self._weights = MIXES[mix]
        self._template_names = list(self._weights)
        self._template_weights = [self._weights[n] for n in self._template_names]
        self._order_seq: dict[str, int] = {}
        self._catalog = self._build_catalog()

    @property
    def update_fraction(self) -> float:
        """The mix's nominal update fraction (5/20/50 %)."""
        return MIX_UPDATE_FRACTION[self.mix]

    # -- catalog --------------------------------------------------------------
    def _build_catalog(self) -> TemplateCatalog:
        specs = [
            ("tpcw-home", {"customer", "item"}, _home, False),
            ("tpcw-new-products", {"item", "author"}, _new_products, False),
            ("tpcw-best-sellers", {"orders", "order_line", "item"}, _best_sellers, False),
            ("tpcw-product-detail", {"item", "author"}, _product_detail, False),
            ("tpcw-search-subject", {"item"}, _search_subject, False),
            ("tpcw-search-author", {"item"}, _search_author, False),
            ("tpcw-order-inquiry", {"customer", "orders", "order_line"}, _order_inquiry, False),
            ("tpcw-buy-request",
             {"customer", "address", "shopping_cart", "shopping_cart_line"},
             _buy_request, False),
            ("tpcw-shopping-cart",
             {"shopping_cart", "shopping_cart_line", "item"}, _shopping_cart, True),
            ("tpcw-customer-registration", {"customer", "address"},
             _customer_registration, True),
            ("tpcw-buy-confirm",
             {"customer", "shopping_cart", "shopping_cart_line", "orders",
              "order_line", "cc_xacts", "item"},
             _buy_confirm, True),
            ("tpcw-admin-confirm", {"item"}, _admin_confirm, True),
        ]
        catalog = TemplateCatalog()
        for name, table_set, body, is_update in specs:
            catalog.register(
                TransactionTemplate(
                    name=name,
                    table_set=frozenset(table_set),
                    body=body,
                    is_update=is_update,
                )
            )
        return catalog

    # -- Workload interface ----------------------------------------------------
    def schemas(self) -> Sequence[TableSchema]:
        return [
            TableSchema("country", [Column("id", int), Column("name", str)], "id"),
            TableSchema(
                "author",
                [Column("id", int), Column("fname", str), Column("lname", str)],
                "id",
            ),
            TableSchema(
                "item",
                [
                    Column("id", int),
                    Column("title", str),
                    Column("author_id", int),
                    Column("subject", str),
                    Column("price", float),
                    Column("stock", int),
                ],
                "id",
                indexes=["subject", "author_id"],
            ),
            TableSchema(
                "address",
                [
                    Column("id", int),
                    Column("street", str),
                    Column("city", str),
                    Column("country_id", int),
                ],
                "id",
            ),
            TableSchema(
                "customer",
                [
                    Column("id", int),
                    Column("uname", str),
                    Column("addr_id", int),
                    Column("discount", float),
                    Column("balance", float),
                ],
                "id",
            ),
            TableSchema(
                "orders",
                [
                    Column("id", int),
                    Column("customer_id", int),
                    Column("total", float),
                    Column("status", str),
                ],
                "id",
                indexes=["customer_id"],
            ),
            TableSchema(
                "order_line",
                [
                    Column("id", int),
                    Column("order_id", int),
                    Column("item_id", int),
                    Column("qty", int),
                ],
                "id",
                indexes=["order_id"],
            ),
            TableSchema(
                "cc_xacts",
                [Column("order_id", int), Column("amount", float)],
                "order_id",
            ),
            TableSchema(
                "shopping_cart",
                [Column("id", int), Column("total", float)],
                "id",
            ),
            TableSchema(
                "shopping_cart_line",
                [
                    Column("id", int),
                    Column("cart_id", int),
                    Column("item_id", int),
                    Column("qty", int),
                ],
                "id",
                indexes=["cart_id"],
            ),
        ]

    def catalog(self) -> TemplateCatalog:
        return self._catalog

    def populate(self, database: Database, rng: Rng) -> None:
        for cid in range(1, NUM_COUNTRIES + 1):
            database.load_row("country", {"id": cid, "name": f"country-{cid}"})
        for aid in range(1, self.num_authors + 1):
            database.load_row(
                "author", {"id": aid, "fname": f"first-{aid}", "lname": f"last-{aid}"}
            )
        for iid in range(1, self.num_items + 1):
            database.load_row(
                "item",
                {
                    "id": iid,
                    "title": f"Book {iid}",
                    "author_id": rng.randint(1, self.num_authors),
                    "subject": rng.choice(SUBJECTS),
                    "price": round(rng.uniform(5.0, 100.0), 2),
                    "stock": rng.randint(10, 1000),
                },
            )
        for cust in range(1, self.num_customers + 1):
            database.load_row(
                "address",
                {
                    "id": cust,
                    "street": f"{cust} Main St",
                    "city": f"city-{cust % 97}",
                    "country_id": rng.randint(1, NUM_COUNTRIES),
                },
            )
            database.load_row(
                "customer",
                {
                    "id": cust,
                    "uname": f"user{cust}",
                    "addr_id": cust,
                    "discount": round(rng.uniform(0.0, 0.5), 2),
                    "balance": 0.0,
                },
            )
            database.load_row("shopping_cart", {"id": cust, "total": 0.0})
        # One historical order per customer so best-sellers and order
        # inquiries have data from the start.
        for cust in range(1, self.num_customers + 1):
            order_id = cust * 1_000_000
            database.load_row(
                "orders",
                {"id": order_id, "customer_id": cust, "total": 0.0, "status": "SHIPPED"},
            )
            for line_number in range(1, rng.randint(1, 3) + 1):
                database.load_row(
                    "order_line",
                    {
                        "id": order_id * 100 + line_number,
                        "order_id": order_id,
                        "item_id": rng.randint(1, self.num_items),
                        "qty": rng.randint(1, 5),
                    },
                )

    def customer_for(self, client_id: str) -> int:
        """Deterministic client → customer binding (one EB, one account)."""
        digits = "".join(ch for ch in client_id if ch.isdigit())
        index = int(digits) if digits else abs(hash(client_id))
        return index % self.num_customers + 1

    def next_call(self, client_id: str, rng: Rng) -> TxnCall:
        template = rng.weighted_choice(self._template_names, self._template_weights)
        customer_id = self.customer_for(client_id)
        params: dict = {"customer_id": customer_id}
        if template == "tpcw-home":
            params["promo_items"] = [rng.randint(1, self.num_items) for _ in range(2)]
        elif template in ("tpcw-new-products", "tpcw-search-subject", "tpcw-best-sellers"):
            params["subject"] = rng.choice(SUBJECTS)
        elif template == "tpcw-product-detail":
            params["item_id"] = rng.randint(1, self.num_items)
        elif template == "tpcw-search-author":
            params["author_id"] = rng.randint(1, self.num_authors)
        elif template == "tpcw-shopping-cart":
            params["item_id"] = rng.randint(1, self.num_items)
            params["qty"] = rng.randint(1, 3)
        elif template == "tpcw-customer-registration":
            params["discount"] = round(rng.uniform(0.0, 0.5), 2)
            params["city"] = f"city-{rng.randint(0, 96)}"
        elif template == "tpcw-buy-confirm":
            seq = self._order_seq.get(client_id, 0) + 1
            self._order_seq[client_id] = seq
            params["order_id"] = customer_id * 1_000_000 + seq
        elif template == "tpcw-admin-confirm":
            params["item_id"] = rng.randint(1, self.num_items)
        return TxnCall(template, params)

    def think_time_ms(self, client_id: str, rng: Rng) -> float:
        if self.think_time_mean_ms <= 0:
            return 0.0
        return rng.exponential(self.think_time_mean_ms)

    def performance_params(self) -> PerformanceParams:
        # TPC-W statements are heavier than the micro-benchmark's point
        # queries; refresh transactions carry multi-op writesets whose
        # application (and, under EAGER, synchronous acknowledgment) is what
        # limits scalability on the update-heavy mixes.
        return PerformanceParams(
            read_stmt_ms=1.6,
            write_stmt_ms=2.8,
            commit_base_ms=0.6,
            commit_per_op_ms=0.2,
            refresh_base_ms=1.0,
            refresh_per_op_ms=2.0,
            eager_flush_base_ms=1.0,
            eager_flush_per_op_ms=3.4,
            replica_speed_spread=0.35,
        )
