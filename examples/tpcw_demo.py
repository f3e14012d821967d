"""TPC-W bookstore demo: drive the replicated database with the paper's
e-commerce workload and compare configurations.

Part 1 walks one emulated browser through a full shopping session (browse,
search, fill the cart, buy, check the order) on a strongly consistent
cluster.

Part 2 runs a short loaded experiment on the ordering mix (the
update-intensive, hardest-to-replicate mix) for each configuration and
prints throughput, response time and synchronization delay — a one-mix
slice of the paper's Figure 5/6.

Run:  python examples/tpcw_demo.py
"""

from repro import ReplicatedDatabase
from repro.metrics import MetricsCollector, format_table
from repro.workloads import TPCWBenchmark


def shopping_session():
    print("=== one shopping session (SC-FINE, 4 replicas) ===")
    workload = TPCWBenchmark(mix="shopping", num_items=200, num_customers=100)
    cluster = ReplicatedDatabase(
        workload, num_replicas=4, level="sc-fine", seed=7
    )
    browser = cluster.open_session("client-1")
    customer_id = workload.customer_for("client-1")

    home = browser.result("tpcw-home", {"customer_id": customer_id, "promo_items": [5, 9]})
    print(f"home page for {home['customer']['uname']}, "
          f"{len(home['promotions'])} promotions")

    detail = browser.result("tpcw-product-detail", {"item_id": 5})
    print(f"product: {detail['item']['title']!r} by "
          f"{detail['author']['fname']} {detail['author']['lname']}, "
          f"${detail['item']['price']}")

    for item_id, qty in ((5, 2), (9, 1)):
        browser.execute(
            "tpcw-shopping-cart",
            {"customer_id": customer_id, "item_id": item_id, "qty": qty},
        )
    cart = browser.result("tpcw-buy-request", {"customer_id": customer_id})
    print(f"cart holds {len(cart['lines'])} lines, total ${cart['cart']['total']:.2f}")

    order_id = customer_id * 1_000_000 + 1
    confirm = browser.result(
        "tpcw-buy-confirm", {"customer_id": customer_id, "order_id": order_id}
    )
    print(f"order {confirm['order_id']} confirmed: "
          f"{confirm['lines']} lines, ${confirm['total']:.2f}")

    inquiry = browser.result("tpcw-order-inquiry", {"customer_id": customer_id})
    assert inquiry["order"]["id"] == order_id
    print(f"order inquiry sees the new order immediately "
          f"(strong consistency across {len(cluster.replicas)} replicas)\n")


def ordering_mix_comparison():
    print("=== ordering mix (50% updates), 6 replicas, 30 clients ===")
    rows = []
    for level in ("session", "sc-coarse", "sc-fine", "eager"):
        workload = TPCWBenchmark(mix="ordering", num_items=300, num_customers=200)
        cluster = ReplicatedDatabase(workload, num_replicas=6, level=level, seed=3,
                                     record_history=False)
        collector = MetricsCollector(measure_start=2_000.0, measure_end=10_000.0)
        cluster.add_clients(30, collector)
        cluster.run(10_000.0)
        summary = collector.summary()
        rows.append([
            cluster.policy.label,
            summary.tps,
            summary.mean_response_ms,
            summary.mean_sync_delay_ms,
            summary.aborted,
        ])
    print(format_table(
        ["config", "TPS", "response (ms)", "sync delay (ms)", "aborts"], rows
    ))
    print("\nThe lazy strong-consistency techniques match SESSION; the eager "
          "approach pays a growing global commit delay.")


def main():
    shopping_session()
    ordering_mix_comparison()


if __name__ == "__main__":
    main()
