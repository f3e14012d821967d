"""TPC-C-lite demo: order entry on the replicated database.

Walks one terminal through the five TPC-C transactions on a strongly
consistent cluster, then shows the hot-district contention the benchmark is
famous for: concurrent new-orders on one district conflict at certification
(first-committer-wins), clients retry, and the committed order numbers come
out gap-free — the invariant the district's ``next_o_id`` increment exists
to protect.

Run:  python examples/tpcc_demo.py
"""

from repro import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.workloads import TPCCBenchmark
from repro.workloads.tpcc import district_key, order_key


def terminal_walkthrough():
    print("=== one terminal, all five transactions (SC-FINE, 3 replicas) ===")
    workload = TPCCBenchmark(num_warehouses=1, districts_per_warehouse=4,
                             customers_per_district=20, num_items=50)
    cluster = ReplicatedDatabase(
        workload, ClusterConfig(num_replicas=3,
                                level="sc-fine", seed=2),
    )
    terminal = cluster.open_session("terminal-1")

    order = terminal.result("tpcc-new-order", {
        "warehouse": 1, "district": 1, "customer": 7,
        "items": [(3, 2), (11, 1), (29, 4)],
    })
    print(f"new-order: order {order['order']} for ${order['total']}")

    payment = terminal.result("tpcc-payment", {
        "warehouse": 1, "district": 1, "customer": 7,
        "amount": 120.50, "history_id": 1,
    })
    print(f"payment:   ${payment['amount']} from customer {payment['customer']}")

    status = terminal.result("tpcc-order-status", {
        "warehouse": 1, "district": 1, "customer": 7,
    })
    print(f"status:    last order {status['order']['id']} has "
          f"{len(status['lines'])} lines")

    delivered = terminal.result("tpcc-delivery", {
        "warehouse": 1, "district": 1, "carrier": 4,
    })
    print(f"delivery:  order {delivered['delivered']} handed to carrier 4")

    stock = terminal.result("tpcc-stock-level", {
        "warehouse": 1, "district": 1, "threshold": 40,
    })
    print(f"stock:     {stock['low_stock']} recent items below threshold\n")


def hot_district_contention():
    print("=== hot district under load (SC-COARSE, retries on) ===")
    workload = TPCCBenchmark(num_warehouses=1, districts_per_warehouse=1,
                             customers_per_district=30, num_items=80)
    cluster = ReplicatedDatabase(
        workload, ClusterConfig(num_replicas=3,
                                level="sc-coarse", seed=9),
    )
    collector = MetricsCollector()
    cluster.add_clients(10, collector, retry_aborts=True)
    cluster.run(2_500.0)
    cluster.quiesce()

    aborted = len([s for s in collector.samples if not s.committed])
    committed = len([s for s in collector.samples if s.committed])
    db = cluster.replica(0).engine.database
    next_o = db.table("district").read(district_key(1, 1), db.version)["next_o_id"]
    orders = db.table("orders").count(db.version)
    print(f"committed {committed}, aborted {aborted} "
          "(every abort is a first-committer-wins loss on the district row)")
    print(f"district next_o_id = {next_o}; orders stored = {orders}")
    assert orders == next_o - 1, "order numbers must be gap-free and unique"
    print("order numbers are gap-free: certification preserved the TPC-C "
          "invariant across replicas")
    for n in range(1, 4):
        key = order_key(1, 1, n)
        assert db.table("orders").read(key, db.version) is not None
    print("OK")


def main():
    terminal_walkthrough()
    hot_district_contention()


if __name__ == "__main__":
    main()
