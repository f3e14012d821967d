"""Figure 7 — TPC-W response time under fixed load.

Regenerates the fixed-load response-time series: the client count stays at
the single-replica level (8 shopping / 5 ordering) while replicas are
added, so replication now buys lower response time.

Paper shapes verified here:
* for the lazy configurations response time decreases (or stays flat) as
  replicas are added, stabilizing after a few replicas;
* under EAGER on the ordering mix, adding replicas *increases* response
  time — each update must commit at every replica, so more replicas mean a
  longer global commit delay.
"""

from conftest import emit

from repro.bench import fig7

EAGER = "EAGER"
SESSION = "SESSION"
COARSE = "SC-COARSE"
FINE = "SC-FINE"


def test_fig7_tpcw_fixed(benchmark):
    results = benchmark.pedantic(lambda: fig7(quick=True), rounds=1, iterations=1)
    text = "\n\n".join(results[mix].render() for mix in ("shopping", "ordering"))
    emit("fig7", text)

    for mix in ("shopping", "ordering"):
        series = results[mix]
        for label in (SESSION, COARSE, FINE):
            # Lazy: response at 8 replicas no worse than at 1.
            assert series.value(label, 8) <= series.value(label, 1) * 1.10

    ordering = results["ordering"]
    # EAGER on ordering: more replicas, higher response time.
    assert ordering.value(EAGER, 8) > ordering.value(EAGER, 1)
    # And the gap to the lazy configurations widens to >1.5x.
    assert ordering.value(EAGER, 8) > 1.5 * ordering.value(SESSION, 8)
