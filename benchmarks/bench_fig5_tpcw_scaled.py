"""Figure 5 — TPC-W throughput and response time under scaled load.

Regenerates all six sub-figures: throughput and response time for the
browsing (5 % updates), shopping (20 %) and ordering (50 %) mixes as the
cluster grows from 1 to 8 replicas, with the load scaled at 10/8/5 clients
per replica respectively.

Paper shapes verified here:
* browsing: near-linear scaling with negligible differences between the
  configurations;
* shopping: the lazy configurations scale ~5x and track SESSION; EAGER is
  substantially slower at 8 replicas (the paper reports ~30 %);
* ordering: the lazy configurations still scale ~3x; EAGER barely scales.
"""

from conftest import emit

from repro.bench import fig5

EAGER = "EAGER"
SESSION = "SESSION"
COARSE = "SC-COARSE"
FINE = "SC-FINE"


def test_fig5_tpcw_scaled(benchmark):
    results = benchmark.pedantic(lambda: fig5(quick=True), rounds=1, iterations=1)
    text = "\n\n".join(
        results[mix][metric].render()
        for mix in ("browsing", "shopping", "ordering")
        for metric in ("throughput", "response")
    )
    emit("fig5", text)

    browsing = results["browsing"]["throughput"]
    shopping = results["shopping"]["throughput"]
    ordering = results["ordering"]["throughput"]

    # Browsing: near-linear scaling and negligible config differences.
    for label in browsing.series:
        assert browsing.value(label, 8) > 6.0 * browsing.value(label, 1)
    at8 = [browsing.value(label, 8) for label in browsing.series]
    assert max(at8) / min(at8) < 1.10

    # Shopping: lazy ~5x; SC within ~10 % of SESSION; EAGER well behind.
    for label in (SESSION, COARSE, FINE):
        assert shopping.value(label, 8) > 4.0 * shopping.value(label, 1)
    assert abs(shopping.value(COARSE, 8) - shopping.value(SESSION, 8)) < (
        0.12 * shopping.value(SESSION, 8)
    )
    assert shopping.value(EAGER, 8) < 0.80 * shopping.value(SESSION, 8)

    # Ordering: lazy ~3x; EAGER barely scales.
    for label in (SESSION, COARSE, FINE):
        ratio = ordering.value(label, 8) / ordering.value(label, 1)
        assert 2.2 < ratio
    eager_ratio = ordering.value(EAGER, 8) / ordering.value(EAGER, 1)
    lazy_ratio = ordering.value(SESSION, 8) / ordering.value(SESSION, 1)
    assert eager_ratio < 0.7 * lazy_ratio

    # Response time: EAGER's deteriorates fastest on update-heavy mixes.
    ordering_resp = results["ordering"]["response"]
    assert ordering_resp.value(EAGER, 8) > 1.5 * ordering_resp.value(SESSION, 8)
