"""Figure 3 — micro-benchmark throughput vs update mix (8 replicas).

Regenerates the paper's Figure 3 series: system throughput (TPS) for
SC-COARSE, SC-FINE, SESSION and EAGER as the ratio of update transactions
sweeps from 0/40 to 40/40.

Paper shapes verified here:
* all four configurations perform identically on the read-only mix;
* the two lazy strong-consistency techniques match SESSION (within a few
  percent);
* EAGER falls substantially behind (the paper reports ~40 %) once the
  update ratio reaches 25 %.
"""

from conftest import emit

from repro.bench import fig3


def test_fig3_microbench_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: fig3(quick=True), rounds=1, iterations=1
    )
    emit("fig3", result.render())

    eager = "EAGER"
    session = "SESSION"
    coarse = "SC-COARSE"
    fine = "SC-FINE"

    # Read-only point: everybody identical.
    zero = {label: result.value(label, 0) for label in result.series}
    assert len({round(v, 3) for v in zero.values()}) == 1

    for pct in (25, 50, 75, 100):
        lazy = result.value(session, pct)
        # Lazy strong consistency matches session consistency.
        assert abs(result.value(coarse, pct) - lazy) / lazy < 0.10
        assert abs(result.value(fine, pct) - lazy) / lazy < 0.10
        # Eager pays a large penalty.
        assert result.value(eager, pct) < 0.75 * lazy

    # Throughput decreases monotonically with the update ratio.
    for label in result.series:
        values = result.series[label]
        assert all(a > b for a, b in zip(values, values[1:]))
