"""Figure 4 — latency breakdown for the 25 % and 100 % update mixes.

Regenerates the per-stage latency breakdown (version / queries / certify /
sync / commit / global) for update transactions under each configuration,
as in Figures 4(a) and 4(b).

Paper shapes verified here:
* only EAGER has a global commit delay, and it dominates its latency —
  roughly an order of magnitude above the lazy synchronization delays;
* only the lazy configurations have a version (synchronization start)
  delay;
* SC-FINE's start delay does not exceed SC-COARSE's (it waits for a subset
  of the updates).
"""

from conftest import emit

from repro.bench import fig4


def test_fig4_latency_breakdown(benchmark):
    results = benchmark.pedantic(lambda: fig4(quick=True), rounds=1, iterations=1)
    text = "\n\n".join(res.render() for res in results.values())
    emit("fig4", text)

    for label, res in results.items():
        eager = res.breakdowns["EAGER"]
        session = res.breakdowns["SESSION"]
        coarse = res.breakdowns["SC-COARSE"]
        fine = res.breakdowns["SC-FINE"]

        # The global stage exists only under EAGER and dominates.
        assert eager.global_ > 0
        for lazy in (session, coarse, fine):
            assert lazy.global_ == 0.0
            assert eager.global_ > 3 * lazy.synchronization_delay
        # EAGER never waits at start; lazy configurations may.
        assert eager.version == 0.0
        # Fine-grained start delay bounded by coarse-grained (plus noise).
        assert fine.version <= coarse.version * 1.25 + 0.2
        # Total update latency: EAGER is the slowest configuration.
        assert eager.total > coarse.total
        assert eager.total > session.total
