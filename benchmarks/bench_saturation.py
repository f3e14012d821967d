"""Overload protection under open-loop load: saturation and retry storms.

Closed-loop clients slow down with the system, so they can neither push it
past its capacity knee nor sustain a retry storm.  This bench drives the
cluster with :class:`~repro.workloads.clients.OpenLoopLoad` — offered load
is an input, not a consequence — and records the two headline claims of the
overload-protection stack (``docs/TUNING.md``, "Overload knobs"):

* **saturation** — past the knee, the unprotected configuration's p99
  response time diverges (requests queue without bound) while the protected
  one (MPL cap + bounded admission queues + deadline shedding) keeps p99
  flat and converts the overflow into explicit fast-rejects;
* **retry storm** — after a transient spike, clients without a retry budget
  multiply every timed-out request into ``max_attempts`` executions of
  wasted work, holding the system saturated forever (a metastable failure);
  with a token-bucket retry budget the storm starves itself and goodput
  recovers.

Run as the CI perf smoke (short runs, counter-based assertions only —
wall-clock is never asserted, so shared runners can't flake it)::

    PYTHONPATH=src python benchmarks/bench_saturation.py --smoke

The full sweep and storm timeline are ``python -m repro saturation``.
"""

from __future__ import annotations

import argparse

from repro.bench.experiments import retry_storm, saturation

#: offered loads bracketing the 3-replica quick cluster's ~3,500 tps knee
SMOKE_LOADS = (800.0, 4_800.0)

#: "flat" p99 = bounded by queueing inside the MPL cap and admission queue
#: (tens of ms against an uncongested ~4.5 ms), never by the offered load
P99_FLAT_FACTOR = 25


def check_saturation(result):
    """The counter-based acceptance facts (also the CI smoke assertions)."""
    low, high = result.offered_tps[0], result.offered_tps[-1]

    def at(metric, arm, x):
        return getattr(result, metric)[arm][result.offered_tps.index(x)]

    # Below the knee the two arms are indistinguishable and nothing is shed.
    assert at("shed_rate", "protected", low) == 0.0, (
        f"protection shed load below the knee: {result.shed_rate}"
    )
    # Past the knee the unprotected p99 diverges; the protected one stays
    # within an order of magnitude of its pre-knee value and sheds instead.
    assert at("p99_ms", "unprotected", high) > 5 * at("p99_ms", "protected", high), (
        f"unprotected p99 did not diverge past the knee: {result.p99_ms}"
    )
    # The unprotected arm grows into the seconds past the knee; the
    # protected plateau stays within P99_FLAT_FACTOR of the uncongested p99.
    assert at("p99_ms", "protected", high) < P99_FLAT_FACTOR * at(
        "p99_ms", "protected", low
    ), f"protected p99 not flat past the knee: {result.p99_ms}"
    assert at("shed_rate", "protected", high) > 0.05, (
        f"protection shed nothing past the knee: {result.shed_rate}"
    )
    # The MPL cap holds a slot for the whole round trip, so the protected
    # arm tops out somewhat below the unbounded peak — that is the price of
    # the flat p99.  It must stay a modest price, not a collapse.
    assert at("goodput", "protected", high) > 0.7 * at("goodput", "unprotected", high), (
        f"protection destroyed goodput: {result.goodput}"
    )


def check_storm(result):
    assert not result.recovered("budget-off"), (
        "budget-off arm recovered — the storm did not sustain itself: "
        f"{result.tail_tps} vs {result.baseline_tps}"
    )
    assert result.recovered("budget-on"), (
        "budget-on arm did not recover after the spike: "
        f"{result.tail_tps} vs {result.baseline_tps}"
    )
    assert result.budget_denied["budget-on"] > 0, (
        "the retry budget never denied a retry — it was not exercised"
    )
    assert result.budget_denied["budget-off"] == 0


def smoke():
    """CI perf smoke: two load points plus the quick storm, assertions only."""
    sat = saturation(quick=True, loads=SMOKE_LOADS)
    check_saturation(sat)
    storm = retry_storm(quick=True)
    check_storm(storm)
    print("saturation smoke OK:")
    for i, offered in enumerate(sat.offered_tps):
        print(
            f"  offered {offered:6.0f} tps: unprotected p99 "
            f"{sat.p99_ms['unprotected'][i]:7.1f} ms vs protected "
            f"{sat.p99_ms['protected'][i]:6.1f} ms "
            f"(shed {sat.shed_rate['protected'][i]:5.1%})"
        )
    for label in ("budget-off", "budget-on"):
        verdict = "recovered" if storm.recovered(label) else "collapsed"
        print(
            f"  storm {label:>10}: baseline {storm.baseline_tps[label]:5.0f} tps, "
            f"tail {storm.tail_tps[label]:5.0f} tps — {verdict}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two load points + quick storm, assertions only",
    )
    parser.parse_args()
    smoke()


if __name__ == "__main__":
    main()
