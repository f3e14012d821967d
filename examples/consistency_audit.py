"""Consistency audit: run a workload under every configuration and check
which guarantees actually held.

Drives the same loaded micro-benchmark through all five consistency
configurations, records the externally visible history of every run, and
audits it with the history checkers:

* strong consistency (Definition 1), observational and strict variants;
* session consistency (Definition 2);
* per-session snapshot monotonicity ([12]'s "never goes back in time");
* a staleness report (how many versions behind snapshots were).

The resulting matrix is the paper's guarantee hierarchy, measured.

Run:  python examples/consistency_audit.py
"""

from repro import ReplicatedDatabase, resolve_policy
from repro.histories import (
    is_session_consistent,
    is_strongly_consistent,
    session_monotonicity_violations,
    staleness_report,
    strong_consistency_violations,
)
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark

LEVELS = ["eager", "sc-coarse", "sc-fine", "session", "baseline"]


def check_level(level):
    workload = MicroBenchmark(update_types=20, rows_per_table=300)
    cluster = ReplicatedDatabase(workload, num_replicas=4, level=level, seed=11)
    collector = MetricsCollector()
    cluster.add_clients(16, collector)
    cluster.run(2_500.0)
    history = cluster.history
    return {
        "txns": len(history),
        "strong": is_strongly_consistent(history),
        "strong_strict": is_strongly_consistent(history, observational=False),
        "session": is_session_consistent(history),
        "monotone": not session_monotonicity_violations(history),
        "staleness": staleness_report(history),
        "violations": strong_consistency_violations(history)[:2],
    }


def main():
    print(f"{'level':10s} {'txns':>6s} {'strong':>7s} {'strict':>7s} "
          f"{'session':>8s} {'monotone':>9s} {'mean stale':>11s} {'max stale':>10s}")
    results = {}
    for level in LEVELS:
        result = check_level(level)
        results[level] = result
        stale = result["staleness"]
        flags = [result["strong"], result["strong_strict"], result["session"],
                 result["monotone"]]
        print(f"{resolve_policy(level).label:10s} {result['txns']:>6d} "
              + " ".join(f"{str(f):>7s}" if i < 3 else f"{str(f):>9s}"
                         for i, f in enumerate(flags))
              + f" {stale['mean']:>11.2f} {stale['max']:>10.0f}")

    print("\nExample violations under BASELINE (the weak configuration):")
    for violation in results["baseline"]["violations"]:
        print(f"  {violation}")

    # The paper's hierarchy, asserted.
    assert results["eager"]["strong_strict"]
    assert results["sc-coarse"]["strong_strict"]
    assert results["sc-fine"]["strong"]
    assert not results["sc-fine"]["strong_strict"]
    assert results["session"]["session"]
    assert not results["session"]["strong"]
    assert not results["baseline"]["session"]
    print("\nGuarantee hierarchy verified.")


if __name__ == "__main__":
    main()
