"""Anti-entropy scrubber: detection latency and digest maintenance cost.

The scrubber's two costs are a latency and a tax, and this bench records
both headline claims (``docs/TUNING.md``, "Anti-entropy knobs"):

* **detection latency** — a silent divergence is quarantined within two
  scrub rounds of the injection: ``2 * interval + reply_timeout`` in the
  worst case (the corruption lands just after a round's requests went
  out).  Measured in simulated time across intervals and seeds, so the
  scaling with ``scrub_interval_ms`` is exact, not sampled.
* **digest maintenance tax** — the incremental per-table digests are
  updated on every writeset apply (the refresh hot path).  The bench
  times ``Database.apply_writeset`` with ``maintain_digests`` on vs off;
  the budget is ≤10% overhead (``OVERHEAD_BUDGET``), printed here and
  tracked by the perf ledger's ``storage.digest.probe_folds_per_s``.

Run as the CI perf smoke (one interval, sim-time assertions only —
wall-clock is measured but never asserted, so shared runners can't
flake it)::

    PYTHONPATH=src python benchmarks/bench_scrub.py --smoke

``python -m repro scrub`` drives the subsystem end to end at any interval.
"""

from __future__ import annotations

import argparse
import time

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.storage import Column, Database, OpKind, TableSchema, WriteOp, WriteSet
from repro.storage.digest import DigestTracker
from repro.workloads import MicroBenchmark

SMOKE_INTERVALS = (200.0,)
SMOKE_SEEDS = (7,)

#: digest maintenance may cost at most 10% on the writeset-apply hot path
OVERHEAD_BUDGET = 1.10


# -- detection latency (simulated time, deterministic) -----------------------

def detection_point(interval_ms: float, seed: int) -> dict:
    """Inject one silent corruption and time the scrubber's reaction.

    Returns simulated-time latencies: injection -> quarantine (detection)
    and quarantine -> readmission (repair + re-verify).
    """
    config = ClusterConfig.anti_entropy(
        num_replicas=3, seed=seed, scrub_interval_ms=interval_ms
    )
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )
    session = cluster.open_session("writer")
    for i in range(30):
        session.execute("micro-update-0", {"key": i % 20 + 1})
    injector = FaultInjector(cluster)
    injected_at = cluster.env.now
    injector.corrupt_row("replica-1")
    settings = config.scrub_settings
    bound = 2 * settings.interval_ms + settings.reply_timeout_ms
    # Generous tail: detection bound plus a few rounds for repair/readmit.
    cluster.run(injected_at + bound + 4 * settings.interval_ms)

    events = {event: t for t, event, _replica, _d in cluster.scrubber.events}
    assert "quarantined" in events, (
        f"interval {interval_ms}: corruption never detected"
    )
    detection_ms = events["quarantined"] - injected_at
    assert detection_ms <= bound, (
        f"interval {interval_ms}: detection took {detection_ms:.0f} ms, "
        f"bound is {bound:.0f} ms"
    )
    assert "readmitted" in events, (
        f"interval {interval_ms}: replica never re-admitted"
    )
    return {
        "interval_ms": interval_ms,
        "seed": seed,
        "detection_ms": round(detection_ms, 1),
        "bound_ms": round(bound, 1),
        "repair_ms": round(events["readmitted"] - events["quarantined"], 1),
    }


def detection_sweep(intervals, seeds) -> list[dict]:
    rows = []
    for interval in intervals:
        points = [detection_point(interval, seed) for seed in seeds]
        rows.append(
            {
                "interval_ms": interval,
                "bound_ms": points[0]["bound_ms"],
                "mean_detection_ms": round(
                    sum(p["detection_ms"] for p in points) / len(points), 1
                ),
                "max_detection_ms": max(p["detection_ms"] for p in points),
                "mean_repair_ms": round(
                    sum(p["repair_ms"] for p in points) / len(points), 1
                ),
                "points": points,
            }
        )
    return rows


# -- digest maintenance tax (wall-clock, reported not smoke-asserted) --------

def _apply_run(maintain_digests: bool, rows: int, applies: int) -> float:
    """Seconds to apply ``applies`` single-row update writesets.

    Replica steady state: the certifier's digest tracker folds every
    certified writeset before any replica applies it, and the simulated
    network shares message objects — so the refresh-apply path sees ops
    whose content hashes are already cached.  The tracker pass below warms
    them exactly the way certification does.
    """
    db = Database(maintain_digests=maintain_digests)
    db.create_table(
        TableSchema("t", [Column("id", int), Column("v", int)], "id")
    )
    for key in range(1, rows + 1):
        db.load_row("t", {"id": key, "v": 0})
    writesets = [
        WriteSet([WriteOp("t", i % rows + 1, OpKind.UPDATE,
                          {"id": i % rows + 1, "v": i})])
        for i in range(applies)
    ]
    tracker = DigestTracker()
    for version, writeset in enumerate(writesets, start=1):
        tracker.apply(writeset, version)
    started = time.perf_counter()
    for version, writeset in enumerate(writesets, start=1):
        db.apply_writeset(writeset, version)
    return time.perf_counter() - started


def digest_overhead(rows: int = 500, applies: int = 4_000,
                    repeats: int = 5) -> dict:
    """Best-of-``repeats`` apply cost with digests on vs off."""
    on = min(_apply_run(True, rows, applies) for _ in range(repeats))
    off = min(_apply_run(False, rows, applies) for _ in range(repeats))
    return {
        "rows": rows,
        "applies": applies,
        "apply_s_digests_on": round(on, 4),
        "apply_s_digests_off": round(off, 4),
        "overhead_ratio": round(on / off, 3),
        "budget_ratio": OVERHEAD_BUDGET,
    }


# -- entry points ------------------------------------------------------------

def render(rows) -> str:
    lines = ["detection latency vs scrub interval (sim ms):",
             f"  {'interval':>8}  {'bound':>6}  {'mean':>6}  {'max':>6}  {'repair':>6}"]
    for row in rows:
        lines.append(
            f"  {row['interval_ms']:8.0f}  {row['bound_ms']:6.0f}  "
            f"{row['mean_detection_ms']:6.1f}  {row['max_detection_ms']:6.1f}  "
            f"{row['mean_repair_ms']:6.1f}"
        )
    return "\n".join(lines)


def smoke():
    """CI perf smoke: one interval/seed, sim-time assertions only."""
    rows = detection_sweep(SMOKE_INTERVALS, SMOKE_SEEDS)
    tax = digest_overhead(rows=200, applies=1_000, repeats=3)
    print("scrub smoke OK:")
    print(render(rows))
    # Wall-clock is informational in smoke — shared runners must not flake.
    print(
        f"digest maintenance: {tax['overhead_ratio']:.3f}x apply cost "
        f"(budget {OVERHEAD_BUDGET:.2f}x, not asserted in smoke)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one interval/seed, sim-time assertions only",
    )
    parser.parse_args()
    smoke()


if __name__ == "__main__":
    main()
