"""Certification cost vs. conflict-window size: scan vs. index.

The certifier's hot path decides each update transaction against the
committed writesets in its conflict window ``(snapshot, V_commit]``.  The
reference implementation scans that window — O(window) row comparisons per
certification, so a single lagging replica (stale snapshots, deep windows)
makes *every* commit more expensive.  The last-writer version index answers
the same question in O(|writeset| + |readset|) probes.

This bench drives both through the real certifier on identical request
streams — the scan side is the reference function
:func:`repro.middleware.certindex.scan_first_conflict`, plugged in by a
small ``Certifier`` subclass — and reports:

* row comparisons and wall-clock per certification at increasing window
  depths (the scan grows linearly, the index stays flat);
* a decision-identity check — both must produce the same commit versions
  and abort causes;
* refresh-apply drain time on a backlogged replica, one-at-a-time vs.
  group refresh (``batch_refresh_apply``).

Run standalone (writes ``BENCH_certifier.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_certifier_scaling.py

or as the CI perf smoke (tiny windows, counter-based assertions only —
wall-clock is never asserted, so shared runners can't flake it)::

    PYTHONPATH=src python benchmarks/bench_certifier_scaling.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core.consistency import ConsistencyLevel
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    PerformanceParams,
    RefreshWriteset,
    ReplicaPerformance,
    ReplicaProxy,
)
from repro.middleware.certindex import scan_first_conflict
from repro.sim import Environment, LatencyModel, Network, RngRegistry
from repro.storage import Column, StorageEngine, TableSchema
from repro.storage.writeset import OpKind, WriteOp, WriteSet
from repro.workloads.base import TemplateCatalog

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_WINDOWS = (10, 100, 1_000)
SMOKE_WINDOWS = (8, 64)


def update_ws(table, key):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": 1})])


def quiet_params():
    return PerformanceParams(cv=1e-6, replica_speed_spread=0.0)


# ---------------------------------------------------------------------------
# Part A: certification cost vs. conflict-window depth
# ---------------------------------------------------------------------------


class ScanCertifier(Certifier):
    """The certifier with its conflict check swapped for the reference
    window scan (no truncation happens here, so no conservative abort)."""

    def _find_conflict(self, request):
        slots = request.writeset.slots | (request.readset or frozenset())
        version, compared = scan_first_conflict(
            self.log, slots, request.snapshot_version
        )
        self.row_comparisons += compared
        return version


def run_certification(mode, window, probes):
    """Preload ``window`` committed writesets, then certify ``probes``
    transactions whose snapshot predates the whole window (the worst case
    for the scan).  Probe writesets touch a disjoint table, so every
    decision is a commit and both sides stay on identical streams."""
    env = Environment()
    network = Network(
        env, RngRegistry(42).stream("net"), LatencyModel(base=0.05, jitter=0.0)
    )
    origin = network.register("replica-0")
    certifier = (ScanCertifier if mode == "scan" else Certifier)(
        env=env,
        network=network,
        perf=CertifierPerformance(quiet_params(), RngRegistry(1).stream("cert")),
        replica_names=["replica-0"],
        level=ConsistencyLevel.SC_COARSE,
    )

    request_id = 0

    def send(snapshot, writeset):
        nonlocal request_id
        request_id += 1
        network.send(
            "replica-0",
            certifier.name,
            CertifyRequest(
                txn_id=request_id,
                origin="replica-0",
                snapshot_version=snapshot,
                writeset=writeset,
                request_id=request_id,
            ),
        )

    for key in range(window):
        send(0, update_ws("hot", key))
    env.run()
    while len(origin):
        origin.receive()  # discard preload replies

    comparisons_before = certifier.row_comparisons
    started = time.perf_counter()
    for probe in range(probes):
        send(0, update_ws("cold", probe))
    env.run()
    wall_s = time.perf_counter() - started

    decisions = []
    while len(origin):
        message = origin.receive().value
        if isinstance(message, CertifyReply):
            decisions.append(
                (message.certified, message.commit_version, message.conflict_with)
            )
    assert len(decisions) == probes
    return {
        "mode": mode,
        "window": window,
        "probes": probes,
        "row_comparisons": certifier.row_comparisons - comparisons_before,
        "wall_s": round(wall_s, 6),
        "decisions": decisions,
    }


def certification_rows(windows, probes):
    rows = []
    for window in windows:
        scan = run_certification("scan", window, probes)
        index = run_certification("index", window, probes)
        assert scan["decisions"] == index["decisions"], (
            f"scan/index decision divergence at window {window}"
        )
        rows.append(
            {
                "window": window,
                "probes": probes,
                "scan_row_comparisons": scan["row_comparisons"],
                "index_row_comparisons": index["row_comparisons"],
                "comparisons_ratio": round(
                    scan["row_comparisons"] / max(index["row_comparisons"], 1), 1
                ),
                "scan_wall_s": scan["wall_s"],
                "index_wall_s": index["wall_s"],
                "decisions_identical": True,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Part B: refresh-apply drain, one-at-a-time vs. group refresh
# ---------------------------------------------------------------------------


def run_refresh_drain(batched, versions, ops_per_refresh=2):
    """Build a backlog of ``versions - 1`` pending refreshes behind a gap at
    version 1, release the gap, and measure the *virtual* time the replica
    needs to drain the run."""
    env = Environment()
    network = Network(
        env, RngRegistry(7).stream("net"), LatencyModel(base=0.05, jitter=0.0)
    )
    network.register("certifier")  # sink for CommitApplied / gap repair
    network.register("lb")
    engine = StorageEngine()
    engine.create_table(
        TableSchema("t", [Column("id", int), Column("v", int)], "id")
    )
    proxy = ReplicaProxy(
        env=env,
        network=network,
        name="replica-0",
        engine=engine,
        perf=ReplicaPerformance(quiet_params(), RngRegistry(3).stream("perf")),
        level=ConsistencyLevel.SC_COARSE,
        templates=TemplateCatalog(),
        batch_refresh_apply=batched,
    )

    def refresh(version):
        ops = [
            WriteOp("t", version * 10 + i, OpKind.INSERT,
                    {"id": version * 10 + i, "v": version})
            for i in range(ops_per_refresh)
        ]
        network.send(
            "certifier", "replica-0",
            RefreshWriteset(version, WriteSet(ops), "replica-1", version),
        )

    for version in range(2, versions + 1):
        refresh(version)
    env.run()
    assert proxy.v_local == 0 and proxy.pending_refresh_count == versions - 1
    refresh(1)
    started = env.now
    env.run()
    assert proxy.v_local == versions
    assert proxy.refresh_applied_count == versions
    return {
        "batched": batched,
        "versions": versions,
        "ops_per_refresh": ops_per_refresh,
        "virtual_drain_ms": round(env.now - started, 3),
        "refresh_batches": proxy.refresh_batches,
    }


def refresh_result(versions):
    one_at_a_time = run_refresh_drain(False, versions)
    grouped = run_refresh_drain(True, versions)
    return {
        "versions": versions,
        "one_at_a_time_drain_ms": one_at_a_time["virtual_drain_ms"],
        "batched_drain_ms": grouped["virtual_drain_ms"],
        "speedup": round(
            one_at_a_time["virtual_drain_ms"] / grouped["virtual_drain_ms"], 2
        ),
        "refresh_batches": grouped["refresh_batches"],
    }


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def smoke():
    """CI perf smoke: tiny windows, deterministic counter assertions."""
    probes = 50
    rows = certification_rows(SMOKE_WINDOWS, probes)
    small, large = rows[0], rows[-1]
    growth = SMOKE_WINDOWS[-1] / SMOKE_WINDOWS[0]
    # Probes also commit, so each scan pays for the probes before it — a
    # fixed self-term of P(P-1)/2 comparisons at any window.  Subtract it to
    # isolate the window-attributable cost, which must grow linearly for the
    # scan and not at all for the index.
    self_term = probes * (probes - 1) // 2
    scan_small = small["scan_row_comparisons"] - self_term
    scan_large = large["scan_row_comparisons"] - self_term
    assert scan_large > scan_small * (growth / 2), (
        f"scan did not scale with the window: {rows}"
    )
    assert large["index_row_comparisons"] <= small["index_row_comparisons"] * 2, (
        f"index row comparisons grew with the window: {rows}"
    )
    assert large["comparisons_ratio"] >= growth / 2, (
        f"index beat the scan by only {large['comparisons_ratio']}x: {rows}"
    )
    refresh = refresh_result(versions=64)
    assert refresh["refresh_batches"] >= 1
    assert refresh["batched_drain_ms"] <= refresh["one_at_a_time_drain_ms"]
    print("perf smoke OK:")
    for row in rows:
        print(
            f"  window {row['window']:>4}: scan {row['scan_row_comparisons']:>7} cmp"
            f" vs index {row['index_row_comparisons']:>4} cmp"
            f" ({row['comparisons_ratio']}x)"
        )
    print(
        f"  refresh drain x{refresh['versions']}: "
        f"{refresh['one_at_a_time_drain_ms']}ms one-at-a-time vs "
        f"{refresh['batched_drain_ms']}ms batched ({refresh['speedup']}x)"
    )


def full(output):
    probes = 100
    rows = certification_rows(FULL_WINDOWS, probes)
    refresh = refresh_result(versions=400)
    deepest = rows[-1]
    result = {
        "bench": "bench_certifier_scaling",
        "probes_per_window": probes,
        "certification": rows,
        "refresh_apply": refresh,
        "acceptance": {
            "ratio_at_window_1000": deepest["comparisons_ratio"],
            "ratio_at_least_10x": deepest["comparisons_ratio"] >= 10.0,
            "index_wall_clock_lower": deepest["index_wall_s"]
            < deepest["scan_wall_s"],
            "decisions_identical": all(r["decisions_identical"] for r in rows),
        },
    }
    text = json.dumps(result, indent=2)
    output.write_text(text + "\n", encoding="utf-8")
    print(text)
    print(f"\nwrote {output}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny windows + assertions only (CI perf smoke); writes no file",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_certifier.json",
        help="where the full run writes its JSON record",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        smoke()
    else:
        full(arguments.output)


if __name__ == "__main__":
    main()
