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
  and abort causes.

Run standalone (prints its JSON record)::

    PYTHONPATH=src python benchmarks/bench_certifier_scaling.py

or as the CI perf smoke (tiny windows, counter-based assertions only —
wall-clock is never asserted, so shared runners can't flake it)::

    PYTHONPATH=src python benchmarks/bench_certifier_scaling.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time

from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    PerformanceParams,
)
from repro.middleware.certindex import scan_first_conflict
from repro.sim import Environment, LatencyModel, Network, RngRegistry
from repro.storage.writeset import OpKind, WriteOp, WriteSet

FULL_WINDOWS = (10, 100, 1_000)
SMOKE_WINDOWS = (8, 64)


def update_ws(table, key):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": 1})])


def quiet_params():
    return PerformanceParams(cv=1e-6, replica_speed_spread=0.0)


# ---------------------------------------------------------------------------
# Certification cost vs. conflict-window depth
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
        level="sc-coarse",
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
    print("perf smoke OK:")
    for row in rows:
        print(
            f"  window {row['window']:>4}: scan {row['scan_row_comparisons']:>7} cmp"
            f" vs index {row['index_row_comparisons']:>4} cmp"
            f" ({row['comparisons_ratio']}x)"
        )


def full():
    probes = 100
    rows = certification_rows(FULL_WINDOWS, probes)
    deepest = rows[-1]
    result = {
        "bench": "bench_certifier_scaling",
        "probes_per_window": probes,
        "certification": rows,
        "acceptance": {
            "ratio_at_window_1000": deepest["comparisons_ratio"],
            "ratio_at_least_10x": deepest["comparisons_ratio"] >= 10.0,
            "index_wall_clock_lower": deepest["index_wall_s"]
            < deepest["scan_wall_s"],
            "decisions_identical": all(r["decisions_identical"] for r in rows),
        },
    }
    print(json.dumps(result, indent=2))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny windows + assertions only (CI perf smoke)",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        smoke()
    else:
        full()


if __name__ == "__main__":
    main()
