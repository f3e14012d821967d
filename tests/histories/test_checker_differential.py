"""Differential test: the checkers' shared acknowledgment sweep against the
three separate sweeps it replaced.

The reference functions below are the earlier implementations, kept
verbatim, each with its own ack-ordered sweep.  On random histories the
violation lists (kind, records and detail strings) and the staleness report
must be equal, not merely agree on "consistent or not".
"""

from typing import Optional

from hypothesis import given, settings

from repro.histories import (
    RunHistory,
    TxnRecord,
    Violation,
    session_consistency_violations,
    staleness_report,
    strong_consistency_violations,
)

from .test_checker_properties import histories


def reference_strong_consistency_violations(
    history: RunHistory, observational: bool = True
) -> list[Violation]:
    committed = sorted(history.committed(), key=lambda r: r.submit_time)
    updates = sorted(
        (r for r in committed if r.is_update), key=lambda r: r.ack_time
    )
    violations: list[Violation] = []
    table_max: dict[str, TxnRecord] = {}
    global_max: Optional[TxnRecord] = None
    i = 0
    for later in committed:
        while i < len(updates) and updates[i].ack_time < later.submit_time:
            update = updates[i]
            if global_max is None or update.commit_version > global_max.commit_version:
                global_max = update
            for table in update.updated_tables:
                current = table_max.get(table)
                if current is None or update.commit_version > current.commit_version:
                    table_max[table] = update
            i += 1
        if observational:
            relevant: Optional[TxnRecord] = None
            for table in later.accessed_tables:
                candidate = table_max.get(table)
                if candidate is not None and (
                    relevant is None
                    or candidate.commit_version > relevant.commit_version
                ):
                    relevant = candidate
        else:
            relevant = global_max
        if relevant is not None and later.snapshot_version < relevant.commit_version:
            kind = "strong" if observational else "strong-strict"
            violations.append(
                Violation(
                    kind,
                    relevant,
                    later,
                    f"acknowledged at t={relevant.ack_time:.3f}, submitted at "
                    f"t={later.submit_time:.3f}, snapshot v{later.snapshot_version} "
                    f"< required v{relevant.commit_version}",
                )
            )
    return violations


def reference_session_consistency_violations(
    history: RunHistory, observational: bool = False
) -> list[Violation]:
    violations: list[Violation] = []
    for _session, records in history.sessions().items():
        committed = sorted(
            (r for r in records if r.committed), key=lambda r: r.submit_time
        )
        updates = sorted(
            (r for r in committed if r.is_update), key=lambda r: r.ack_time
        )
        table_last: dict[str, TxnRecord] = {}
        last_update: Optional[TxnRecord] = None
        i = 0
        for record in committed:
            while i < len(updates) and updates[i].ack_time < record.submit_time:
                update = updates[i]
                if last_update is None or update.commit_version > last_update.commit_version:
                    last_update = update
                for table in update.updated_tables:
                    current = table_last.get(table)
                    if current is None or update.commit_version > current.commit_version:
                        table_last[table] = update
                i += 1
            if observational:
                constraint: Optional[TxnRecord] = None
                for table in record.accessed_tables:
                    candidate = table_last.get(table)
                    if candidate is not None and (
                        constraint is None
                        or candidate.commit_version > constraint.commit_version
                    ):
                        constraint = candidate
            else:
                constraint = last_update
            if constraint is not None and record.snapshot_version < constraint.commit_version:
                violations.append(
                    Violation(
                        "session",
                        constraint,
                        record,
                        "transaction missed its own session's last update",
                    )
                )
    return violations


def reference_staleness_report(history: RunHistory) -> dict[str, float]:
    committed = sorted(history.committed(), key=lambda r: r.submit_time)
    updates = sorted((r for r in committed if r.is_update), key=lambda r: r.ack_time)
    staleness: list[int] = []
    required = 0
    i = 0
    for later in committed:
        while i < len(updates) and updates[i].ack_time < later.submit_time:
            required = max(required, updates[i].commit_version)
            i += 1
        staleness.append(max(0, required - later.snapshot_version))
    if not staleness:
        return {"count": 0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(staleness),
        "mean": sum(staleness) / len(staleness),
        "max": float(max(staleness)),
    }


@given(histories())
@settings(max_examples=500, deadline=None)
def test_shared_sweep_matches_the_separate_sweeps(history):
    for observational in (True, False):
        assert strong_consistency_violations(history, observational) == (
            reference_strong_consistency_violations(history, observational)
        )
        assert session_consistency_violations(history, observational) == (
            reference_session_consistency_violations(history, observational)
        )
    assert staleness_report(history) == reference_staleness_report(history)
