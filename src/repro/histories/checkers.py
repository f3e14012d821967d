"""Consistency checkers over recorded run histories.

These checkers decide, from a :class:`~repro.histories.records.RunHistory`,
whether an actual run of the replicated system satisfied:

* **strong consistency** (Definition 1) — for every pair of committed
  transactions where T_i was *acknowledged* before T_j was *submitted*
  (the only "commits before starts" order clients and hidden channels can
  observe), T_j's snapshot must include T_i's commit.

  Two variants:

  - the **observational** check only requires it when T_i updated a table
    T_j can access — this is the guarantee the fine-grained technique
    provides, and it is all a client can ever observe (a transaction cannot
    witness staleness of tables it never reads);
  - the **strict** check requires the full snapshot to be fresh regardless
    of table-sets — SC-COARSE and EAGER satisfy it; SC-FINE intentionally
    may not, while remaining observationally strongly consistent.

* **session consistency** (Definition 2) — the same implication restricted
  to pairs within one session, regardless of tables (a client always sees
  its own updates).  Snapshot monotonicity within a session ("never goes
  back in time", per [12]) is checked separately by
  :func:`session_monotonicity_violations`.

Each violation pinpoints the offending pair, which makes test failures and
the consistency-audit example self-explanatory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .records import RunHistory, TxnRecord

__all__ = [
    "Violation",
    "strong_consistency_violations",
    "session_consistency_violations",
    "session_monotonicity_violations",
    "is_strongly_consistent",
    "is_session_consistent",
    "staleness_report",
]


@dataclass(frozen=True)
class Violation:
    """One broken guarantee: ``later`` failed to observe ``earlier``."""

    kind: str
    earlier: TxnRecord
    later: TxnRecord
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] txn {self.later.request_id} "
            f"(session {self.later.session_id}, snapshot v{self.later.snapshot_version}) "
            f"missed commit v{self.earlier.commit_version} of txn "
            f"{self.earlier.request_id}: {self.detail}"
        )


def _acknowledged_before(
    committed, observational: bool
) -> Iterator[tuple[TxnRecord, Optional[TxnRecord]]]:
    """The acknowledgment sweep every checker here shares.

    Yields each of the ``committed`` records in submit order, paired with
    the highest-version update acknowledged before it was submitted
    (``ack(T_i) < submit(T_j)``, the only "commits before starts" order
    clients and hidden channels can observe) — among updates that wrote a
    table the record can access when ``observational``, among all of them
    otherwise; None when there is none.
    """
    committed = sorted(committed, key=lambda r: r.submit_time)
    updates = sorted((r for r in committed if r.is_update), key=lambda r: r.ack_time)
    # Process acknowledgments in time order, keeping the highest-version
    # acknowledged update globally and per table.
    table_max: dict[str, TxnRecord] = {}
    global_max: Optional[TxnRecord] = None
    i = 0
    for later in committed:
        while i < len(updates) and updates[i].ack_time < later.submit_time:
            update = updates[i]
            if global_max is None or update.commit_version > global_max.commit_version:
                global_max = update
            if observational:
                for table in update.updated_tables:
                    current = table_max.get(table)
                    if current is None or update.commit_version > current.commit_version:
                        table_max[table] = update
            i += 1
        if not observational:
            yield later, global_max
            continue
        relevant: Optional[TxnRecord] = None
        for table in later.accessed_tables:
            candidate = table_max.get(table)
            if candidate is not None and (
                relevant is None or candidate.commit_version > relevant.commit_version
            ):
                relevant = candidate
        yield later, relevant


def strong_consistency_violations(
    history: RunHistory, observational: bool = True
) -> list[Violation]:
    """All strong-consistency violations in the run.

    A committed update T_i constrains a committed T_j when
    ``ack(T_i) < submit(T_j)``.  With ``observational=True`` the constraint
    applies only when T_i wrote a table in T_j's table-set.
    """
    kind = "strong" if observational else "strong-strict"
    return [
        Violation(
            kind,
            relevant,
            later,
            f"acknowledged at t={relevant.ack_time:.3f}, submitted at "
            f"t={later.submit_time:.3f}, snapshot v{later.snapshot_version} "
            f"< required v{relevant.commit_version}",
        )
        for later, relevant in _acknowledged_before(history.committed(), observational)
        if relevant is not None and later.snapshot_version < relevant.commit_version
    ]


def session_consistency_violations(
    history: RunHistory, observational: bool = False
) -> list[Violation]:
    """All session-consistency violations (Definition 2) in the run.

    Within each session, a transaction must observe every update the
    session previously committed and was acknowledged for.

    With ``observational=True`` the constraint applies only when the
    earlier update wrote a table the later transaction can access — the
    variant a client can actually witness.  The SESSION configuration
    satisfies the strict form; SC-FINE satisfies the observational form
    (the paper's Section III-C argument that fine-grained is *stronger*
    than session consistency refers to observable behaviour).

    Snapshot *monotonicity* (the "never goes back in time" session
    guarantee of [12]) is a separate, stronger property — see
    :func:`session_monotonicity_violations`.
    """
    # The strong checker's sweep, one session at a time (a session may
    # pipeline requests, so ack(T_i) < submit(T_j) holds even within one).
    return [
        Violation(
            "session", constraint, record,
            "transaction missed its own session's last update",
        )
        for records in history.sessions().values()
        for record, constraint in _acknowledged_before(
            (r for r in records if r.committed), observational
        )
        if constraint is not None and record.snapshot_version < constraint.commit_version
    ]


def session_monotonicity_violations(history: RunHistory) -> list[Violation]:
    """Monotonic-snapshot violations within sessions.

    For each session, snapshot versions must be non-decreasing in submit
    order ("successive transactions receive snapshots that never go back in
    time").  The SESSION configuration guarantees this by construction (the
    balancer tracks the last ``V_local`` each session observed); the strong
    configurations do *not* — a replica running ahead of ``V_system`` may
    serve a fresher snapshot than the next replica is required to reach.
    """
    violations: list[Violation] = []
    for _session, records in history.sessions().items():
        previous: Optional[TxnRecord] = None
        for record in records:
            if not record.committed:
                continue
            if previous is not None and record.snapshot_version < previous.snapshot_version:
                violations.append(
                    Violation(
                        "session-monotonicity",
                        previous,
                        record,
                        f"snapshot went back in time: v{record.snapshot_version} "
                        f"< v{previous.snapshot_version}",
                    )
                )
            previous = record
    return violations


def is_strongly_consistent(history: RunHistory, observational: bool = True) -> bool:
    """True when the run satisfied strong consistency (Definition 1)."""
    return not strong_consistency_violations(history, observational)


def is_session_consistent(history: RunHistory, observational: bool = False) -> bool:
    """True when the run satisfied session consistency (Definition 2)."""
    return not session_consistency_violations(history, observational)


def staleness_report(history: RunHistory) -> dict[str, float]:
    """How stale the snapshots were, in versions.

    For each committed transaction: (latest commit version acknowledged
    system-wide before its submit) − (its snapshot version), clamped at 0.
    Returns count, mean, and max — a quantitative view of the consistency
    gap that the BASELINE configuration exposes and the strong
    configurations close.
    """
    staleness = [
        max(0, (0 if required is None else required.commit_version) - later.snapshot_version)
        for later, required in _acknowledged_before(history.committed(), False)
    ]
    if not staleness:
        return {"count": 0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(staleness),
        "mean": sum(staleness) / len(staleness),
        "max": float(max(staleness)),
    }
