"""The safety audit every fault run ends with (DESIGN.md D17).

:func:`audit` checks a quiesced cluster against Definition 1 (no stale
acknowledged read, by the observational checker), Section IV's durability
of certified decisions (each acknowledged commit resolves, through one
attempt of its retry lineage, to its version in the certifier's log; no
fate-resolved abort is in the log; no lineage has two decisions there), and
the end state a healed cluster must reach: every replica up, its applier
alive, at ``V_commit``, with recomputed digests equal to the first
replica's and to the certifier's digest tracker (when it keeps one), in
the certifier's membership and routable at the balancer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..histories.checkers import Violation, strong_consistency_violations

__all__ = ["AuditReport", "audit"]


@dataclass(frozen=True)
class AuditReport:
    """The findings of :func:`audit`, one field per check.

    ``committed`` counts acknowledged commits; every other field holds a
    check's offenders and is empty when the check held."""

    committed: int
    stale_reads: tuple[Violation, ...]
    lost: tuple[int, ...]
    fenced_but_committed: tuple[int, ...]
    doubled_lineages: tuple[int, ...]
    unconverged: tuple[str, ...]
    diverged: tuple[str, ...]
    not_live: tuple[str, ...]

    @property
    def failures(self) -> dict[str, tuple]:
        """The checks that failed, by field name, with their offenders."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:] if getattr(self, f.name)}

    @property
    def ok(self) -> bool:
        return not self.failures


def audit(cluster) -> AuditReport:
    """Run every check against ``cluster`` (after ``quiesce``)."""
    certifier = cluster.certifier
    balancer = cluster.load_balancer
    history = balancer.history

    committed = [
        record for record in history.records
        if record.committed and record.commit_version is not None
    ]
    lost, doubled = [], []
    for record in committed:
        attempts = balancer.retry_lineage.get(record.request_id, [record.request_id])
        decisions = [certifier.decision_for(attempt) for attempt in attempts]
        if record.commit_version not in decisions:
            lost.append(record.request_id)
        if len(decisions) - decisions.count(None) > 1:
            doubled.append(record.request_id)

    commit_version = certifier.commit_version
    tracker = certifier.digest_tracker
    unconverged, diverged, not_live = [], [], []
    reference = None
    for name, proxy in cluster.replicas.items():
        if proxy.crashed:
            unconverged.append(f"{name} crashed")
        elif not proxy.applier_alive:
            unconverged.append(f"{name} applier died")
        elif proxy.v_local != commit_version:
            unconverged.append(f"{name} at v{proxy.v_local}, V_commit v{commit_version}")
        database = proxy.engine.database
        digests = database.recompute_digests()
        if reference is None:
            reference = digests
        if digests != reference or (
            tracker is not None and digests != tracker.expected_at(database.version)
        ):
            diverged.append(name)
        if (
            name not in certifier.replica_names
            or name not in balancer.up_replicas
            or name in balancer.joining_replicas
            or name in balancer.quarantined_replicas
        ):
            not_live.append(name)

    return AuditReport(
        committed=len(committed),
        stale_reads=tuple(strong_consistency_violations(history)),
        lost=tuple(lost),
        fenced_but_committed=tuple(
            request_id
            for request_id in balancer.fenced_request_ids
            if certifier.decision_for(request_id) is not None
        ),
        doubled_lineages=tuple(doubled),
        unconverged=tuple(unconverged),
        diverged=tuple(diverged),
        not_live=tuple(not_live),
    )
