"""The durability audit every fault arm ends with.

Two properties of the commit pipeline must survive any schedule of
crashes, partitions and certifier failovers:

* **no acknowledged-but-lost commit** — every commit a client was
  acknowledged for resolves, through one attempt of its retry lineage, to
  that same version in the certifier's decision log;
* **no fenced-but-committed request** — a request the balancer
  fate-resolved into a final abort never also appears in the log.
"""

from __future__ import annotations

__all__ = ["durability_audit"]


def durability_audit(balancer, certifier) -> dict:
    """The request ids violating either property.

    Reads the balancer's history and retry lineage against the live
    ``certifier``'s decision log."""
    lost = [
        record.request_id
        for record in balancer.history.records
        if record.committed
        and record.commit_version is not None
        and not any(
            certifier.decision_for(attempt) == record.commit_version
            for attempt in balancer.retry_lineage.get(
                record.request_id, [record.request_id]
            )
        )
    ]
    fenced_but_committed = [
        request_id
        for request_id in balancer.fenced_request_ids
        if certifier.decision_for(request_id) is not None
    ]
    return {"lost": lost, "fenced_but_committed": fenced_but_committed}
