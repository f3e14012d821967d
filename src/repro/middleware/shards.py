"""Per-partition service slots of the certifier.

The certifier keeps one decision log and one certification index for every
shard count; what table-group partitioning (see
:class:`repro.core.partition.PartitionMap`) splits is its *service*.  A
:class:`CertifierShard` is one partition's single-slot server, the version
of that partition's newest commit (the predecessor the next commit there
names) and its two counters.  A transaction holds the slot of every
partition it touches, taken in ascending partition order, across conflict
check and commit (``Certifier._certify``).
"""

from __future__ import annotations

from ..sim.resources import Resource

__all__ = ["CertifierShard"]


class CertifierShard:
    """One partition's slice of the certifier: slot, newest commit, counters."""

    def __init__(self, env, partition: int):
        self.partition = partition
        #: serial certification service — transactions of this partition
        #: queue here independently of every other shard
        self.service = Resource(env, capacity=1)
        #: version of this partition's newest commit (0 = none in the log)
        self.last_global = 0
        # -- per-shard counters (surfaced via Certifier.stats()) ----------
        self.certified_count = 0
        self.abort_count = 0

    @property
    def queue_length(self) -> int:
        """Requests waiting on this shard's service slot."""
        return self.service.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CertifierShard p{self.partition} last_global={self.last_global}>"
