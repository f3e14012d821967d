"""Table-group partitioning of the commit pipeline.

The paper's certifier is one serial server in front of one total order —
the last serial bottleneck of the hot path.  SC-FINE's own Table I shows
most transactions only care about the freshness of *their* tables, so the
keyspace can be split into table-group partitions whose commits proceed
independently: each partition gets its own certifier service slot and its
own position in the per-partition version vector, while the decision log,
the certification index and the commit-version counter stay single.

:class:`PartitionMap` is the one source of truth for that split.  It is
deliberately tiny and stateless: a table name maps to a partition id either
through an explicit table-group list (the TPC-W style "by functional area"
split) or through a stable hash (``zlib.crc32``, so the mapping is
independent of dict ordering, process hash seeds and run seeds).  Only the
certifier holds the map (a failover hands it to the successor), so "which
shard owns table ``t``" has exactly one answer; proxies see only the
predecessor vectors it sends, and the load balancer sees nothing of it.

The single-partition map (``num_partitions=1``) is *trivial*: the certifier
runs it as its one-shard case and sends no predecessor vectors, so every
replica applies in full-prefix order.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Optional, Sequence

__all__ = ["PartitionMap"]


class PartitionMap:
    """Stable table → partition mapping shared by every pipeline layer."""

    def __init__(
        self,
        num_partitions: int,
        table_groups: Optional[Sequence[Sequence[str]]] = None,
    ):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self._explicit: dict[str, int] = {}
        if table_groups is not None:
            if len(table_groups) > num_partitions:
                raise ValueError(
                    f"{len(table_groups)} table groups but only "
                    f"{num_partitions} partitions"
                )
            for partition, group in enumerate(table_groups):
                for table in group:
                    if table in self._explicit:
                        raise ValueError(
                            f"table {table!r} appears in more than one group"
                        )
                    self._explicit[table] = partition
        self.table_groups = (
            tuple(tuple(group) for group in table_groups)
            if table_groups is not None
            else None
        )

    # -- mapping -------------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        """True for the single-partition map (one shard, no vectors)."""
        return self.num_partitions == 1

    def partition_of(self, table: str) -> int:
        """The partition id owning ``table``.

        Explicitly grouped tables map to their group; everything else maps
        through a stable hash so two processes (or two runs) always agree.
        """
        if self.num_partitions == 1:
            return 0
        explicit = self._explicit.get(table)
        if explicit is not None:
            return explicit
        return zlib.crc32(table.encode("utf-8")) % self.num_partitions

    def partitions_for(self, tables: Iterable[str]) -> tuple[int, ...]:
        """Sorted distinct partition ids touched by ``tables`` — the
        *canonical shard order* in which a cross-partition transaction
        acquires its shards (total order on shard acquisition = no
        deadlocks)."""
        if self.num_partitions == 1:
            return (0,)
        return tuple(sorted({self.partition_of(table) for table in tables}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionMap n={self.num_partitions} "
            f"explicit={sorted(self._explicit) or None}>"
        )
