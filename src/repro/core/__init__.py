"""The paper's contribution: consistency configurations over lazy replication.

Public API: build a :class:`ReplicatedDatabase` over a workload with any
registered :class:`ConsistencyPolicy` (``level="sc-fine"``, ``"relaxed:3"``
or a policy instance), then drive it with sessions or closed-loop clients.
"""

from .cluster import ClusterConfig, ReplicatedDatabase
from .partition import PartitionMap
from .policy import (
    ConsistencyPolicy,
    available_policies,
    register_policy,
    resolve_policy,
)
from .session import SyncSession
from .versions import VersionTracker

__all__ = [
    "ClusterConfig",
    "ConsistencyPolicy",
    "PartitionMap",
    "ReplicatedDatabase",
    "SyncSession",
    "VersionTracker",
    "available_policies",
    "register_policy",
    "resolve_policy",
]
