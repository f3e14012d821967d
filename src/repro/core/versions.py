"""Version accounting — the heart of the paper's contribution.

The load balancer maintains three pieces of soft state (Section IV):

* ``V_system`` — the version of the latest update transaction committed and
  acknowledged to *any* client (drives SC-COARSE);
* per-table versions ``V_t`` — the version of the latest acknowledged commit
  that wrote table *t* (drives SC-FINE; Table I of the paper walks through
  the maintenance rules reproduced by :class:`VersionTracker`);
* per-session versions — the version the session's last transaction
  committed at / observed (drives SESSION).

The *minimum database version a replica must reach before starting a
transaction* — the single number the whole technique turns on — is computed
by the configured :class:`~repro.core.policy.ConsistencyPolicy` from this
tracker's state (``policy.start_version(tracker, ...)``).
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["VersionTracker"]


class VersionTracker:
    """The load balancer's version and session accounting."""

    def __init__(self):
        self._v_system = 0
        self._table_versions: dict[str, int] = {}
        self._session_versions: dict[str, int] = {}

    # -- state views ---------------------------------------------------------
    @property
    def v_system(self) -> int:
        """Latest acknowledged committed database version (``V_system``)."""
        return self._v_system

    def table_version(self, table: str) -> int:
        """``V_t``: latest acknowledged version that updated ``table``
        (0 when the table has never been updated)."""
        return self._table_versions.get(table, 0)

    def session_version(self, session_id: str) -> int:
        """The version the session must observe (0 for a new session)."""
        return self._session_versions.get(session_id, 0)

    # -- updates (driven by replica responses) -------------------------------
    def observe_commit(
        self,
        commit_version: Optional[int],
        updated_tables: Iterable[str] = (),
        session_id: Optional[str] = None,
        replica_version: Optional[int] = None,
    ) -> None:
        """Account for a transaction acknowledgment.

        ``commit_version`` is None for read-only transactions (they consume
        no version).  ``updated_tables`` is the writeset's table set.
        ``replica_version`` is the ``V_local`` the proxy tagged the response
        with; session consistency tracks it so a client's next transaction
        sees a monotonically non-decreasing snapshot.
        """
        if commit_version is not None:
            if commit_version > self._v_system:
                self._v_system = commit_version
            for table in updated_tables:
                if commit_version > self._table_versions.get(table, 0):
                    self._table_versions[table] = commit_version
        if session_id is not None:
            observed = replica_version if replica_version is not None else 0
            if commit_version is not None:
                observed = max(observed, commit_version)
            if observed > self._session_versions.get(session_id, 0):
                self._session_versions[session_id] = observed
