"""Silent-divergence fault model: bit rot, lost applies, double applies.

The faults the anti-entropy subsystem exists to catch.  They install
state *wrongly on purpose*, beneath the database's digest bookkeeping, so
they live here and reach into :class:`Database` privates rather than sit
on the production classes.  :class:`FaultInjector` is the only caller
outside tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..storage.database import Database
from ..storage.writeset import OpKind, WriteSet

__all__ = ["apply_writeset_corrupted", "arm_refresh_fault", "corrupt_row_in_place"]

def corrupt_row_in_place(database: Database, table: str, key) -> bool:
    """Bit rot: scramble the newest image of ``(table, key)`` in place.

    The change lands beneath the incremental digest.  Returns False when
    there is no visible image to corrupt."""
    tbl = database.table(table)
    latest = tbl.latest(key)
    if latest is None or latest.deleted:
        return False
    schema = tbl.schema
    values = dict(latest.values)
    for column in sorted(values):
        if column == schema.primary_key:
            continue
        current = values[column]
        if isinstance(current, bool):
            values[column] = not current
        elif isinstance(current, (int, float)):
            values[column] = current + current + 1
        else:
            values[column] = f"{current}☠"
        # Install a corrupted version rather than touching the stored
        # one: sibling replicas share it, and a row-sync capture taken
        # before the corruption must keep observing the clean image it
        # captured.
        tbl.swap_latest(key, values)
        return True
    return False


def apply_writeset_corrupted(database: Database, writeset: WriteSet, commit_version: int,
                             mode: str, after: Optional[tuple] = None) -> None:
    """Install ``commit_version`` *wrongly*.

    ``mode="skip"`` models a lost apply: the version bookkeeping
    advances (the replica believes it applied the refresh) but no row is
    touched.  ``mode="double"`` models a non-idempotent double
    application: the refresh applies normally, then each written row's
    numeric deltas are folded in a second time *in place*, beneath the
    digest bookkeeping — only a content rescan can see it.
    """
    if mode not in ("skip", "double"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    if mode == "skip":
        database._check_apply_order(commit_version, after)
        database._advance_version(commit_version)
        return
    database.apply_writeset(writeset, commit_version, after)
    for op in writeset:
        if op.kind is not OpKind.DELETE:
            corrupt_row_in_place(database, op.table, op.key)


def arm_refresh_fault(engine, mode: str, on_fire: Callable[[int], None]) -> None:
    """Make the next refresh ``engine`` installs go wrong, one-shot.

    ``mode`` is as in :func:`apply_writeset_corrupted`; the corrupted
    version is reported through ``on_fire(version)``.

    ``apply_refresh`` is shadowed on this one engine instance and
    the shadow deletes itself as it fires, so every later refresh takes the
    class's method again.  Arming again before it fires replaces the mode.
    The engine is the replica's durable half, so an armed fault survives a
    proxy ``crash()`` / ``recover()``.
    """

    def faulty_apply_refresh(writeset, commit_version, after=None):
        del engine.apply_refresh
        apply_writeset_corrupted(engine.database, writeset, commit_version, mode, after)
        on_fire(commit_version)

    engine.apply_refresh = faulty_apply_refresh
