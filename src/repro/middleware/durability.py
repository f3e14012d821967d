"""Certifier decision log — the system's durability point.

Following Tashkent (which the paper adopts), transaction durability is
enforced at the certifier: each commit decision is appended to a durable,
totally ordered log, and the replicas run with log-forcing off.  Replica
recovery replays this log from the replica's last applied version.

The log is in-memory with an optional line-per-decision file sink so tests
and examples can inspect the persisted form.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..storage.writeset import OpKind, WriteOp, WriteSet

__all__ = ["LogEntry", "DecisionLog", "LogCorruptionError"]


class LogCorruptionError(ValueError):
    """The file sink holds a line whose CRC32 frame does not verify — and it
    is not a torn tail, so the damage cannot be explained by a crashed
    writer.  Carries the path and 1-based line number of the bad line."""

    def __init__(self, path: str, line_number: int, why: str):
        super().__init__(
            f"decision log {path!r} corrupt at line {line_number}: {why}"
        )
        self.path = path
        self.line_number = line_number
        self.why = why


@dataclass(frozen=True)
class LogEntry:
    """One committed transaction: its global version, origin and writeset.

    ``request_id`` ties the decision back to the client request that asked
    for it — the fate-resolution protocol looks commits up by request id
    when an update transaction times out (0 for entries predating the
    field, e.g. old file sinks).

    ``prevs`` is the commit's per-partition predecessor vector
    ``((partition, prev_version), ...)`` — for each partition the writeset
    wrote, the version of the previous commit there.  It is set only by a
    certifier with more than one shard (a single partition's predecessor is
    always ``commit_version - 1``), so single-shard logs serialise
    byte-identically to the pre-partitioning format.
    """

    commit_version: int
    txn_id: int
    origin: str
    writeset: WriteSet
    request_id: int = 0
    prevs: tuple = ()

    def to_json(self) -> str:
        """Serialise for the file sink (used by the durability tests)."""
        ops = [
            {
                "table": op.table,
                "key": op.key,
                "kind": op.kind.value,
                "values": dict(op.values) if op.values is not None else None,
            }
            for op in self.writeset
        ]
        payload = {
            "v": self.commit_version,
            "txn": self.txn_id,
            "origin": self.origin,
            "req": self.request_id,
            "ops": ops,
        }
        # Emitted only when set: single-shard entries stay byte-identical
        # to the pre-partitioning format.
        if self.prevs:
            payload["prevs"] = [list(p) for p in self.prevs]
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "LogEntry":
        """Parse an entry previously written by :meth:`to_json`."""
        data = json.loads(line)
        ops = [
            WriteOp(o["table"], o["key"], OpKind(o["kind"]), o["values"])
            for o in data["ops"]
        ]
        return LogEntry(
            data["v"], data["txn"], data["origin"], WriteSet(ops),
            request_id=data.get("req", 0),
            prevs=tuple(tuple(p) for p in data.get("prevs", [])),
        )


def _frame(payload: str) -> str:
    """One durable log line: ``payload TAB crc32hex``.

    The JSON payload never contains a literal tab (``json.dumps`` escapes
    control characters), so the frame splits unambiguously from the right.
    """
    return f"{payload}\t{zlib.crc32(payload.encode('utf-8')):08x}"


def _unframe(line: str) -> str:
    """Verify a framed line and return its payload; raises ``ValueError``
    with a precise cause on a bad frame."""
    payload, sep, crc = line.rpartition("\t")
    if not sep:
        raise ValueError("missing CRC32 frame")
    if len(crc) != 8 or any(c not in "0123456789abcdef" for c in crc):
        raise ValueError(f"malformed CRC32 field {crc!r}")
    actual = zlib.crc32(payload.encode("utf-8"))
    if actual != int(crc, 16):
        raise ValueError(f"CRC32 mismatch: stored {crc}, computed {actual:08x}")
    return payload


class DecisionLog:
    """Totally ordered durable log of commit decisions.

    Supports prefix truncation (:meth:`truncate_to`): once every replica has
    applied a version (the certifier's *replication horizon*), the entries
    at or below it are no longer needed for recovery or conflict checks and
    can be dropped from memory.  Indexing accounts for the truncated prefix.

    The file sink frames every line with a CRC32 of its payload so
    :meth:`load` can tell a torn final write (crash mid-append — recoverable
    by dropping the tail) from corruption in the body of the log (fatal:
    :class:`LogCorruptionError`).
    """

    def __init__(self, path: Optional[str] = None):
        self._entries: list[LogEntry] = []
        #: number of leading versions truncated away (entries 1.._offset)
        self._offset = 0
        self._path = path
        self._file = open(path, "a", encoding="utf-8") if path else None
        #: torn final lines dropped by :meth:`load` when rebuilding this log
        self.torn_tail_dropped = 0
        #: lines :meth:`load` accepted with a verified CRC32 frame
        self.framed_lines_loaded = 0

    def __len__(self) -> int:
        """Entries currently held in memory (excludes the truncated prefix)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        """The entries held in memory, in commit-version order."""
        return iter(self._entries)

    @property
    def first_version(self) -> int:
        """Oldest version still held (0 when empty)."""
        return self._offset + 1 if self._entries else 0

    @property
    def truncation_version(self) -> int:
        """Versions at or below this have been truncated away (0 = none)."""
        return self._offset

    @property
    def last_version(self) -> int:
        """Version of the newest logged decision (counts truncated ones)."""
        return self._offset + len(self._entries)

    def append(self, entry: LogEntry) -> None:
        """Append a decision; versions must be contiguous from 1."""
        expected = self.last_version + 1
        if entry.commit_version != expected:
            raise ValueError(
                f"log gap: expected version {expected}, got {entry.commit_version}"
            )
        self._entries.append(entry)
        if self._file is not None:
            self._file.write(_frame(entry.to_json()) + "\n")
            self._file.flush()

    def truncate_to(self, version: int) -> int:
        """Drop in-memory entries with ``commit_version <= version``.

        Only legal up to the replication horizon — the caller guarantees no
        replica will ever ask for the dropped suffix again.  The file sink
        (if any) is never truncated: it remains the complete durable record.
        Returns the number of entries dropped.
        """
        drop = min(max(0, version - self._offset), len(self._entries))
        if drop:
            del self._entries[:drop]
            self._offset += drop
        return drop

    def entries_after(self, version: int) -> list[LogEntry]:
        """All decisions with ``commit_version > version`` (recovery replay).

        Raises :class:`KeyError` when part of the requested suffix has been
        truncated — the caller asked for history nobody should still need.
        """
        if version >= self.last_version:
            return []
        if version < self._offset:
            raise KeyError(
                f"log truncated to v{self._offset}; cannot replay after v{version}"
            )
        return self._entries[version - self._offset:]

    def entry(self, version: int) -> LogEntry:
        """The decision at ``version``."""
        if not self._offset < version <= self.last_version:
            raise KeyError(f"no log entry for version {version}")
        return self._entries[version - self._offset - 1]

    def writesets_between(self, low: int, high: int) -> Iterable[WriteSet]:
        """Writesets with version in ``(low, high]`` — the certifier's
        conflict-check window."""
        low = max(low, self._offset)
        high = min(high, self.last_version)
        for version in range(low + 1, high + 1):
            yield self.entry(version).writeset

    def clone(self) -> "DecisionLog":
        """An in-memory copy (same entries and truncation offset) — the
        standby certifier's state-machine replica."""
        log = DecisionLog()
        log._offset = self._offset
        log._entries = list(self._entries)
        return log

    def replay_into(self, target) -> int:
        """Apply every logged writeset into ``target`` (an object with
        ``version`` and ``apply_writeset``); returns versions applied."""
        applied = 0
        for entry in self.entries_after(target.version):
            target.apply_writeset(entry.writeset, entry.commit_version)
            applied += 1
        return applied

    def close(self) -> None:
        """Close the file sink, if any."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @staticmethod
    def load(path: str, truncate_torn_tail: bool = True) -> "DecisionLog":
        """Rebuild a log from its file sink (certifier crash recovery).

        Every line's CRC32 frame is verified; a line without a frame is as
        bad as one whose frame does not verify.  A bad *final* line is a
        torn write — the writer crashed mid-append and the
        decision never became durable: with ``truncate_torn_tail`` (the
        default) it is dropped and counted in :attr:`torn_tail_dropped`;
        otherwise it raises.  A bad line anywhere *before* the tail cannot
        be a torn write and always raises :class:`LogCorruptionError`
        naming the exact line.
        """
        log = DecisionLog()
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()  # trailing newline of a clean final append
        for index, line in enumerate(lines):
            try:
                entry = LogEntry.from_json(_unframe(line))
            except ValueError as exc:
                if index == len(lines) - 1 and truncate_torn_tail:
                    log.torn_tail_dropped += 1
                    return log
                raise LogCorruptionError(path, index + 1, str(exc)) from exc
            log.framed_lines_loaded += 1
            log.append(entry)
        return log
