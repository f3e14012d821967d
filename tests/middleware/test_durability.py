"""Tests for the certifier's durable decision log."""

import pytest

from repro.middleware import DecisionLog, LogEntry
from repro.storage import Column, Database, OpKind, TableSchema, WriteOp, WriteSet


def entry(version, key=1, value=10, origin="replica-0"):
    ws = WriteSet([WriteOp("t", key, OpKind.INSERT, {"id": key, "v": value})])
    return LogEntry(version, txn_id=version * 100, origin=origin, writeset=ws)


class TestDecisionLog:
    def test_empty_log(self):
        log = DecisionLog()
        assert len(log) == 0
        assert log.last_version == 0
        assert log.entries_after(0) == []

    def test_append_contiguous(self):
        log = DecisionLog()
        log.append(entry(1))
        log.append(entry(2))
        assert log.last_version == 2
        assert len(log) == 2

    def test_gap_rejected(self):
        log = DecisionLog()
        log.append(entry(1))
        with pytest.raises(ValueError):
            log.append(entry(3))

    def test_duplicate_rejected(self):
        log = DecisionLog()
        log.append(entry(1))
        with pytest.raises(ValueError):
            log.append(entry(1))

    def test_entries_after(self):
        log = DecisionLog()
        for version in range(1, 6):
            log.append(entry(version))
        assert [e.commit_version for e in log.entries_after(3)] == [4, 5]
        assert log.entries_after(5) == []

    def test_entry_lookup(self):
        log = DecisionLog()
        log.append(entry(1))
        assert log.entry(1).commit_version == 1
        with pytest.raises(KeyError):
            log.entry(2)
        with pytest.raises(KeyError):
            log.entry(0)

    def test_writesets_between(self):
        log = DecisionLog()
        for version in range(1, 6):
            log.append(entry(version, key=version))
        window = list(log.writesets_between(2, 4))
        assert len(window) == 2
        assert window[0].keys_for("t") == frozenset({3})

    def test_writesets_between_clamps_bounds(self):
        log = DecisionLog()
        log.append(entry(1))
        assert len(list(log.writesets_between(-5, 100))) == 1

    def test_replay_into_database(self):
        log = DecisionLog()
        for version in range(1, 4):
            log.append(entry(version, key=version))
        db = Database()
        db.create_table(TableSchema("t", [Column("id", int), Column("v", int)], "id"))
        applied = log.replay_into(db)
        assert applied == 3
        assert db.version == 3
        assert db.table("t").read(2, 3)["v"] == 10

    def test_replay_skips_already_applied(self):
        log = DecisionLog()
        for version in range(1, 4):
            log.append(entry(version, key=version))
        db = Database()
        db.create_table(TableSchema("t", [Column("id", int), Column("v", int)], "id"))
        db.apply_writeset(log.entry(1).writeset, 1)
        assert log.replay_into(db) == 2


class TestFileSink:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "decisions.log")
        log = DecisionLog(path)
        log.append(entry(1, key=7, value=42))
        deleted = WriteSet([WriteOp("t", 7, OpKind.DELETE)])
        log.append(LogEntry(2, txn_id=9, origin="replica-1", writeset=deleted))
        log.close()

        loaded = DecisionLog.load(path)
        assert loaded.last_version == 2
        first = loaded.entry(1)
        assert first.origin == "replica-0"
        assert first.writeset.op_for("t", 7).values == {"id": 7, "v": 42}
        second = loaded.entry(2)
        assert second.writeset.op_for("t", 7).kind is OpKind.DELETE

    def test_json_round_trip_preserves_kinds(self):
        original = entry(1)
        parsed = LogEntry.from_json(original.to_json())
        assert parsed.commit_version == original.commit_version
        assert parsed.txn_id == original.txn_id
        ops_a = list(original.writeset)
        ops_b = list(parsed.writeset)
        assert [(o.table, o.key, o.kind) for o in ops_a] == [
            (o.table, o.key, o.kind) for o in ops_b
        ]

    def test_file_sink_round_trips_request_ids(self, tmp_path):
        path = str(tmp_path / "decisions.log")
        log = DecisionLog(path)
        ws = WriteSet([WriteOp("t", 1, OpKind.INSERT, {"id": 1, "v": 10})])
        log.append(LogEntry(1, txn_id=100, origin="replica-0", writeset=ws,
                            request_id=7))
        log.append(entry(2))  # request_id left at its default of 0
        log.close()
        loaded = DecisionLog.load(path)
        assert loaded.entry(1).request_id == 7
        assert loaded.entry(2).request_id == 0

    def test_load_accepts_legacy_lines_without_request_id(self, tmp_path):
        """Sinks written before ``request_id`` existed have no "req" key;
        loading them must yield entries with ``request_id=0``, not crash."""
        import json

        path = tmp_path / "decisions.log"
        log = DecisionLog(str(path))
        log.append(entry(1, key=7, value=42))
        log.append(entry(2, key=8, value=43))
        log.close()
        from repro.middleware.durability import _frame

        stripped = []
        for line in path.read_text(encoding="utf-8").splitlines():
            # A payload from before the "req" key, under a valid frame.
            data = json.loads(line.rsplit("\t", 1)[0])
            del data["req"]
            stripped.append(_frame(json.dumps(data)))
        legacy = tmp_path / "legacy.log"
        legacy.write_text("\n".join(stripped) + "\n", encoding="utf-8")

        loaded = DecisionLog.load(str(legacy))
        assert loaded.last_version == 2
        assert [loaded.entry(v).request_id for v in (1, 2)] == [0, 0]
        assert loaded.entry(1).writeset.op_for("t", 7).values == {"id": 7, "v": 42}


class TestCRCFraming:
    """Per-line CRC32 frames let recovery tell a torn final write (drop the
    tail, the decision never became durable) from corruption in the body of
    the log (fatal — the durable record itself is damaged)."""

    def write_log(self, tmp_path, versions=5):
        path = str(tmp_path / "decisions.log")
        log = DecisionLog(path)
        for version in range(1, versions + 1):
            log.append(entry(version, key=version, value=version * 10))
        log.close()
        return path

    def test_clean_load_verifies_every_line(self, tmp_path):
        path = self.write_log(tmp_path)
        loaded = DecisionLog.load(path)
        assert loaded.last_version == 5
        assert loaded.torn_tail_dropped == 0

    def test_every_sink_line_is_framed(self, tmp_path):
        path = self.write_log(tmp_path)
        with open(path, encoding="utf-8") as f:
            for line in f:
                payload, sep, crc = line.rstrip("\n").rpartition("\t")
                assert sep == "\t"
                assert len(crc) == 8
                import zlib
                assert int(crc, 16) == zlib.crc32(payload.encode("utf-8"))

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        """A crash mid-append leaves a partial final line with no trailing
        newline; load drops it and reports one version less."""
        path = self.write_log(tmp_path)
        raw = open(path, encoding="utf-8").read()
        last_start = raw.rfind("\n", 0, len(raw) - 1) + 1
        open(path, "w", encoding="utf-8").write(raw[: last_start + 25])
        loaded = DecisionLog.load(path)
        assert loaded.last_version == 4
        assert loaded.torn_tail_dropped == 1

    def test_torn_tail_raises_when_truncation_disallowed(self, tmp_path):
        from repro.middleware import LogCorruptionError

        path = self.write_log(tmp_path)
        raw = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(raw[:-7])
        with pytest.raises(LogCorruptionError) as exc:
            DecisionLog.load(path, truncate_torn_tail=False)
        assert exc.value.line_number == 5

    def test_middle_corruption_raises_with_exact_line(self, tmp_path):
        """A flipped byte anywhere before the tail cannot be a torn write:
        load must refuse rather than silently skip a committed decision."""
        from repro.middleware import LogCorruptionError

        path = self.write_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace('"v": 2', '"v": 7', 1)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(LogCorruptionError) as exc:
            DecisionLog.load(path)
        assert exc.value.line_number == 2
        assert "CRC32 mismatch" in exc.value.why

    def test_truncated_middle_line_raises(self, tmp_path):
        from repro.middleware import LogCorruptionError

        path = self.write_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(LogCorruptionError) as exc:
            DecisionLog.load(path)
        assert exc.value.line_number == 3

    def test_append_torn_between_payload_and_frame_is_a_torn_tail(self, tmp_path):
        """The writer crashed after the payload and before the tab + CRC:
        the line parses, but the decision never became durable."""
        path = self.write_log(tmp_path)
        raw = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(raw[: raw.rindex("\t")])
        loaded = DecisionLog.load(path)
        assert loaded.last_version == 4
        assert loaded.torn_tail_dropped == 1
        assert loaded.framed_lines_loaded == 4

    def test_unframed_body_line_is_corruption(self, tmp_path):
        """A body line that lost its frame is unverifiable: here the row
        image it carries was rewritten too, and it still parses."""
        from repro.middleware import LogCorruptionError

        path = self.write_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        payload = lines[2].rsplit("\t", 1)[0]
        assert '"v": 30' in payload
        lines[2] = payload.replace('"v": 30', '"v": 99', 1)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(LogCorruptionError) as exc:
            DecisionLog.load(path)
        assert exc.value.line_number == 3
        assert "missing CRC32 frame" in exc.value.why

    def test_replay_after_torn_tail_matches_surviving_prefix(self, tmp_path):
        path = self.write_log(tmp_path)
        raw = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(raw[:-7])
        loaded = DecisionLog.load(path)
        target = Database()
        target.create_table(
            TableSchema("t", [Column("id", int), Column("v", int)], "id")
        )
        assert loaded.replay_into(target) == loaded.last_version == 4
        assert target.table("t").read(4, target.version) == {"id": 4, "v": 40}
        assert target.table("t").read(5, target.version) is None


class TestLoadCounters:
    """``load`` counts what it accepted (verified lines, torn tails dropped)
    so recovery can report how trustworthy the rebuilt log is, and the
    certifier aggregates the counters into ``stats()["durability"]``."""

    def write_log(self, tmp_path, versions=5, name="decisions.log"):
        path = str(tmp_path / name)
        log = DecisionLog(path)
        for version in range(1, versions + 1):
            log.append(entry(version, key=version, value=version * 10))
        log.close()
        return path

    def test_clean_framed_load_counts(self, tmp_path):
        loaded = DecisionLog.load(self.write_log(tmp_path))
        assert loaded.framed_lines_loaded == 5
        assert loaded.torn_tail_dropped == 0

    def test_all_legacy_load_counts(self, tmp_path):
        """A sink of bare JSON lines (no CRC frames) is refused at its first
        line: nothing in it can be verified, so nothing is counted."""
        from repro.middleware import LogCorruptionError

        path = self.write_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        legacy = [line.rsplit("\t", 1)[0] for line in lines]
        open(path, "w", encoding="utf-8").write("\n".join(legacy) + "\n")
        with pytest.raises(LogCorruptionError) as exc:
            DecisionLog.load(path)
        assert exc.value.line_number == 1

    def test_mixed_sink_with_torn_tail_splits_counts(self, tmp_path):
        """Framed lines followed by a final write torn mid-payload: the
        dropped line must not be counted as loaded."""
        path = self.write_log(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[4] = lines[4][:25]  # torn mid-append, no trailing newline
        open(path, "w", encoding="utf-8").write("\n".join(lines))
        loaded = DecisionLog.load(path)
        assert loaded.last_version == 4
        assert loaded.framed_lines_loaded == 4
        assert loaded.torn_tail_dropped == 1

    def test_in_memory_log_reports_zero_counts(self):
        log = DecisionLog()
        log.append(entry(1))
        assert log.framed_lines_loaded == 0
        assert log.torn_tail_dropped == 0

    def _certifier(self, log=None):
        from repro.middleware import Certifier, CertifierPerformance
        from repro.sim import Environment, LatencyModel, Network, RngRegistry

        from .conftest import low_variance_params

        env = Environment()
        network = Network(
            env, RngRegistry(7).stream("net"), LatencyModel(base=0.05, jitter=0.0)
        )
        network.register("replica-0")
        return Certifier(
            env=env,
            network=network,
            perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
            replica_names=["replica-0"],
            level="sc-coarse",
            log=log,
        )

    def test_certifier_stats_surface_the_counters(self, tmp_path):
        path = self.write_log(tmp_path)
        raw = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(raw[:-7])  # tear the tail
        certifier = self._certifier(log=DecisionLog.load(path))
        durability = certifier.stats()["durability"]
        assert durability == {
            "torn_tail_dropped": 1,
            "framed_lines_loaded": 4,
        }
