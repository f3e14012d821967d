"""Tests for the synchronous session facade."""

import pytest

from repro.storage import TransactionAborted

from ..conftest import make_cluster


class TestSyncSession:
    def test_execute_advances_virtual_time(self):
        cluster = make_cluster()
        session = cluster.open_session("s")
        before = cluster.env.now
        session.execute("micro-read-20", {"key": 1})
        assert cluster.env.now > before

    def test_execute_raises_on_abort(self):
        cluster = make_cluster()
        session = cluster.open_session("s")
        with pytest.raises(TransactionAborted):
            session.execute("micro-update-0", {"key": 10_000_000})

    def test_last_response_retained(self):
        cluster = make_cluster()
        session = cluster.open_session("s")
        response = session.execute("micro-read-20", {"key": 1})
        assert session.last_response is response

    def test_result_shortcut(self):
        cluster = make_cluster()
        session = cluster.open_session("s")
        row = session.result("micro-read-20", {"key": 2})
        assert row["id"] == 2

    def test_two_sessions_are_distinct_for_session_consistency(self):
        cluster = make_cluster(level="session")
        alice = cluster.open_session("alice")
        bob = cluster.open_session("bob")
        alice.execute("micro-update-0", {"key": 1})
        # Bob's session map is independent; his read commits fine.
        response = bob.execute("micro-read-20", {"key": 1})
        assert response.committed

    def test_session_sees_its_own_update_under_session_level(self):
        cluster = make_cluster(level="session")
        session = cluster.open_session("alice")
        update = session.execute("micro-update-0", {"key": 4})
        read = session.execute("micro-read-20", {"key": 4})
        assert read.snapshot_version >= update.commit_version

    def test_default_params_empty(self):
        cluster = make_cluster()
        session = cluster.open_session("s")
        with pytest.raises(TransactionAborted):
            # read_required on a missing 'key' param -> KeyError inside body
            # is not a storage error; use a template that tolerates it.
            session.execute("micro-update-0")

    def test_responses_are_for_own_requests(self):
        cluster = make_cluster()
        a = cluster.open_session("a")
        b = cluster.open_session("b")
        ra = a.execute("micro-read-20", {"key": 1})
        rb = b.execute("micro-read-21", {"key": 2})
        assert ra.result["id"] == 1
        assert rb.result["id"] == 2
