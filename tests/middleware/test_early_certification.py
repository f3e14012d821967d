"""Differential test of statement-side early certification.

The proxy probes only the row a statement just buffered.  The reference
kept here is the check it replaced, which rescanned the whole partial
writeset on every write statement; the two must agree — decision *and*
abort-reason string — at every statement of every body, whatever is pending
or already committed.
"""

from hypothesis import given, settings, strategies as st

from repro.middleware import RefreshWriteset
from repro.middleware.context import TxnContext
from repro.sim import Environment
from repro.storage import OpKind, StorageError, TransactionAborted, WriteOp, WriteSet

from .conftest import Harness

KEYS = st.integers(min_value=1, max_value=8)


def whole_writeset_conflict(proxy, txn):
    """Reference: the whole partial writeset against every pending refresh
    (arrival order), then against every committed head (buffering order)."""
    doomed = proxy._doomed.get(txn.txn_id)
    if doomed is not None:
        return doomed
    partial = txn.partial_writeset()
    for version, refresh in proxy._pending_refresh.items():
        if refresh.conflicts_with(partial):
            return f"early certification: conflict with pending refresh v{version}"
    for op in partial:
        committed_at = proxy.engine.database.latest_write_version(op.table, op.key)
        if committed_at > txn.snapshot_version:
            return (
                f"early certification: {op.table}:{op.key} overwritten "
                f"at v{committed_at} (snapshot v{txn.snapshot_version})"
            )
    return None


def image(key, v):
    return {"id": key, "v": v}


def updates(keys, v):
    return WriteSet([WriteOp("t", key, OpKind.UPDATE, image(key, v)) for key in keys])


@settings(max_examples=400, deadline=None)
@given(
    loaded=st.sets(KEYS),
    committed=st.lists(st.sets(KEYS, min_size=1, max_size=3), max_size=3),
    snapshot_lag=st.integers(min_value=0, max_value=3),
    pending=st.lists(st.sets(KEYS, min_size=1, max_size=2), max_size=4),
    arrival=st.randoms(use_true_random=False),
    body=st.lists(
        st.tuples(st.sampled_from(["insert", "update", "delete"]), KEYS),
        min_size=1, max_size=12,
    ),
)
def test_incremental_check_equals_whole_writeset_reference(
    loaded, committed, snapshot_lag, pending, arrival, body
):
    env = Environment()
    harness = Harness(env)
    proxy = harness.proxy(0)
    for key in loaded:
        proxy.engine.database.load_row("t", image(key, 0))
    # Committed heads: versions 1..m are applied, the transaction reads from
    # a snapshot up to ``snapshot_lag`` versions behind them.
    for version, keys in enumerate(committed, start=1):
        proxy.engine.apply_refresh(updates(keys, version), version)
    applied = len(committed)
    # Pending refreshes sit above a gap (version applied+1 never arrives),
    # so the applier holds them; they arrive in an order of their own.
    versions = list(range(applied + 2, applied + 2 + len(pending)))
    arrivals = list(zip(versions, pending))
    arrival.shuffle(arrivals)
    for version, keys in arrivals:
        harness.network.send(
            "certifier", "replica-0",
            RefreshWriteset(version, updates(keys, version), "replica-1", version),
        )
    env.run()
    assert list(proxy._pending_refresh) == [version for version, _ in arrivals]

    txn = proxy.engine.begin(snapshot_version=max(0, applied - snapshot_lag))
    ctx = TxnContext(proxy, txn)
    for n, (kind, key) in enumerate(body):
        try:
            if kind == "insert":
                ctx.insert("t", image(key, 100 + n))
            elif kind == "update":
                ctx.update("t", key, {"v": 100 + n})
            else:
                ctx.delete("t", key)
            decision = None
        except TransactionAborted as abort:
            decision = abort.reason
        except StorageError:
            continue  # rejected before buffering (duplicate / unknown row)
        assert decision == whole_writeset_conflict(proxy, txn), (kind, key)
        if decision is not None:
            break  # the transaction is aborted; no statement runs after it
