"""Protocol invariant: every replica applies commits in the exact total
order the certifier decided — observed from the wire, under load."""

import pytest

from repro.metrics import MetricsCollector
from repro.middleware.messages import CommitApplied, RefreshWriteset

from ..conftest import make_cluster


@pytest.mark.parametrize(
    "level",
    ["sc-coarse", "sc-fine",
     "session", "eager"],
)
def test_commit_applied_streams_are_gapless_and_ordered(level):
    cluster = make_cluster(level=level, num_replicas=3, rows=100)
    applied: dict[str, list[int]] = {}
    refresh_versions: dict[str, list[int]] = {}

    def tap(sender, recipient, message):
        if isinstance(message, CommitApplied):
            applied.setdefault(message.replica, []).append(message.commit_version)
        elif isinstance(message, RefreshWriteset):
            refresh_versions.setdefault(recipient, []).append(message.commit_version)

    cluster.network.add_tap(tap)
    cluster.add_clients(10, MetricsCollector())
    cluster.run(1_200.0)

    assert applied, "no commits observed"
    for replica, versions in applied.items():
        # Strictly the sequence 1, 2, 3, ... with no gaps or reordering —
        # the certifier's total order, applied verbatim at every replica.
        assert versions == list(range(1, len(versions) + 1)), (
            f"{replica} applied out of order"
        )

    # Refresh streams to each replica are themselves duplicate-free and
    # strictly increasing (the certifier forwards in decision order).
    for recipient, versions in refresh_versions.items():
        assert versions == sorted(set(versions)), f"{recipient} refresh stream"


def test_every_version_refreshed_to_exactly_n_minus_one_replicas():
    cluster = make_cluster(level="sc-coarse", num_replicas=4, rows=100)
    recipients_per_version: dict[int, set[str]] = {}

    def tap(sender, recipient, message):
        if isinstance(message, RefreshWriteset):
            recipients_per_version.setdefault(message.commit_version, set()).add(recipient)

    cluster.network.add_tap(tap)
    cluster.add_clients(8, MetricsCollector())
    cluster.run(800.0)

    assert recipients_per_version
    for version, recipients in recipients_per_version.items():
        assert len(recipients) == 3  # all replicas except the origin
