"""Delivering to a handler is the same simulation as polling for it.

Every middleware endpoint is a *handler* endpoint: the network calls the
component's ``_handle`` when a message arrives instead of waking a process
that sits in ``yield mailbox.receive()``.  The order rule in
``Mailbox.deliver`` (handle in place only when nothing else is due at this
instant, otherwise queue one wake-up behind what is) claims that this is the
polled schedule, message for message.

The reference kept here is the poller the components used to be: each
handler endpoint of one cluster is turned back into a pull endpoint drained
by a dispatch loop.  A cluster driven that way and an untouched one must
produce the identical run — history, per-replica digests, collector summary,
message counts — under continuous jitter (every delivery handled in place),
with ``jitter=0`` (same-instant fan-out), with zero latency (everything is
same-instant) and in lockstep (``jitter=0`` and constant service times, so
timers and deliveries tie all the time — the one scenario here in which
handling every message in place, order rule dropped, was measured to change
the history), at one and at four certifier shards, with the certifier killed
and a standby promoted mid-run.  Only the kernel's own event count may
differ, and must be lower.
"""

import dataclasses

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.metrics import MetricsCollector
from repro.middleware.perfmodel import PerformanceParams
from repro.sim import LatencyModel, Store
from repro.workloads import MicroBenchmark
from repro.workloads.clients import OpenLoopLoad

#: name -> (latency model, performance params; None = the workload's own)
SCENARIOS = {
    "default-jitter": (LatencyModel(), None),
    "no-jitter": (LatencyModel(base=0.1, jitter=0.0), None),
    "zero-latency": (LatencyModel(base=0.0, jitter=0.0), None),
    "lockstep": (
        LatencyModel(base=0.1, jitter=0.0),
        PerformanceParams(cv=0.0, replica_speed_spread=0.0),
    ),
}


def poll(env, mailbox):
    """Reference consumer: drain ``mailbox`` from a dispatch-loop process."""
    handle = mailbox._handler
    mailbox._handler = None
    mailbox._store = Store(env)

    def poller():
        while True:
            work = handle((yield mailbox.receive()))
            if work is not None:
                yield from work

    env.process(poller(), name=f"{mailbox.name}-poller")


def run(scenario, partitions, polled):
    latency, params = SCENARIOS[scenario]
    config = ClusterConfig.elastic(
        num_replicas=3,
        seed=23,
        params=params,
        latency=latency,
        num_partitions=partitions,
        scrub_interval_ms=120.0,
        scrub_deep=True,
        scrub_auto_repair=True,
    )
    workload = MicroBenchmark(update_types=6, rows_per_table=60)
    cluster = ReplicatedDatabase(workload, config)
    env, network = cluster.env, cluster.network
    collector = MetricsCollector(measure_start=0.0)
    open_loop = OpenLoopLoad(
        env, network, workload, MetricsCollector(measure_start=0.0),
        rate_tps=150.0, rngs=cluster.rngs,
    )
    endpoints = [m for m in network._mailboxes.values() if m._handler is not None]
    # LB, three proxies, certifier, standby, bootstrap, scrubber, open loop
    assert len(endpoints) == 9
    if polled:
        for mailbox in endpoints:
            poll(env, mailbox)
        make_certifier = cluster.standby.make_certifier

        def make_polled_certifier(*args, **state):
            successor = make_certifier(*args, **state)
            poll(env, successor.mailbox)
            return successor

        cluster.standby.make_certifier = make_polled_certifier
    cluster.add_clients(5, collector)
    cluster.run(400.0)
    FaultInjector(cluster).kill_certifier()
    cluster.run(700.0)
    cluster.add_replica_online()
    cluster.run(1_200.0)
    return cluster, collector, open_loop


def observable(cluster, collector, open_loop):
    """Everything the run did, with request ids made relative (the id
    counter is process-global)."""
    records = cluster.history.records
    base = min(r.request_id for r in records)
    return {
        "history": [
            dataclasses.replace(r, request_id=r.request_id - base) for r in records
        ],
        "digests": {
            name: proxy.engine.database.recompute_digests()
            for name, proxy in cluster.replicas.items()
        },
        "versions": cluster.replica_versions(),
        "summary": collector.summary(duration_ms=1_200.0),
        "open_loop": (open_loop.offered, open_loop.completed, open_loop.committed),
        "certifier": (cluster.certifier.name, cluster.certifier.commit_version,
                      cluster.certifier.certified_count, cluster.certifier.abort_count),
        "sent": cluster.network.sent_count,
        "dropped": dict(cluster.network.dropped_by_reason),
        "scrub_rounds": cluster.scrubber.scrub_rounds,
        "bootstraps": cluster.bootstrap.stats(),
    }


@pytest.mark.parametrize("partitions", [1, 4])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_handlers_reproduce_the_polled_run(scenario, partitions):
    delivered = run(scenario, partitions, polled=False)
    polled = run(scenario, partitions, polled=True)
    assert observable(*delivered) == observable(*polled)
    # the scenario really exercised what it claims to
    cluster = delivered[0]
    assert cluster.standby.promoted and cluster.certifier.name == "certifier-2"
    assert cluster.certifier.commit_version > 100
    assert cluster.bootstrap.bootstraps_completed == 1
    assert cluster.scrubber.scrub_rounds >= 5
    assert delivered[2].committed > 50
    # and the wake-up hop is gone: fewer kernel events for the same run
    assert cluster.env.events_processed < polled[0].env.events_processed
