"""Nemesis soak: seeded chaos (crashes, partitions, certifier kill) under
load, then the full safety audit (:func:`repro.faults.audit.audit`: no stale
read, no lost or doubled acknowledged commit, every replica converged,
digest-identical and live).

These seeds found two real bugs during development: a replica that missed
the one-shot promotion notice kept sending gap repairs to the dead
certifier forever, and a recovery replay racing an in-flight certification
could double-apply a version and kill the applier process.
"""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector, Nemesis
from repro.faults.audit import audit
from repro.middleware.overload import OverloadSettings
from repro.sim.rng import RngRegistry
from repro.workloads import MicroBenchmark


def chaos_run(seed, duration_ms=2_000.0, num_replicas=3, kill_certifier=True,
              overload_bursts=False, **config_overrides):
    config = ClusterConfig.self_healing(
        num_replicas=num_replicas, seed=seed, level="sc-fine", **config_overrides
    )
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )
    cluster.add_clients(6, retry_aborts=True)
    nemesis = Nemesis(
        cluster,
        RngRegistry(seed).stream("nemesis"),
        duration_ms=duration_ms,
        injector=FaultInjector(cluster),
        kill_certifier=kill_certifier,
        overload_bursts=overload_bursts,
    )
    cluster.run(duration_ms + 700.0)
    cluster.quiesce(max_wait_ms=60_000.0)
    return cluster, nemesis


@pytest.mark.parametrize("seed", [3, 11])
def test_nemesis_soak_preserves_invariants(seed):
    cluster, nemesis = chaos_run(seed)
    assert nemesis.finished
    report = audit(cluster)
    assert report.ok, report.failures
    # The chaos window must have been eventful and the system must have
    # made progress through it.
    assert len(nemesis.actions) >= 5
    assert report.committed > 100


def test_nemesis_green_with_index():
    """The certification index survives the full fault gauntlet:
    crash/recover churn, certifier kill and promotion (the successor
    rebuilds it from its log), with every audit invariant intact."""
    cluster, nemesis = chaos_run(31)
    assert nemesis.finished
    report = audit(cluster)
    assert report.ok, report.failures
    assert report.committed > 100
    assert len(cluster.certifier._index) > 0


def test_nemesis_certifier_kill_forces_promotion():
    cluster, nemesis = chaos_run(19)
    assert nemesis.certifier_killed
    assert cluster.standby.promoted
    assert cluster.certifier.name == "certifier-2"
    assert cluster.certifier.epoch == 2
    report = audit(cluster)
    assert report.ok, report.failures


def test_nemesis_schedule_is_deterministic():
    def schedule(seed):
        _, nemesis = chaos_run(seed, duration_ms=900.0, kill_certifier=False)
        return nemesis.actions

    assert schedule(5) == schedule(5)
    assert schedule(5) != schedule(6)


def test_nemesis_overload_bursts_stay_green_while_shedding():
    """The overload fault composes with admission control: bursts bypass the
    balancer and hammer replicas directly while the tiny MPL cap sheds real
    client load — and every safety-audit invariant still holds."""
    cluster, nemesis = chaos_run(
        37, kill_certifier=False, overload_bursts=True,
        overload=OverloadSettings(mpl_cap=1, queue_depth=1),
    )
    assert nemesis.finished
    overloads = [d for _, action, d in nemesis.actions if action == "overload"]
    assert overloads, f"no overload fault fired: {nemesis.actions}"
    # The cap really bit: client requests were fast-rejected while the
    # bursts ran, yet the acknowledged history stays strongly consistent,
    # no acknowledged commit is lost or doubled, and the replicas converge.
    assert cluster.metrics.get("balancer.shed") > 0
    report = audit(cluster)
    assert report.ok, report.failures
    assert report.committed > 50


def test_nemesis_overload_off_by_default():
    """Existing seeded schedules replay unchanged: without the opt-in flag
    the nemesis never picks the overload fault."""
    _, nemesis = chaos_run(3, duration_ms=900.0, kill_certifier=False)
    assert all(action != "overload" for _, action, _ in nemesis.actions)


def test_nemesis_never_crashes_a_majority():
    cluster, nemesis = chaos_run(23, duration_ms=1_500.0, kill_certifier=False)
    total = len(cluster.replica_names)
    crashed = 0
    worst = 0
    for _, action, _ in nemesis.actions:
        if action == "crash":
            crashed += 1
        elif action == "recover":
            crashed -= 1
        worst = max(worst, crashed)
    assert 2 * (total - worst) > total
    report = audit(cluster)
    assert report.ok, report.failures
