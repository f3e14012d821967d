"""Every import of and call into ``repro`` lives in this file.

The rest of the ledger (runner, span recorder, catalog, compare) never
touches the program under test, so a PR that renames internals edits this
file only — or nothing: a registry name or attribute that is gone yields an
*absent* metric plus a printed note, never a crash.

``run_once`` performs one repetition of one workload inside the current
(fresh) interpreter process and returns plain JSON-able data.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import spans
from catalog import SELF_TIME_LAYERS
from hostspeed import HostSpeed
from spans import Recorder

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    # The benchmark measures the repository's program; without it (a
    # directory holding only the benchmark files) there is nothing to run.
    raise SystemExit(f"ledger: program source not found at {_SRC}")
sys.path.insert(0, str(_SRC))

from repro.bench import experiments  # noqa: E402
from repro.core.cluster import ClusterConfig, ReplicatedDatabase  # noqa: E402
from repro.faults import FaultInjector, Nemesis  # noqa: E402
from repro.histories.checkers import strong_consistency_violations  # noqa: E402
from repro.metrics.collector import MetricsCollector  # noqa: E402
from repro.metrics.registry import latest_registry  # noqa: E402
from repro.metrics.tracing import TRACER  # noqa: E402
from repro.middleware.certindex import CertificationIndex  # noqa: E402
from repro.sim.kernel import Environment  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.resources import Resource  # noqa: E402
from repro.sim.rng import RngRegistry  # noqa: E402
from repro.storage import sql as repro_sql  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.digest import DigestTracker  # noqa: E402
from repro.storage.engine import StorageEngine  # noqa: E402
from repro.storage.schema import Column, TableSchema  # noqa: E402
from repro.storage.writeset import OpKind, WriteOp, WriteSet  # noqa: E402
from repro.workloads.microbench import MicroBenchmark  # noqa: E402
from repro.workloads.tpcc import TPCCBenchmark  # noqa: E402
from repro.workloads.tpcw import TPCWBenchmark  # noqa: E402

__all__ = ["WORKLOADS", "Spec", "run_once", "run_probes"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """One named workload.  ``why`` is repeated in BENCHMARK.json/README."""

    name: str
    why: str
    #: virtual ms discarded before the measure window / length of the window
    warmup_ms: float
    measure_ms: float
    #: cluster builds timed per process (cheap builds are repeated so
    #: ``setup_s`` is a median, the last build is the one that runs)
    builds: int
    #: repetitions in a full ledger run
    repetitions: int
    clients: int
    #: (seed, scale) -> (workload, ClusterConfig)
    make: Callable


def _tpcw(mix: str):
    return TPCWBenchmark(mix=mix, num_items=300, num_customers=200, num_authors=100)


def _make_tpcw_shopping(seed, scale):
    return _tpcw("shopping"), ClusterConfig(num_replicas=8, level="sc-fine", seed=seed)


def _make_micro(update_types):
    def make(seed, scale):
        rows = max(100, int(10_000 * scale))
        return (
            MicroBenchmark(update_types=update_types, rows_per_table=rows),
            ClusterConfig(num_replicas=8, level="sc-coarse", seed=seed),
        )
    return make


def _make_tpcc_eager(seed, scale):
    workload = TPCCBenchmark(
        num_warehouses=2, districts_per_warehouse=8,
        customers_per_district=20, num_items=100,
    )
    return workload, ClusterConfig(num_replicas=4, level="eager", seed=seed)


def _make_chaos_soak(seed, scale):
    config = ClusterConfig.self_healing(
        num_replicas=3, level="sc-fine", seed=seed, num_partitions=4,
        partition_table_groups=(("t0",), ("t1",), ("t2",), ("t3",)),
        scrub_interval_ms=200.0, scrub_deep=True, scrub_auto_repair=True,
    )
    return MicroBenchmark(update_types=20, rows_per_table=100), config


def _make_fig5_cell(seed, scale):
    """The sweep's headline cell (SC-FINE, 8 replicas, ordering mix): built
    only to time set-up; the sweep itself builds its own 16 clusters."""
    return _tpcw("ordering"), ClusterConfig(num_replicas=8, level="sc-fine", seed=seed)


#: pieces the timed region of a single-cluster workload is run in, one
#: calibration loop between each (about 75 ms of simulation per piece;
#: fewer under --smoke, whose windows are a tenth)
TIMED_SLICES = 60

#: chaos-soak: the nemesis injects faults for this share of the window, the
#: rest is the fault-free tail in which a healthy cluster must commit again
CHAOS_FAULT_SHARE = 0.8
#: chaos-soak: the fault schedule is part of the workload, not of the seed.
#: ``--seed`` drives clients, performance model and network; the nemesis
#: always draws from this stream, because some schedules (streams 2 and 6)
#: hit a known liveness bug and stall the cluster — see README.md
CHAOS_SCHEDULE_SEED = 1
FIG5_MIX = "ordering"
FIG5_HEADLINE = ("SC-FINE", 8)

WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            "tpcw-shopping",
            "paper headline point (Fig. 5b/6): read-mostly multi-statement "
            "transactions, storage.engine reads, workload generators and many "
            "pending think-time timers in sim.kernel; commit path does little",
            warmup_ms=3_000.0, measure_ms=30_000.0, builds=3, repetitions=5,
            clients=64, make=_make_tpcw_shopping,
        ),
        Spec(
            "micro-readonly",
            "bypasses the whole commit path (0 certifications, 0 refresh "
            "applies): sim.resources, sim.kernel, loadbalancer and clients "
            "dominate; large populate makes setup_s as big as the run",
            warmup_ms=1_000.0, measure_ms=10_000.0, builds=1, repetitions=5,
            clients=8, make=_make_micro(0),
        ),
        Spec(
            "micro-update",
            "every transaction certifies and is applied on all 8 replicas: "
            "proxy refresh apply, storage.database.apply_writeset, sim.network "
            "and the certifier carry the load that micro-readonly skips",
            warmup_ms=1_000.0, measure_ms=8_000.0, builds=1, repetitions=5,
            clients=8, make=_make_micro(40),
        ),
        Spec(
            "tpcc-eager",
            "the paper's foil under real contention: EAGER all-replica acks, "
            "about 46% certification aborts on the hot district row, client "
            "retries, multi-row writesets, inserts/deletes/index lookups",
            warmup_ms=2_000.0, measure_ms=80_000.0, builds=3, repetitions=5,
            clients=20, make=_make_tpcc_eager,
        ),
        Spec(
            "chaos-soak",
            "only workload running heartbeat, standby promotion, the 4-shard "
            "certifier, scrubber, digests and recovery, with seeded faults; "
            "N=4 counterpart of micro-update and where unavailability shows",
            warmup_ms=0.0, measure_ms=12_500.0, builds=3, repetitions=5,
            clients=6, make=_make_chaos_soak,
        ),
        Spec(
            "fig5-sweep",
            "what a user waits for (repro fig5): 16 independent cluster "
            "builds+runs through the public figure entry point; only workload "
            "where process fan-out or cheaper construction can show",
            warmup_ms=3_000.0, measure_ms=12_000.0, builds=3, repetitions=3,
            clients=40, make=_make_fig5_cell,
        ),
    )
}


# ---------------------------------------------------------------------------
# Absent-not-crash access to the program's counters
# ---------------------------------------------------------------------------

class _Notes(list):
    """Printed notes about metrics that could not be read."""

    def missing(self, what: str, error: Exception) -> None:
        note = f"{what}: absent ({type(error).__name__}: {error})"
        if note not in self:
            self.append(note)


def _attempt(notes: _Notes, what: str, read: Callable):
    """``read()``, or None plus a note when the program no longer has it."""
    try:
        return read()
    except (AttributeError, KeyError, IndexError) as error:
        notes.missing(what, error)
        return None


def _ratio(numerator, denominator):
    """None-propagating division; a zero base also gives None (absent)."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _sum(*values):
    return None if None in values else sum(values)


class _Registry:
    """Flat view of ``cluster.metrics`` with absent-name notes."""

    def __init__(self, registry, notes: _Notes):
        self._notes = notes
        self._flat = _attempt(notes, "cluster.metrics", registry.collect) or {}

    def get(self, name: str):
        if name not in self._flat:
            self._notes.missing(f"registry {name}", KeyError(name))
            return None
        return self._flat[name]

    def total(self, prefix: str, suffix: str):
        """Sum of ``prefix.<anything>.suffix`` (per-replica counters)."""
        values = [
            value for name, value in self._flat.items()
            if name.startswith(prefix + ".") and name.endswith("." + suffix)
        ]
        if not values:
            self._notes.missing(f"registry {prefix}.*.{suffix}", KeyError(suffix))
            return None
        return sum(values)


# ---------------------------------------------------------------------------
# The traced pass: which public entry points belong to which layer
# ---------------------------------------------------------------------------

#: modules folded into another module's layer, for generators handed to
#: ``Environment.process``; any other module (``sim.network``,
#: ``middleware.proxy``, ``faults.nemesis`` ...) is a layer of its own name
LAYER_OF_MODULE = {
    "middleware.lifecycle": "middleware.proxy",
    "middleware.context": "middleware.proxy",
    "middleware.certindex": "middleware.certifier",
    "middleware.shards": "middleware.certifier",
    "middleware.durability": "middleware.certifier",
    "middleware.heartbeat": "middleware.control",
    "middleware.standby": "middleware.control",
    "middleware.scrubber": "middleware.control",
    "middleware.bootstrap": "middleware.control",
}

_ENGINE_OPS = (
    "begin", "read", "read_required", "lookup", "scan", "insert", "update",
    "delete", "commit_certified", "commit_read_only", "abort", "apply_refresh",
)


def _layer_of_generator(generator) -> str:
    code = getattr(generator, "gi_code", None)
    parts = Path(code.co_filename).with_suffix("").parts if code is not None else ()
    if "repro" in parts:
        module = ".".join(parts[len(parts) - parts[::-1].index("repro"):])
        return LAYER_OF_MODULE.get(module, module)
    return "other"


def _install_tracing(recorder: Recorder, notes: _Notes, sweep: bool) -> None:
    """Wrap the public entry points of every layer (undone by
    ``recorder.restore()``)."""
    targets = [
        (Environment, "run", "sim.kernel", {"container": True}),
        (Network, "send", "sim.network", {
            "request_id": lambda args: getattr(args[3], "request_id", None),
            # weight = heartbeat pings among the messages sent
            "weigh": lambda args: type(args[3]).__name__ == "HeartbeatPing",
        }),
        (Resource, "request", "sim.resources", {}),
        (Resource, "release", "sim.resources", {}),
        (Database, "apply_writeset", "storage.database", {
            # weight = rows installed
            "weigh": lambda args: len(args[1]),
        }),
        (Database, "digest", "storage.digest", {}),
        (Database, "digests", "storage.digest", {}),
        (Database, "recompute_digests", "storage.digest", {}),
        (DigestTracker, "apply", "storage.digest", {}),
        (CertificationIndex, "first_conflict", "middleware.certifier", {}),
        (CertificationIndex, "record", "middleware.certifier", {}),
        (MetricsCollector, "record", "metrics.collector", {}),
        (ReplicatedDatabase, "__init__", "core.cluster", {}),
        (ReplicatedDatabase, "add_clients", "core.cluster", {}),
    ]
    targets += [(StorageEngine, op, "storage.engine", {}) for op in _ENGINE_OPS]
    for workload in (MicroBenchmark, TPCWBenchmark, TPCCBenchmark):
        targets.append((workload, "next_call", "workloads.generator", {}))
        targets.append((workload, "think_time_ms", "workloads.generator", {}))
    if sweep:
        targets.append(
            (experiments, "run_experiment", "bench.experiments", {"container": True}))
    for owner, attr, layer, options in targets:
        try:
            recorder.patch(owner, attr, layer, **options)
        except AttributeError as error:
            notes.missing(f"trace target {owner.__name__}.{attr}", error)

    start_process = Environment.process

    def process(env, generator, name=""):
        layer = _layer_of_generator(generator)
        return start_process(env, recorder.timed_generator(layer, generator), name)

    recorder.replace(Environment, "process", process)


# ---------------------------------------------------------------------------
# Reading one finished run
# ---------------------------------------------------------------------------

def _peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # Linux reports KiB


def _summary_metrics(summary) -> dict:
    """The simulated-time end-to-end numbers a run summary carries."""
    attempts = summary.committed + summary.aborted
    return {
        "sim_tps": summary.tps,
        "sim_mean_response_ms": summary.mean_response_ms,
        "sim_p50_response_ms": summary.p50_response_ms,
        "sim_p99_response_ms": summary.p99_response_ms,
        "sim_sync_delay_ms": summary.mean_sync_delay_ms,
        "failed_share": _ratio(summary.aborted, attempts),
        "committed": summary.committed,
        "attempts": attempts,
    }


def _availability_metrics(collector, start_ms: float, measure_ms: float) -> dict:
    """Longest stretch of 100 ms buckets without an acknowledged commit, and
    the stall guard: no commit at all in the last quarter of the window.

    Update commits are what a certifier outage stops (reads are still
    served from local snapshots), so they are the ones counted whenever the
    workload commits updates at all.
    """
    committed = [s for s in collector.samples if s.committed]
    acks = [s.ack_time for s in committed if s.is_update] or [
        s.ack_time for s in committed]
    buckets = [0] * max(1, round(measure_ms / 100.0))
    for ack in acks:
        buckets[min(len(buckets) - 1, int((ack - start_ms) // 100.0))] += 1
    longest = run = 0
    for count in buckets:
        run = run + 1 if count == 0 else 0
        longest = max(longest, run)
    last_quarter = start_ms + 0.75 * measure_ms
    return {
        "sim_unavailable_ms": longest * 100.0,
        "stalled": not any(s.ack_time >= last_quarter for s in committed),
    }


def _stage_metrics(summary, notes: _Notes) -> dict:
    """Fig. 4's modelled stages of update transactions (virtual ms)."""
    if not summary.update_count:
        return {}
    stages = _attempt(notes, "summary.update_breakdown",
                      lambda: summary.update_breakdown.as_dict())
    return {f"sim.stage.{name}_ms": value for name, value in (stages or {}).items()}


def _count_metrics(cluster, summary, sim_seconds: float, notes: _Notes) -> dict:
    """Exact per-layer counts from the public registry and the summary."""
    reg = _Registry(cluster.metrics, notes)
    txns = reg.total("replica", "committed")
    events = reg.get("kernel.events_processed")
    certified = reg.get("certifier.certified")
    conflicts = reg.get("certifier.conflicts")
    certifications = _sum(certified, conflicts)
    commits = reg.get("certifier.commit_version")
    dispatched = reg.get("balancer.dispatched")
    sent = reg.get("network.sent")
    shed = _sum(*(reg.get(f"balancer.{name}")
                  for name in ("shed", "deadline_shed", "rejected")))
    cores = _attempt(notes, "cluster.params.cores", lambda: cluster.params.cores)
    replicas = reg.get("cluster.num_replicas")
    refreshes = _attempt(
        notes, "proxy.stats()['refreshes_applied']",
        lambda: sum(p.stats()["refreshes_applied"] for p in cluster.replicas.values()),
    )
    metrics = {
        # bases of the ratios below (also used by the runner)
        "txns_total": txns,
        "commit_versions": commits,
        "kernel_events": events,
        "certifications": certifications,
        "refresh_applies": refreshes,
        "sim.kernel.events_per_txn": _ratio(events, txns),
        "sim.kernel.immediate_share": _ratio(
            reg.get("kernel.immediate_scheduled"), events),
        "sim.resources.cpu_utilization": _ratio(
            reg.total("replica", "cpu_busy_ms"),
            None if None in (cores, replicas)
            else cores * replicas * sim_seconds * 1000.0,
        ),
        "sim.network.msgs_per_txn": _ratio(sent, txns),
        "sim.network.dropped_share": _ratio(reg.get("network.dropped"), sent),
        "middleware.loadbalancer.dispatched_per_txn": _ratio(dispatched, txns),
        "middleware.loadbalancer.shed_share": _ratio(shed, dispatched),
        "middleware.proxy.refresh_applies_per_commit": _ratio(refreshes, commits),
        "middleware.proxy.early_abort_share": _ratio(
            reg.total("replica", "early_aborts"), reg.total("replica", "executed")),
        "middleware.certifier.certify_per_txn": _ratio(certifications, txns),
        "middleware.certifier.row_comparisons_per_certify": _ratio(
            reg.get("certifier.row_comparisons"), certifications),
        "middleware.certifier.abort_share": _ratio(conflicts, certifications),
        "middleware.certifier.cross_partition_share": _ratio(
            reg.get("certifier.cross_partition_commits"), certified),
        "middleware.certifier.cross_shard_stalls": reg.get("certifier.cross_shard_stalls"),
        "workloads.clients.retries_per_txn": _ratio(summary.aborted, summary.committed),
    }
    if cluster.scrubber is not None:
        metrics["middleware.scrubber.rounds"] = reg.get("scrub.rounds")
        metrics["middleware.scrubber.quarantine_ms_mean"] = reg.get("scrub.mean_quarantine_ms")
    return metrics


def _lag_sample(cluster, notes: _Notes):
    """(max replica lag in versions, longest refresh backlog) right now."""
    return _attempt(
        notes, "replica lag / pending_refresh",
        lambda: (
            max((cluster.commit_version - p.v_local
                 for p in cluster.replicas.values() if not p.crashed), default=0),
            max(p.pending_refresh_count for p in cluster.replicas.values()),
        ),
    )


def _failover_metrics(cluster, collector, nemesis, notes: _Notes) -> dict:
    """Standby promotions, and certifier kill → acknowledgment of the first
    update submitted after it (one that needed the promoted certifier)."""
    def read():
        killed_at = next(
            (t for t, action, _detail in nemesis.actions if action == "kill-certifier"),
            None,
        )
        after = [
            s.ack_time for s in collector.samples
            if killed_at is not None and s.committed and s.is_update
            and s.submit_time > killed_at
        ]
        return {
            "middleware.standby.promotions": int(
                cluster.standby is not None and cluster.standby.promoted),
            "middleware.standby.failover_ms": min(after) - killed_at if after else None,
            "nemesis_actions": len(nemesis.actions),
        }
    return _attempt(notes, "failover metrics", read) or {}


def _stop_clients(cluster, notes: _Notes) -> None:
    """Cut every client's link to the balancer so in-flight work drains:
    back-to-back update clients never leave an instant at which every
    replica has caught up, and ``quiesce`` would spin for its whole budget."""
    def cut():
        pool = cluster.client_pool
        for client_id in pool.client_ids:
            cluster.network.partition_link(client_id, pool.balancer_name)
    _attempt(notes, "stop clients", cut)


def _converged(cluster, notes: _Notes) -> dict:
    """After quiesce: every replica at V_commit with equal full-scan digests."""
    def check():
        target = cluster.commit_version
        digests = [
            p.engine.database.recompute_digests() for p in cluster.replicas.values()
        ]
        return {
            "replicas_at_commit_version": all(
                p.v_local == target for p in cluster.replicas.values()),
            "replica_digests_equal": all(d == digests[0] for d in digests),
        }
    return _attempt(notes, "convergence audit", check) or {"convergence_audit_ran": False}


def _history_audit(cluster, notes: _Notes, chaos: bool) -> dict:
    """Audits over the recorded history (the traced pass records it); the
    chaos audits are the ones ``repro nemesis`` prints."""
    def check():
        balancer, certifier = cluster.load_balancer, cluster.certifier
        checks = {
            "strong_consistency_violations_none":
                not strong_consistency_violations(balancer.history),
        }
        if chaos:
            checks["no_acknowledged_but_lost"] = all(
                any(
                    certifier.decision_for(attempt) == record.commit_version
                    for attempt in balancer.retry_lineage.get(
                        record.request_id, [record.request_id])
                )
                for record in balancer.history.records
                if record.committed and record.commit_version is not None
            )
            checks["no_fenced_but_committed"] = not any(
                certifier.decision_for(rid) is not None
                for rid in balancer.fenced_request_ids
            )
        return checks
    return _attempt(notes, "history audit", check) or {"history_audit_ran": False}


def _fingerprint(sim: dict, counts: dict) -> str:
    """Hash of every simulated statistic and exact count of one run: equal
    across repetitions and across the traced and untraced passes, or the
    model is not deterministic (or tracing perturbed it)."""
    text = json.dumps({"sim": sim, "counts": counts}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_metrics(run_stats: dict, counts: dict, sim_seconds: float) -> dict:
    """Per-layer numbers of the timed region of the traced pass: self time
    per layer, call counts turned into per-transaction ratios, and the share
    of ``Environment.run`` wall the named layers account for."""
    layers = spans.by_layer(run_stats)

    def span(name, field):
        row = run_stats.get(name)
        return row[field] if row is not None else 0

    def layer(name, field):
        row = layers.get(name)
        return row[field] if row is not None else 0

    txns, commits = counts.get("txns_total"), counts.get("commit_versions")
    metrics = {
        metric: layer(name, spans.SELF_S) for name, metric in SELF_TIME_LAYERS.items()
    }
    kernel_wall = span("sim.kernel:Environment.run", spans.TOTAL_S)
    metrics.update({
        "sim.resources.requests_per_txn": _ratio(
            span("sim.resources:Resource.request", spans.CALLS), txns),
        "storage.engine.ops_per_txn": _ratio(layer("storage.engine", spans.ENTRIES), txns),
        "storage.database.applies_per_commit": _ratio(
            span("storage.database:Database.apply_writeset", spans.CALLS), commits),
        "storage.digest.folds_per_commit": _ratio(
            layer("storage.digest", spans.CALLS), commits),
        "middleware.heartbeat.pings_per_sim_s": _ratio(
            span("sim.network:Network.send", spans.WEIGHT), sim_seconds),
        "workloads.clients.resumes_per_txn": _ratio(
            layer("workloads.clients", spans.CALLS), txns),
        "bench.trace.attributed_share": _ratio(
            sum(metrics.values()), kernel_wall),
        # bases the runner divides by the untraced wall
        "rows_applied": span("storage.database:Database.apply_writeset", spans.WEIGHT),
        "unattributed_layers": {
            name: row[spans.SELF_S] for name, row in sorted(layers.items())
            if name not in SELF_TIME_LAYERS and row[spans.SELF_S] > 0
        },
        # call counts the bypass predictions are asserted on
        "calls": {
            # certifications, not resumes of the certifier's idle main loop
            "middleware.certifier": span(
                "middleware.certifier:CertificationIndex.first_conflict", spans.CALLS
            ) + span("middleware.certifier:CertificationIndex.record", spans.CALLS),
            "storage.database.apply_writeset": span(
                "storage.database:Database.apply_writeset", spans.CALLS),
            "storage.digest": layer("storage.digest", spans.CALLS),
            "middleware.control": layer("middleware.control", spans.CALLS),
        },
    })
    return metrics


def _build_metrics(built_stats: dict, builds: int, rows) -> dict:
    """Cluster construction cost from the spans recorded during set-up."""
    build_s = sum(
        row[spans.TOTAL_S] for row in built_stats.values()
        if row[spans.LAYER] == "core.cluster"
    ) / builds
    return {
        "core.cluster.build_s": build_s,
        "core.cluster.populate_rows_per_s": _ratio(rows, build_s),
    }


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

def _build(spec: Spec, seed: int, scale: float, history: bool, trace_rate=None):
    workload, config = spec.make(seed, scale)
    config = dataclasses.replace(config, record_history=history)
    if trace_rate is not None:
        config = dataclasses.replace(
            config, trace_enabled=True, trace_sample_rate=trace_rate)
    cluster = ReplicatedDatabase(workload, config)
    collector = MetricsCollector(
        measure_start=spec.warmup_ms * scale,
        measure_end=(spec.warmup_ms + spec.measure_ms) * scale,
    )
    # every client retries an aborted transaction, so none ends uncommitted
    cluster.add_clients(spec.clients, collector, retry_aborts=True)
    nemesis = None
    if spec.name == "chaos-soak":
        nemesis = Nemesis(
            cluster,
            RngRegistry(CHAOS_SCHEDULE_SEED).stream("nemesis"),
            duration_ms=spec.measure_ms * scale * CHAOS_FAULT_SHARE,
            injector=FaultInjector(cluster),
            # the nemesis defaults, shortened with the window under --smoke
            mean_interval_ms=150.0 * scale,
            fault_duration_ms=(80.0 * scale, 400.0 * scale),
            certifier_kill_after_ms=500.0 * scale,
            kill_certifier=True,
            corruption=True,
        )
    return cluster, collector, nemesis


def _timed_builds(spec: Spec, seed: int, scale: float, history: bool, trace_rate=None):
    """Build ``spec.builds`` times; return the last build and every build's
    time at reference speed (see hostspeed.py)."""
    speed = HostSpeed()
    built = None
    for _ in range(spec.builds):
        # Drop the previous cluster first: collecting its cycles is not a
        # cost of building the next one, and would land in one sample of
        # three at random.
        built = None
        gc.collect()
        built = speed.timed(partial(_build, spec, seed, scale, history, trace_rate))
    return built, speed.reference_pieces()


def run_once(name: str, seed: int, scale: float = 1.0, mode: str = "plain",
             trace_path: Optional[str] = None) -> dict:
    """One repetition of workload ``name`` in this process.

    ``mode``: ``plain`` (tracing, profiler and history off — the only source
    of end-to-end numbers), ``traced`` (history on, timing wrappers around
    every layer's public entry points) or ``repro-trace-1pct`` (the
    program's own tracer at a 1 % sample, nothing else).
    """
    spec = WORKLOADS[name]
    notes = _Notes()
    recorder = Recorder() if mode == "traced" else None
    try:
        if recorder is not None:
            _install_tracing(recorder, notes, sweep=name == "fig5-sweep")
        if name == "fig5-sweep":
            result = _run_sweep(spec, seed, scale, recorder, notes)
        else:
            result = _run_cluster(spec, seed, scale, mode, recorder, notes)
    finally:
        if recorder is not None:
            recorder.restore()
        if mode == "repro-trace-1pct":
            TRACER.disable()
            TRACER.reset()
    result.update(workload=name, seed=seed, scale=scale, mode=mode, notes=list(notes))
    result["fingerprint"] = _fingerprint(result["sim"], result["counts"])
    if recorder is not None and trace_path is not None:
        recorder.dump(trace_path, {
            "workload": name, "seed": seed, "scale": scale,
            "fingerprint": result["fingerprint"],
        })
    return result


def _run_cluster(spec, seed, scale, mode, recorder, notes) -> dict:
    traced = recorder is not None
    trace_rate = 0.01 if mode == "repro-trace-1pct" else None
    (cluster, collector, nemesis), setup_samples = _timed_builds(
        spec, seed, scale, history=traced, trace_rate=trace_rate)
    total_ms = (spec.warmup_ms + spec.measure_ms) * scale
    rows = _attempt(
        notes, "populated rows",
        lambda: sum(
            len(p.engine.database.table(t))
            for p in cluster.replicas.values()
            for t in p.engine.database.table_names
        ),
    )

    # The virtual interval is run in slices, the host's speed calibrated
    # between them; the traced pass also samples replica lag and refresh
    # backlog there.  Slicing ``run(until)`` does not change the simulation.
    speed = HostSpeed()
    lag_max = pending_max = None
    built_stats = recorder.snapshot() if traced else None
    slices = max(6, round(TIMED_SLICES * scale))
    for i in range(1, slices + 1):
        speed.timed(partial(cluster.run, total_ms * i / slices))
        if traced:
            lag, pending = _lag_sample(cluster, notes) or (None, None)
            if lag is not None:
                lag_max = max(lag_max or 0, lag)
                pending_max = max(pending_max or 0, pending)
    peak_rss = _peak_rss_mb(children=False)
    run_stats = spans.since(recorder.snapshot(), built_stats) if traced else None

    summary = collector.summary()
    sim = _summary_metrics(summary)
    availability = _attempt(
        notes, "collector.samples",
        lambda: _availability_metrics(
            collector, spec.warmup_ms * scale, spec.measure_ms * scale),
    ) or {}
    sim["sim_unavailable_ms"] = availability.get("sim_unavailable_ms")
    counts = _count_metrics(cluster, summary, total_ms / 1000.0, notes)
    counts.update(_stage_metrics(summary, notes))
    if nemesis is not None:
        counts.update(_failover_metrics(cluster, collector, nemesis, notes))
    traced_metrics = {}
    if traced:
        traced_metrics = _trace_metrics(run_stats, counts, total_ms / 1000.0)
        traced_metrics.update(_build_metrics(built_stats, spec.builds, rows))
        traced_metrics["middleware.proxy.max_lag_versions"] = lag_max
        traced_metrics["middleware.proxy.pending_refresh_max"] = pending_max

    _stop_clients(cluster, notes)
    cluster.quiesce(max_wait_ms=60_000.0)
    checks = _converged(cluster, notes)
    checks["not_stalled"] = availability.get("stalled") is False
    if traced:
        checks.update(_history_audit(cluster, notes, chaos=nemesis is not None))
    if spec.name == "micro-readonly":
        checks["no_certifications"] = counts.get("certifications") == 0
        checks["no_refresh_applies"] = counts.get("refresh_applies") == 0
    return {
        "setup_samples_s": setup_samples,
        "wall_s": speed.reference_s(),
        "wall_raw_s": speed.raw_s(),
        "peak_rss_mb": peak_rss,
        "sim": sim,
        "counts": counts,
        "traced": traced_metrics,
        "checks": checks,
    }


def _run_sweep(spec, seed, scale, recorder, notes) -> dict:
    """``fig5-sweep``: the public figure entry point, timed as a whole."""
    _built, setup_samples = _timed_builds(spec, seed, scale, history=False)
    del _built
    built_stats = recorder.snapshot() if recorder is not None else None
    cells = []
    run_experiment = experiments.run_experiment  # the timed one when traced
    speed = HostSpeed()

    def capture(config):
        # A pass-through kept on in both passes (16 calls per sweep): fig5
        # returns TPS and mean response only, so this is the one way to the
        # headline cell's percentiles; it is where the host's speed is
        # calibrated (between cells), and where --smoke shortens the sweep's
        # fixed quick windows.
        if scale != 1.0:
            config = dataclasses.replace(
                config,
                warmup_ms=config.warmup_ms * scale,
                measure_ms=config.measure_ms * scale,
            )
        result = speed.timed(partial(run_experiment, config))
        committed = _attempt(
            notes, "latest_registry() replica.*.committed",
            lambda: sum(r["committed"] for r in latest_registry().tree("replica").values()),
        )
        cells.append((result, committed))
        return result

    experiments.clear_cache()
    experiments.run_experiment = capture
    try:
        start = perf_counter()
        figure = experiments.fig5(quick=True, seed=seed, mixes=(FIG5_MIX,))
        whole_s = perf_counter() - start
    finally:
        experiments.run_experiment = run_experiment
    peak_rss = _peak_rss_mb(children=True)
    # The whole call less the calibration loops, at the cells' reference speed.
    wall_raw_s = whole_s - speed.calibration_s()
    wall_s = wall_raw_s * (_ratio(speed.reference_s(), speed.raw_s()) or 1.0)

    tps = figure[FIG5_MIX]["throughput"]
    level, replicas = FIG5_HEADLINE
    sim = {
        "sim_tps": tps.value(level, replicas),
        "sim_mean_response_ms": figure[FIG5_MIX]["response"].value(level, replicas),
    }
    headline = next(
        (result for result, _n in cells
         if result.config.label.endswith(f"-{level}-{replicas}r")),
        None,
    )
    if headline is not None:
        summary = _summary_metrics(headline.summary)
        for key in ("sim_p50_response_ms", "sim_p99_response_ms",
                    "sim_sync_delay_ms", "failed_share", "committed", "attempts"):
            sim[key] = summary[key]
    else:
        notes.missing("fig5 headline cell", KeyError(f"{level}-{replicas}r"))

    def scaling(label):
        return _ratio(tps.value(label, replicas), tps.value(label, 1))

    window_commits = [result.summary.committed for result, _n in cells]
    run_commits = [n for _result, n in cells]
    lazy, eager = scaling("SC-FINE"), scaling("EAGER")
    counts = {
        "txns_total": sum(window_commits) if None in run_commits else sum(run_commits),
        "bench.experiments.cells": len(cells),
        "paper.fig5.scfine_scaling_8r": lazy,
        "paper.fig5.eager_scaling_8r": eager,
        "paper.fig5.eager_vs_session_tps_8r": _ratio(
            tps.value("EAGER", replicas), tps.value("SESSION", replicas)),
        "cell_tps": {result.config.label: result.tps for result, _n in cells},
    }
    checks = {
        "sweep_ran_16_cells": len(cells) == 16,
        # the paper's shape (Fig. 5): lazy strong consistency scales about
        # 3x from 1 to 8 replicas, EAGER clearly less
        "paper_shape_lazy_scales": lazy is not None and 2.0 <= lazy <= 4.0,
        "paper_shape_eager_behind": None not in (lazy, eager) and eager < 0.8 * lazy,
        "not_stalled": all(window_commits),
    }
    traced_metrics = {}
    if recorder is not None:
        run_stats = spans.since(recorder.snapshot(), built_stats)
        sim_seconds = sum(r.config.total_ms for r, _n in cells) / 1000.0
        traced_metrics = _trace_metrics(run_stats, counts, sim_seconds)
        traced_metrics.update(_build_metrics(built_stats, spec.builds, None))
        built = [row for row in run_stats.values() if row[spans.LAYER] == "core.cluster"]
        traced_metrics["bench.experiments.setup_share"] = _ratio(
            sum(row[spans.TOTAL_S] for row in built), wall_raw_s)
    return {
        "setup_samples_s": setup_samples,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss,
        "sim": sim,
        "counts": counts,
        "traced": traced_metrics,
        "checks": checks,
        "cell_wall_s_max": max(speed.reference_pieces(), default=None),
    }


# ---------------------------------------------------------------------------
# Isolated probes: direct calls with fixed synthetic input
# ---------------------------------------------------------------------------

_PROBE_SCHEMA = TableSchema(
    "item",
    [Column("id", int), Column("subject", str), Column("stock", int)],
    "id",
    indexes=["subject"],
)
_SUBJECTS = ("ARTS", "SPORTS", "HISTORY", "COOKING")


def _probe_database(rows: int = 2_000) -> Database:
    database = Database(name="probe-db")
    database.create_table(_PROBE_SCHEMA)
    for key in range(rows):
        database.load_row(
            "item", {"id": key, "subject": _SUBJECTS[key % 4], "stock": 100})
    return database


def _probe_writesets(count: int, rows: int = 2_000) -> list:
    return [
        WriteSet([
            WriteOp("item", (3 * i + j * 7) % rows, OpKind.UPDATE,
                    {"id": (3 * i + j * 7) % rows, "subject": "ARTS", "stock": i})
            for j in range(3)
        ])
        for i in range(count)
    ]


def _rate(count: int, work: Callable[[], None]) -> float:
    start = perf_counter()
    work()
    return count / (perf_counter() - start)


def _probe_kernel(events: int) -> float:
    """Zero-delay hops and timer ticks over a heap of parked timers (a
    running cluster always has hundreds pending)."""
    env = Environment()
    for i in range(2_000):
        env.timeout(1e9 + i)

    def hopper(count):
        for _ in range(count):
            yield env.timeout(0)

    def ticker(count):
        for _ in range(count):
            yield env.timeout(0.25)

    env.process(hopper(events // 2))
    env.process(ticker(events // 2))
    return _rate(events, lambda: env.run(until=events))


def _probe_engine_reads(reads: int) -> float:
    engine = StorageEngine(_probe_database())
    txn = engine.begin()

    def work():
        read = engine.read
        for i in range(reads):
            read(txn, "item", i % 2_000)
    return _rate(reads, work)


def _probe_apply(writesets: int) -> float:
    database = _probe_database()
    batch = _probe_writesets(writesets)

    def work():
        for version, writeset in enumerate(batch, start=1):
            database.apply_writeset(writeset, version)
    return _rate(3 * writesets, work)


def _probe_digest(writesets: int) -> float:
    tracker = DigestTracker.from_database(_probe_database())
    batch = _probe_writesets(writesets)

    def work():
        for version, writeset in enumerate(batch, start=1):
            tracker.apply(writeset, version)
    return _rate(3 * writesets, work)


def _probe_certify(writesets: int) -> float:
    index = CertificationIndex()
    batch = _probe_writesets(writesets)

    def work():
        for version, writeset in enumerate(batch, start=1):
            index.first_conflict(writeset.slots, max(0, version - 50))
            index.record(version, writeset)
    return _rate(writesets, work)


class _EngineCtx:
    """The statement context ``storage.sql`` executes against, bound to one
    engine transaction (what ``TxnContext`` is inside a proxy)."""

    def __init__(self, engine: StorageEngine):
        self._engine = engine
        self._txn = engine.begin()
        for op in ("read", "lookup", "scan", "insert", "update", "delete"):
            setattr(self, op, partial(getattr(engine, op), self._txn))

    def schema(self, table: str):
        return self._engine.database.table(table).schema


_PROBE_STATEMENTS = (
    "SELECT * FROM item WHERE id = :id",
    "SELECT id FROM item WHERE subject = :subject AND stock >= :floor",
    "UPDATE item SET stock = :q WHERE id = :id",
)


def _probe_sql(executes: int):
    """Prepared-statement executions per second, plus the plan-cache hit rate
    they produce (no cluster workload drives SQL)."""
    ctx = _EngineCtx(StorageEngine(_probe_database(200)))
    cache = repro_sql.plan_cache()
    cache.clear()

    def work():
        for i in range(executes):
            repro_sql.execute(
                ctx, _PROBE_STATEMENTS[i % 3],
                {"id": i % 200, "subject": _SUBJECTS[i % 4], "floor": 10, "q": i},
            )
    rate = _rate(executes, work)
    stats = cache.stats()
    return rate, _ratio(stats["hits"], stats["hits"] + stats["misses"])


def _probe_tracer(records: int) -> float:
    TRACER.reset()
    TRACER.configure(sample_rate=1.0)
    TRACER.enable()
    try:
        def work():
            record = TRACER.record
            for i in range(records):
                record("probe", "ledger", float(i), float(i + 1), request_id=i)
        return _rate(records, work)
    finally:
        TRACER.disable()
        TRACER.reset()


def run_probes(scale: float = 1.0) -> dict:
    """Every ``*.probe_*`` metric (host time, fixed input, seed-independent;
    ``scale`` shortens the loops under --smoke)."""
    notes = _Notes()
    probes = {
        "sim.kernel.probe_events_per_s": (_probe_kernel, 100_000),
        "storage.engine.probe_reads_per_s": (_probe_engine_reads, 100_000),
        "storage.database.probe_apply_rows_per_s": (_probe_apply, 20_000),
        "storage.digest.probe_folds_per_s": (_probe_digest, 20_000),
        "middleware.certifier.probe_certify_per_s": (_probe_certify, 20_000),
        "metrics.tracing.probe_records_per_s": (_probe_tracer, 100_000),
    }
    metrics = {
        name: _attempt(notes, name, lambda: probe(int(size * scale)))
        for name, (probe, size) in probes.items()
    }
    sql = _attempt(
        notes, "storage.sql probe", lambda: _probe_sql(int(6_000 * scale))
    ) or (None, None)
    metrics["storage.sql.probe_executes_per_s"] = sql[0]
    metrics["storage.sql.plan_cache_hit_rate"] = sql[1]
    return {"metrics": metrics, "notes": list(notes)}
