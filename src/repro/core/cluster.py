"""The replicated database system — public entry point of the library.

:class:`ReplicatedDatabase` wires the full prototype of Figure 2 together on
the simulation substrate: N replicas (storage engine + proxy + CPU model), a
certifier, a load balancer, the network fabric, and the configured
consistency policy.  Two ways to drive it:

* **interactively** via :meth:`open_session` — a synchronous facade that
  submits one transaction at a time and advances virtual time until the
  response arrives (used by the examples and many tests);
* **under load** via :meth:`add_clients` + :meth:`run` — closed-loop clients
  measured by a :class:`~repro.metrics.collector.MetricsCollector` (used by
  the benchmark harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..histories.records import RunHistory
from ..metrics.collector import MetricsCollector
from ..metrics.profiler import PROFILER
from ..metrics.registry import MetricsRegistry, _set_latest
from ..metrics.tracing import TRACER
from ..middleware.bootstrap import BootstrapCoordinator, BootstrapSettings
from ..middleware.certifier import Certifier
from ..middleware.durability import DecisionLog
from ..middleware.heartbeat import HeartbeatSettings
from ..middleware.loadbalancer import LoadBalancer
from ..middleware.overload import OverloadSettings
from ..middleware.perfmodel import (
    CertifierPerformance,
    PerformanceParams,
    ReplicaPerformance,
    draw_speed_factors,
)
from ..middleware.proxy import ReplicaProxy
from ..middleware.scrubber import Scrubber, ScrubSettings
from ..middleware.standby import CertifierStandby
from ..sim.kernel import Environment
from ..sim.network import LatencyModel, Network
from ..sim.rng import RngRegistry
from ..storage import sql as _sql
from ..storage.database import Database
from ..storage.digest import DigestTracker
from ..storage.engine import StorageEngine
from ..workloads.base import Workload
from ..workloads.clients import ClientPool
from .partition import PartitionMap
from .policy import ConsistencyPolicy, resolve_policy
from .session import SyncSession

__all__ = ["ClusterConfig", "ReplicatedDatabase"]


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one replicated-database deployment."""

    num_replicas: int = 3
    #: a registered policy spec ("sc-fine", "relaxed:5") or a
    #: ready ConsistencyPolicy instance
    level: "str | ConsistencyPolicy" = "sc-coarse"
    seed: int = 0
    #: override the workload's performance model
    params: Optional[PerformanceParams] = None
    latency: LatencyModel = field(default_factory=LatencyModel)
    record_history: bool = True
    #: the early-certification mechanism as a whole (Section IV); the
    #: ablation bench disables it
    early_certification: bool = True
    #: optional file sink for the certifier's durable decision log
    log_path: Optional[str] = None
    #: serializable certification: validate readsets at the certifier
    #: (turns GSI into one-copy serializability at the cost of aborts)
    certify_reads: bool = False
    # -- certifier shards (see docs/PROTOCOL.md) --------------------------
    #: number of table-group certifier shards; 1 (the default) is the
    #: paper's single serial certifier — the one-shard case of the pipeline
    num_partitions: int = 1
    #: explicit table→partition assignment as a tuple of table tuples
    #: (group i → partition i); unlisted tables hash onto a partition
    partition_table_groups: Optional[tuple] = None
    #: purge a departed replica's pinned replication-horizon entry after
    #: this grace period (None = pin forever)
    departed_grace_ms: Optional[float] = None
    # -- self-healing (all off by default; see docs/PROTOCOL.md) -----------
    #: heartbeat failure detection (None = no heartbeats: faults are only
    #: visible through explicit injector calls)
    heartbeat: Optional[HeartbeatSettings] = None
    #: per-request deadline at the load balancer (None = wait forever);
    #: timed-out reads are re-routed, timed-out updates fate-resolved
    request_deadline_ms: Optional[float] = None
    #: bound on a proxy's certify/global wait (None = wait forever)
    certify_timeout_ms: Optional[float] = None
    #: run a warm standby certifier with semi-synchronous log shipping and
    #: majority-vote automatic promotion
    standby_certifier: bool = False
    #: dispatch attempts per request before the client sees a failure
    max_attempts: int = 3
    # -- overload protection (all off by default; see docs/TUNING.md) ------
    #: the balancer's admission control and shedding (None = every request
    #: dispatches immediately)
    overload: Optional[OverloadSettings] = None
    #: bound on the certifier's inbound queue; beyond it certifications are
    #: refused with backpressure (None = unbounded)
    certifier_queue_bound: Optional[int] = None
    # -- anti-entropy (all off by default; see docs/PROTOCOL.md) ------------
    #: period between scrub rounds (None = no scrubber, no digest oracle —
    #: the whole anti-entropy subsystem stays unconstructed)
    scrub_interval_ms: Optional[float] = None
    #: deep scrubs rescan every visible row (catches in-place bit rot);
    #: light scrubs answer from the incremental digests (apply bugs only)
    scrub_deep: bool = True
    #: how long a scrub round collects digest replies before evaluating
    scrub_reply_timeout_ms: float = 30.0
    #: drive peer row-sync repair automatically (False = quarantine only)
    scrub_auto_repair: bool = True
    #: seeded network delivery faults (0.0 = off, no random draws)
    net_duplicate_prob: float = 0.0
    net_reorder_prob: float = 0.0
    # -- replica lifecycle (off by default; see docs/PROTOCOL.md) -----------
    #: the bootstrap coordinator: fresh/stale replicas are brought to
    #: ``live`` by checkpoint transfer + log replay under full client load
    #: (None = the subsystem stays unconstructed)
    bootstrap: Optional[BootstrapSettings] = None
    # -- tracing (off by default; see docs/OBSERVABILITY.md) ----------------
    #: enable the module-level TRACER when this cluster is constructed.
    #: Tracing is record-only — it never schedules events or draws RNG, so
    #: even enabled it cannot change virtual-time behaviour; off (the
    #: default) the hot paths do a single attribute check and allocate
    #: nothing.
    trace_enabled: bool = False
    #: fraction of transactions traced (deterministic hash sampling over
    #: request ids — no RNG stream is consumed); the span buffer's size is
    #: the tracer's own (``TRACER.configure(capacity=)``)
    trace_sample_rate: float = 1.0

    def __post_init__(self):
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.request_deadline_ms is not None and self.request_deadline_ms <= 0:
            raise ValueError("request_deadline_ms must be positive")
        if self.certify_timeout_ms is not None and self.certify_timeout_ms <= 0:
            raise ValueError("certify_timeout_ms must be positive")
        # Fail fast on an invalid partition layout (count/groups).
        PartitionMap(self.num_partitions, table_groups=self.partition_table_groups)
        if self.departed_grace_ms is not None and self.departed_grace_ms <= 0:
            raise ValueError("departed_grace_ms must be positive")
        if self.certifier_queue_bound is not None and self.certifier_queue_bound < 1:
            raise ValueError("certifier_queue_bound must be >= 1")
        if self.scrub_interval_ms is not None:
            # Fail fast on invalid scrub settings.
            self.scrub_settings
        if not 0.0 <= self.net_duplicate_prob <= 1.0:
            raise ValueError("net_duplicate_prob must be in [0, 1]")
        if not 0.0 <= self.net_reorder_prob <= 1.0:
            raise ValueError("net_reorder_prob must be in [0, 1]")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")

    @classmethod
    def self_healing(cls, **overrides) -> "ClusterConfig":
        """A configuration with the whole self-healing stack enabled:
        heartbeats, request deadlines, certify timeouts and a warm standby.
        Any field can still be overridden by keyword."""
        settings = dict(
            heartbeat=HeartbeatSettings(),
            request_deadline_ms=250.0,
            certify_timeout_ms=150.0,
            standby_certifier=True,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def overload_protected(cls, **overrides) -> "ClusterConfig":
        """A configuration with the overload-protection stack enabled:
        admission control with bounded queues, deadline-aware shedding and
        certifier backpressure.  Any field can still be overridden by
        keyword."""
        settings = dict(
            overload=OverloadSettings(mpl_cap=8, queue_depth=32, shed_deadline_ms=500.0),
            certifier_queue_bound=64,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def anti_entropy(cls, **overrides) -> "ClusterConfig":
        """A configuration with the anti-entropy subsystem enabled: periodic
        deep scrubbing, quarantine on divergence and automatic peer row-sync
        repair.  Any field can still be overridden by keyword."""
        settings = dict(
            scrub_interval_ms=200.0,
            scrub_deep=True,
            scrub_auto_repair=True,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def elastic(cls, **overrides) -> "ClusterConfig":
        """A configuration with elastic membership enabled on top of the
        self-healing stack: heartbeats, deadlines, a warm standby, a
        departed-replica grace period (so a long-gone replica stops pinning
        the replication horizon) and the bootstrap coordinator that brings
        fresh or purged replicas back to ``live`` by state transfer.  Any
        field can still be overridden by keyword."""
        settings = dict(
            heartbeat=HeartbeatSettings(),
            request_deadline_ms=250.0,
            certify_timeout_ms=150.0,
            standby_certifier=True,
            departed_grace_ms=400.0,
            bootstrap=BootstrapSettings(),
        )
        settings.update(overrides)
        return cls(**settings)

    @property
    def scrub_settings(self) -> Optional["ScrubSettings"]:
        """The resolved scrub settings (None when scrubbing is off)."""
        if self.scrub_interval_ms is None:
            return None
        return ScrubSettings(
            interval_ms=self.scrub_interval_ms,
            deep=self.scrub_deep,
            reply_timeout_ms=self.scrub_reply_timeout_ms,
            auto_repair=self.scrub_auto_repair,
        )

    @property
    def partition_map(self) -> Optional[PartitionMap]:
        """The resolved table-group partition map — **None** for the default
        single-partition deployment: one certifier shard, no predecessor
        vectors, scalar version accounting at the balancer."""
        if self.num_partitions == 1:
            return None
        return PartitionMap(self.num_partitions, table_groups=self.partition_table_groups)


class ReplicatedDatabase:
    """A fully wired multi-master replicated database."""

    def __init__(self, workload: Workload, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ClusterConfig or keyword overrides, not both")
        self.config = config
        self.workload = workload
        if config.trace_enabled:
            # The tracer is a module-level singleton (like PROFILER): the
            # knob turns it on for this process; callers that interleave
            # traced and untraced clusters disable/reset it themselves.
            TRACER.configure(sample_rate=config.trace_sample_rate)
            TRACER.enable()
        if TRACER.enabled:
            # Request ids and commit versions restart per cluster: give
            # this build its own correlation-id namespace so commands
            # that sweep several clusters (repro fig5 --trace) don't
            # cross-link spans between runs.
            TRACER.new_run()
        #: the consistency scheme, resolved once and shared by every layer
        self.policy = resolve_policy(config.level)
        self.env = Environment()
        self.rngs = RngRegistry(config.seed)
        self.network = Network(
            self.env,
            self.rngs.stream("network"),
            config.latency,
            duplicate_prob=config.net_duplicate_prob,
            reorder_prob=config.net_reorder_prob,
            fault_rng=(
                self.rngs.stream("network:faults")
                if config.net_duplicate_prob > 0 or config.net_reorder_prob > 0
                else None
            ),
        )
        self.templates = workload.catalog()
        self.params = config.params or workload.performance_params()
        self.history: Optional[RunHistory] = RunHistory() if config.record_history else None

        self.replica_names = [f"replica-{i}" for i in range(config.num_replicas)]
        self.replicas: dict[str, ReplicaProxy] = {}
        speed_factors = draw_speed_factors(
            self.params, self.rngs.stream("speed"), config.num_replicas
        )
        standby_name = "certifier-standby" if config.standby_certifier else None
        #: None for num_partitions=1 (one certifier shard, no vectors)
        self.partition_map = config.partition_map
        # Every replica starts from the identical version-0 data set: build
        # it once and give each replica a clone over the same row versions.
        with PROFILER.section("cluster.populate"):
            seed_db = self._empty_database("seed-db")
            workload.populate(seed_db, self.rngs.stream("populate"))
            if seed_db.version != 0:
                raise RuntimeError("populate() must not advance the database version")
        with PROFILER.section("cluster.replicas"):
            for name, speed in zip(self.replica_names, speed_factors):
                self.replicas[name] = self._make_replica(
                    name, seed_db.clone(f"{name}-db"), speed
                )

        # Anti-entropy oracles, seeded from the version-0 image.  The standby
        # keeps its own tracker, fed from the records it tails, so a promoted
        # certifier still holds a live oracle.
        scrub_settings = config.scrub_settings
        digest_tracker = None
        standby_tracker = None
        if scrub_settings is not None:
            digest_tracker = DigestTracker.from_database(seed_db)
            if config.standby_certifier:
                standby_tracker = DigestTracker.from_database(seed_db)

        self.certifier = self._make_certifier(
            "certifier",
            list(self.replica_names),
            log=DecisionLog(config.log_path),
            standby_name=standby_name,
            digest_tracker=digest_tracker,
        )
        self.load_balancer = LoadBalancer(
            env=self.env,
            network=self.network,
            replica_names=list(self.replica_names),
            level=self.policy,
            templates=self.templates,
            history=self.history,
            heartbeat=config.heartbeat,
            request_deadline_ms=config.request_deadline_ms,
            max_attempts=config.max_attempts,
            overload=config.overload,
        )
        self.standby: Optional[CertifierStandby] = None
        if config.standby_certifier:
            self.standby = CertifierStandby(
                env=self.env,
                network=self.network,
                replica_names=list(self.replica_names),
                # The successor keeps drawing service times from the
                # standby's own stream, whatever its endpoint is called.
                make_certifier=partial(
                    self._make_certifier,
                    perf=CertifierPerformance(
                        self.params, self.rngs.stream("perf:certifier-standby")
                    ),
                ),
                name=standby_name,
                heartbeat=config.heartbeat,
                promote_hook=self._adopt_certifier,
                digest_tracker=standby_tracker,
            )
        self.scrubber: Optional[Scrubber] = None
        if scrub_settings is not None:
            self.scrubber = Scrubber(
                env=self.env,
                network=self.network,
                replica_names=list(self.replica_names),
                # A callable, not the tracker: after a certifier failover the
                # promoted successor (adopted below) carries the standby's
                # tracker, and the scrubber must follow it.
                tracker_provider=lambda: self.certifier.digest_tracker,
                balancer=self.load_balancer,
                settings=scrub_settings,
            )
        self.bootstrap: Optional[BootstrapCoordinator] = None
        if config.bootstrap is not None:
            self.bootstrap = BootstrapCoordinator(
                env=self.env,
                network=self.network,
                balancer=self.load_balancer,
                # A callable, not the certifier: a failover must re-point
                # in-flight bootstraps at the promoted successor.
                certifier_provider=lambda: self.certifier,
                # The live dict itself, so replicas added online are visible.
                replicas=self.replicas,
                scrubber=self.scrubber,
                settings=config.bootstrap,
            )
            for proxy in self.replicas.values():
                proxy.bootstrap_name = self.bootstrap.name
        self._session_counter = 0
        self.client_pool: Optional[ClientPool] = None
        #: the unified metrics registry — every producer publishes here
        #: under stable dotted names
        self.metrics = self._build_metrics_registry()
        _set_latest(self.metrics)

    def _make_certifier(
        self, name: str, replica_names: list, perf=None, **state
    ) -> Certifier:
        """Wire a certifier for this deployment — the only place one is
        constructed; ``state`` is what the first one and a successor differ
        in (log, epoch, standby, digest tracker)."""
        config = self.config
        if perf is None:
            perf = CertifierPerformance(self.params, self.rngs.stream(f"perf:{name}"))
        return Certifier(
            env=self.env,
            network=self.network,
            perf=perf,
            replica_names=replica_names,
            level=self.policy,
            name=name,
            heartbeat=config.heartbeat,
            inbound_queue_bound=config.certifier_queue_bound,
            partition_map=self.partition_map,
            departed_grace_ms=config.departed_grace_ms,
            **state,
        )

    def _empty_database(self, name: str) -> Database:
        """A database holding the workload's tables and no rows.  Digests
        are maintained only when a light scrubber will ask for them (a deep
        scrub rescans every row instead)."""
        scrub = self.config.scrub_settings
        database = Database(name, maintain_digests=scrub is not None and not scrub.deep)
        for schema in self.workload.schemas():
            database.create_table(schema)
        return database

    def _make_replica(self, name: str, database: Database, speed: float) -> ReplicaProxy:
        """Wire one replica (engine, CPU model, proxy) around ``database``."""
        config = self.config
        return ReplicaProxy(
            env=self.env,
            network=self.network,
            name=name,
            engine=StorageEngine(database, name=f"{name}-engine"),
            perf=ReplicaPerformance(self.params, self.rngs.stream(f"perf:{name}"), speed),
            level=self.policy,
            templates=self.templates,
            early_certification=config.early_certification,
            certify_reads=config.certify_reads,
            heartbeat=config.heartbeat,
            standby_name="certifier-standby" if config.standby_certifier else None,
            certify_timeout_ms=config.certify_timeout_ms,
        )

    def _adopt_certifier(self, certifier: Certifier) -> None:
        """Promotion hook: the promoted standby becomes ``self.certifier`` so
        metrics, audits and the injector keep seeing the live one."""
        self.certifier = certifier

    # -- interactive use ------------------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> SyncSession:
        """Open a synchronous client session (one transaction at a time)."""
        if session_id is None:
            self._session_counter += 1
            session_id = f"session-{self._session_counter}"
        return SyncSession(self, session_id)

    # -- load generation -----------------------------------------------------
    def add_clients(
        self,
        count: int,
        collector: Optional[MetricsCollector] = None,
        retry_aborts: bool = False,
    ) -> MetricsCollector:
        """Spawn ``count`` closed-loop clients; returns their collector."""
        if collector is None:
            collector = MetricsCollector()
        if self.client_pool is None:
            self.client_pool = ClientPool(
                env=self.env,
                network=self.network,
                workload=self.workload,
                collector=collector,
                rngs=self.rngs,
                retry_aborts=retry_aborts,
            )
        self.client_pool.spawn(count)
        return collector

    def run(self, until_ms: float) -> None:
        """Advance virtual time to ``until_ms``."""
        self.env.run(until=until_ms)

    # -- elastic membership --------------------------------------------------
    def add_replica_online(self, name: Optional[str] = None) -> str:
        """Join a brand-new replica to a running cluster.

        The replica starts **empty** (schemas only — no populate pass): the
        bootstrap coordinator transfers a donor checkpoint, which carries the
        full visible state including the initial data set, then drives
        catch-up replay and the joining → catching-up → live lifecycle.  The
        node serves no client traffic and never pins the replication horizon
        until it goes live.  Returns the new replica's name.
        """
        if self.bootstrap is None:
            raise RuntimeError(
                "add_replica_online requires bootstrap settings "
                "(e.g. ClusterConfig.elastic())"
            )
        if name is None:
            name = f"replica-{len(self.replica_names)}"
        if name in self.replicas:
            raise ValueError(f"replica {name!r} already exists")
        speed = draw_speed_factors(self.params, self.rngs.stream(f"speed:{name}"), 1)[0]
        proxy = self._make_replica(name, self._empty_database(f"{name}-db"), speed)
        proxy.bootstrap_name = self.bootstrap.name
        self.replica_names.append(name)
        self.replicas[name] = proxy
        self.bootstrap.bootstrap(name)
        return name

    # -- inspection ----------------------------------------------------------
    def replica(self, index_or_name) -> ReplicaProxy:
        """Look up a replica by index or name."""
        if isinstance(index_or_name, int):
            return self.replicas[self.replica_names[index_or_name]]
        return self.replicas[index_or_name]

    def replica_versions(self) -> dict[str, int]:
        """Each replica's current ``V_local``."""
        return {name: proxy.v_local for name, proxy in self.replicas.items()}

    @property
    def commit_version(self) -> int:
        """The certifier's ``V_commit`` — the global database version."""
        return self.certifier.commit_version

    # -- metrics registry ----------------------------------------------------
    def _replica_metrics(self) -> dict:
        """Each proxy's own subtree plus ``lag``, the one field that needs
        the certifier's ``V_commit`` as well."""
        commit_version = self.certifier.commit_version
        return {
            name: {**proxy.stats(), "lag": commit_version - proxy.v_local}
            for name, proxy in self.replicas.items()
        }

    def _build_metrics_registry(self) -> MetricsRegistry:
        """Wire every producer into one registry of stable dotted names
        (``kernel.events_processed``, ``certifier.shard.0.conflicts``,
        ``scrub.rounds``, …; full catalog in docs/OBSERVABILITY.md).  A
        component's ``stats()`` is its subtree, registered as-is."""
        registry = MetricsRegistry()
        registry.register(
            "cluster",
            lambda: {
                "time_ms": self.env.now,
                "level": self.policy.label,
                "num_replicas": len(self.replica_names),
            },
        )
        registry.register("kernel", self.env.metrics)
        # Through ``self``: a failover replaces the certifier.
        registry.register("certifier", lambda: self.certifier.stats())
        registry.register("balancer", self.load_balancer.stats)
        registry.register("network", self.network.metrics)
        registry.register(
            "storage",
            lambda: {
                "scan_fallbacks": sum(
                    proxy.engine.database.scan_fallbacks()
                    for proxy in self.replicas.values()
                ),
                "plan_cache": _sql.plan_cache().stats(),
            },
        )
        # None = subsystem not constructed: nothing published under it.
        registry.register(
            "scrub",
            lambda: self.scrubber.stats() if self.scrubber is not None else None,
        )
        registry.register(
            "bootstrap",
            lambda: self.bootstrap.stats() if self.bootstrap is not None else None,
        )
        registry.register("replica", self._replica_metrics)
        registry.register("trace", TRACER.stats)
        return registry

    def quiesce(self, settle_ms: float = 50.0, max_wait_ms: float = 60_000.0) -> None:
        """Advance time until all replicas have applied every committed
        version (or ``max_wait_ms`` elapses).  Useful in tests/examples to
        observe the fully propagated state."""
        deadline = self.env.now + max_wait_ms
        while self.env.now < deadline:
            target = self.certifier.commit_version
            if all(p.v_local >= target for p in self.replicas.values() if not p.crashed):
                return
            self.env.run(until=min(self.env.now + settle_ms, deadline))
