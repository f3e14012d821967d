"""Fixtures wiring middleware components in isolation."""

from __future__ import annotations

import pytest

from repro.middleware import (
    Certifier,
    CertifierPerformance,
    PerformanceParams,
    ReplicaPerformance,
    ReplicaProxy,
)
from repro.sim import LatencyModel, Network, RngRegistry
from repro.storage import Column, StorageEngine, TableSchema
from repro.workloads.base import TemplateCatalog, TransactionTemplate


def fixed_latency_network(env, base=0.1):
    rng = RngRegistry(77).stream("net")
    return Network(env, rng, LatencyModel(base=base, jitter=0.0))


def low_variance_params(**overrides):
    """Performance params with zero service-time variance for exact tests."""
    defaults = dict(cv=1e-6, replica_speed_spread=0.0)
    defaults.update(overrides)
    return PerformanceParams(**defaults)


def make_engine(tables=("t",)):
    engine = StorageEngine()
    for name in tables:
        engine.create_table(
            TableSchema(name, [Column("id", int), Column("v", int)], "id")
        )
    return engine


def read_body(table):
    def body(ctx, params):
        return ctx.read(table, params["key"])

    return body


def update_body(table):
    def body(ctx, params):
        row = ctx.read(table, params["key"])
        if row is None:
            ctx.insert(table, {"id": params["key"], "v": params.get("v", 0)})
        else:
            ctx.update(table, params["key"], {"v": params.get("v", row["v"] + 1)})
        return params.get("v")

    return body


def make_catalog(tables=("t",)):
    catalog = TemplateCatalog()
    for table in tables:
        catalog.register(
            TransactionTemplate(
                name=f"read-{table}", table_set={table}, body=read_body(table)
            )
        )
        catalog.register(
            TransactionTemplate(
                name=f"write-{table}",
                table_set={table},
                body=update_body(table),
                is_update=True,
            )
        )
    return catalog


class Harness:
    """One certifier + N proxies + a stub 'lb' mailbox to observe responses."""

    def __init__(self, env, num_replicas=2, level="sc-coarse",
                 tables=("t",), params=None, proxy_overrides=None):
        self.env = env
        self.network = fixed_latency_network(env)
        self.params = params or low_variance_params()
        self.level = level
        self.lb_mailbox = self.network.register("lb")
        self.catalog = make_catalog(tables)
        rngs = RngRegistry(5)
        names = [f"replica-{i}" for i in range(num_replicas)]
        self.proxies = {}
        for name in names:
            engine = make_engine(tables)
            self.proxies[name] = ReplicaProxy(
                env=env,
                network=self.network,
                name=name,
                engine=engine,
                perf=ReplicaPerformance(self.params, rngs.stream(f"p:{name}")),
                level=level,
                templates=self.catalog,
                **(proxy_overrides or {}),
            )
        self.certifier = Certifier(
            env=env,
            network=self.network,
            perf=CertifierPerformance(self.params, rngs.stream("cert")),
            replica_names=names,
            level=level,
        )

    def proxy(self, index=0):
        return self.proxies[f"replica-{index}"]

    def responses(self):
        """Drain all TxnResponse messages delivered to the stub balancer."""
        collected = []
        while len(self.lb_mailbox):
            collected.append(self.lb_mailbox.receive().value)
        return collected


@pytest.fixture
def harness(env):
    return Harness(env)
