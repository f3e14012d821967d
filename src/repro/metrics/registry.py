"""Unified metrics registry: one namespace of stable dotted metric names.

Every producer in the system — simulation kernel, storage layer,
certifier (and its shards), load balancer (with its admission control),
scrubber, bootstrap coordinator, durability log, tracer — publishes into a
single :class:`MetricsRegistry` owned by the cluster.  Consumers read metrics
by **stable dotted names** (``kernel.events_processed``,
``certifier.shard.0.conflicts``, ``scrub.rounds``, …) instead of
spelunking through per-component ``stats()`` dicts.

The registry is *pull-based*: components register a named provider (a
zero-argument callable returning a nested dict snapshot) once at wiring
time; nothing is recorded on the hot path and an unread registry costs
nothing.  The naming belongs to the producer: a component's ``stats()``
*is* its subtree, published as-is.

See ``docs/OBSERVABILITY.md`` for the full metric-name catalog.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = ["MetricsRegistry", "latest_registry"]


class MetricsRegistry:
    """A named collection of metric providers with a flat dotted view."""

    def __init__(self):
        self._providers: Dict[str, Callable[[], Optional[dict]]] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str, provider: Callable[[], Optional[dict]]) -> None:
        """Register (or replace) the provider behind prefix ``name``.

        ``provider`` returns the component's snapshot tree (it may return
        ``None`` for "subsystem not constructed").
        """
        if "." in name:
            raise ValueError(f"provider name must not contain '.': {name!r}")
        self._providers[name] = provider

    # -- reading -----------------------------------------------------------
    def tree(self, name: str):
        """One provider's snapshot."""
        return self._providers[name]()

    def collect(self) -> dict:
        """The flat view: ``{dotted.metric.name: value}`` across every
        provider, sorted by name."""
        flat: dict = {}
        for name in sorted(self._providers):
            tree = self.tree(name)
            if tree is not None:
                _flatten(tree, name, flat)
        return flat

    def get(self, dotted: str):
        """Resolve one dotted metric name (raises ``KeyError`` if absent)."""
        first, _, rest = dotted.partition(".")
        if first not in self._providers:
            raise KeyError(dotted)
        node = self.tree(first)
        if not rest:
            return node
        for segment in rest.split("."):
            if not isinstance(node, dict):
                raise KeyError(dotted)
            if segment in node:
                node = node[segment]
            elif segment.lstrip("-").isdigit() and int(segment) in node:
                node = node[int(segment)]
            else:
                raise KeyError(dotted)
        return node


def _flatten(tree: dict, prefix: str, out: dict) -> None:
    for key, value in tree.items():
        dotted = f"{prefix}.{key}"
        if isinstance(value, dict):
            _flatten(value, dotted, out)
        else:
            out[dotted] = value


#: The registry of the most recently constructed cluster — a convenience
#: for CLI-level reporting (``--stats``) where the cluster object itself
#: is buried inside an experiment helper.  Library code should prefer
#: ``cluster.metrics``.
_LATEST: Optional[MetricsRegistry] = None


def _set_latest(registry: MetricsRegistry) -> None:
    global _LATEST
    _LATEST = registry


def latest_registry() -> Optional[MetricsRegistry]:
    """The most recently constructed cluster's registry (None before any)."""
    return _LATEST
