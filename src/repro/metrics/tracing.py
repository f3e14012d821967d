"""Per-transaction causal tracing in virtual time.

The tracer records *spans* — named intervals of virtual milliseconds —
across the full transaction lifecycle: client submit, load-balancer
admission/queueing/dispatch, the proxy's pipeline stages, certification
(including per-shard slot acquisition at more than one shard), decision
logging, and the refresh apply of each commit on every other replica.
Spans are linked by ``request_id``, ``txn_id`` and ``commit_version`` so
a single transaction's trace can be reassembled cluster-wide and the
question "which stage ate the p99" answered directly.

Design follows the :data:`~repro.metrics.profiler.PROFILER` pattern:

* a module-level :data:`TRACER` singleton, disabled by default;
* every hook site guards with ``if TRACER.enabled:`` so the defaults-off
  path allocates nothing (the golden-fingerprint equivalence tests pin
  it byte-identical);
* even when enabled the tracer only *records* — it never schedules
  events, draws from the simulation's RNG streams, or yields — so
  enabling it cannot change virtual-time behaviour either (asserted by
  a property test).

Sampling is per transaction and deterministic: a multiplicative hash of
the client request id is compared against ``sample_rate``, so the same
seed traces the same transactions regardless of what else runs, and no
RNG stream is consumed.  The collector is a bounded ring buffer
(``capacity`` spans; the oldest are dropped and counted).

Exporters produce Chrome-trace JSON (load ``chrome://tracing`` or
https://ui.perfetto.dev) and JSONL; query helpers (:meth:`Tracer.spans_for_txn`,
:meth:`Tracer.critical_path`, :meth:`Tracer.stage_histograms`) serve
tests and benchmarks without leaving Python.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "trace_invariant_report",
]

# Knuth's multiplicative hash constant — spreads sequential request ids
# uniformly over 32 bits for deterministic, RNG-free sampling.
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


class Span:
    """One named interval of virtual time, tagged with correlation ids."""

    __slots__ = (
        "name",
        "component",
        "start",
        "end",
        "request_id",
        "txn_id",
        "commit_version",
        "attrs",
        "run",
    )

    def __init__(
        self,
        name: str,
        component: str,
        start: float,
        end: float,
        request_id: Optional[int] = None,
        txn_id: Optional[int] = None,
        commit_version: Optional[int] = None,
        attrs: Optional[dict] = None,
        run: int = 0,
    ):
        self.name = name
        self.component = component
        self.start = start
        self.end = end
        self.request_id = request_id
        self.txn_id = txn_id
        self.commit_version = commit_version
        self.attrs = attrs
        #: which cluster build produced this span — commands that sweep
        #: several clusters (e.g. ``repro fig5 --trace``) restart request
        #: ids and commit versions from 1 each run, so correlation ids
        #: are only unique within one ``run``
        self.run = run

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "end": self.end,
            "duration": self.end - self.start,
        }
        if self.request_id is not None:
            d["request_id"] = self.request_id
        if self.txn_id is not None:
            d["txn_id"] = self.txn_id
        if self.commit_version is not None:
            d["commit_version"] = self.commit_version
        if self.attrs:
            d["attrs"] = self.attrs
        if self.run:
            d["run"] = self.run
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.component!r}, "
            f"{self.start:.3f}..{self.end:.3f}, rid={self.request_id}, "
            f"txn={self.txn_id}, v={self.commit_version})"
        )


class Tracer:
    """Bounded ring-buffer collector of :class:`Span` records.

    Disabled by default; when disabled every hook is a single attribute
    check and nothing is allocated.  See the module docstring for the
    full contract.
    """

    __slots__ = (
        "enabled",
        "sample_rate",
        "capacity",
        "dropped",
        "run_id",
        "_spans",
        "_sampled",
        "_version_links",
        "_marks",
    )

    def __init__(self, capacity: int = 65536, sample_rate: float = 1.0):
        self.enabled = False
        self.sample_rate = sample_rate
        self.capacity = capacity
        self.dropped = 0
        #: current run (cluster build) — see :attr:`Span.run`
        self.run_id = 0
        self._spans: deque = deque()
        #: request ids selected for tracing (per attempt; retries are
        #: aliased in by the load balancer)
        self._sampled: set = set()
        #: commit version -> (txn_id, request_id); registered when a
        #: sampled transaction certifies, consulted by refresh applies
        self._version_links: Dict[int, Tuple[int, int]] = {}
        #: open interval start times, keyed by (request_id, name) —
        #: used when a span's start and end are observed at different
        #: call sites (e.g. LB queueing)
        self._marks: Dict[Tuple[int, str], float] = {}

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def configure(
        self,
        sample_rate: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if sample_rate is not None:
            if not (0.0 <= sample_rate <= 1.0):
                raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
            self.sample_rate = sample_rate
        if capacity is not None:
            if capacity <= 0:
                raise ValueError(f"capacity must be positive, got {capacity}")
            self.capacity = capacity

    def reset(self) -> None:
        """Drop all spans, sampling state and links (keeps knobs)."""
        self.dropped = 0
        self.run_id = 0
        self._spans.clear()
        self._sampled.clear()
        self._version_links.clear()
        self._marks.clear()

    def new_run(self) -> int:
        """Start a new correlation-id namespace (called per cluster build).

        Request ids and commit versions restart from 1 for every cluster,
        so a command that traces several runs must clear the sampling and
        version-link maps between them; spans already in the buffer keep
        their old ``run`` tag and stay exportable.
        """
        self.run_id += 1
        self._sampled.clear()
        self._version_links.clear()
        self._marks.clear()
        return self.run_id

    # -- sampling ----------------------------------------------------------
    def sample(self, request_id: int) -> bool:
        """Decide (deterministically) whether to trace this transaction.

        Called once per client request at submit time.  Uses a
        multiplicative hash of the request id, never the simulation's
        RNG streams, so sampling can't perturb seeded runs.
        """
        if self.sample_rate >= 1.0:
            keep = True
        elif self.sample_rate <= 0.0:
            keep = False
        else:
            keep = (request_id * _HASH_MULT) % _HASH_MOD < self.sample_rate * _HASH_MOD
        if keep:
            self._sampled.add(request_id)
        return keep

    def is_sampled(self, request_id: int) -> bool:
        return request_id in self._sampled

    def alias(self, old_request_id: int, new_request_id: int) -> None:
        """Propagate sampling across a retry's fresh attempt id."""
        if old_request_id in self._sampled:
            self._sampled.add(new_request_id)

    def link_version(self, commit_version: int, txn_id: int, request_id: int) -> None:
        """Register a sampled commit so refresh applies (which only see
        the commit version) can be correlated back to the transaction."""
        self._version_links[commit_version] = (txn_id, request_id)

    def version_sampled(self, commit_version: int) -> bool:
        return commit_version in self._version_links

    # -- recording ---------------------------------------------------------
    def record(
        self,
        name: str,
        component: str,
        start: float,
        end: float,
        request_id: Optional[int] = None,
        txn_id: Optional[int] = None,
        commit_version: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        """Append a span to the ring buffer (oldest dropped when full).

        If ``commit_version`` is linked and txn/request ids are omitted
        they are filled in from the link, so refresh-apply call sites
        only need the version.
        """
        if not self.enabled:
            return
        if commit_version is not None and txn_id is None:
            link = self._version_links.get(commit_version)
            if link is not None:
                txn_id, linked_rid = link
                if request_id is None:
                    request_id = linked_rid
        if len(self._spans) >= self.capacity:
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(
            Span(name, component, start, end, request_id, txn_id,
                 commit_version, attrs, self.run_id)
        )

    def instant(
        self,
        name: str,
        component: str,
        at: float,
        request_id: Optional[int] = None,
        txn_id: Optional[int] = None,
        commit_version: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration span (a point event)."""
        self.record(name, component, at, at, request_id, txn_id, commit_version, attrs)

    def mark(self, request_id: int, name: str, at: float) -> None:
        """Remember an interval's start; paired with :meth:`span_since`."""
        self._marks[(request_id, name)] = at

    def span_since(
        self,
        request_id: int,
        name: str,
        component: str,
        end: float,
        attrs: Optional[dict] = None,
    ) -> None:
        """Close an interval opened by :meth:`mark` (no-op if absent)."""
        start = self._marks.pop((request_id, name), None)
        if start is not None:
            self.record(name, component, start, end, request_id=request_id, attrs=attrs)

    # -- queries -----------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def spans_for_txn(self, txn_id: int) -> List[Span]:
        """All spans for one transaction, ordered by start time.

        Spans recorded before the txn id existed (client submit, LB
        admission, the version stage) are joined in via the request ids
        observed alongside this txn id.
        """
        rids = {
            s.request_id
            for s in self._spans
            if s.txn_id == txn_id and s.request_id is not None
        }
        out = [
            s
            for s in self._spans
            if s.txn_id == txn_id or (s.request_id is not None and s.request_id in rids)
        ]
        out.sort(key=lambda s: (s.start, s.end))
        return out

    def spans_for_version(self, commit_version: int) -> List[Span]:
        out = [s for s in self._spans if s.commit_version == commit_version]
        out.sort(key=lambda s: (s.start, s.end))
        return out

    def critical_path(self, txn_id: int) -> List[Span]:
        """The transaction's latency decomposition: its spans ordered by
        start time with container spans (e.g. ``client.request``) first.

        Each returned span carries its own duration; summing the proxy
        stage spans plus LB queueing reconstructs the end-to-end latency
        the client observed (network hops excepted).
        """
        spans = self.spans_for_txn(txn_id)
        spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
        return spans

    def stage_histograms(self) -> Dict[str, dict]:
        """Per span-name duration summaries: count/total/mean/p50/p99/max."""
        buckets: Dict[str, List[float]] = {}
        for s in self._spans:
            buckets.setdefault(s.name, []).append(s.end - s.start)
        out = {}
        for name, durations in sorted(buckets.items()):
            durations.sort()
            n = len(durations)
            total = sum(durations)
            out[name] = {
                "count": n,
                "total": total,
                "mean": total / n,
                "p50": durations[n // 2],
                "p99": durations[min(n - 1, (n * 99) // 100)],
                "max": durations[-1],
            }
        return out

    def stage_totals(self) -> Dict[str, float]:
        """Summed duration per span name (virtual ms)."""
        totals: Dict[str, float] = {}
        for s in self._spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
        return totals

    def stats(self) -> dict:
        """Registry-facing counters."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "spans": len(self._spans),
            "capacity": self.capacity,
            "dropped": self.dropped,
            "sampled_requests": len(self._sampled),
            "linked_versions": len(self._version_links),
        }

    # -- exporters ---------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome-trace ("Trace Event Format") JSON object.

        Times are exported in microseconds as the format expects; one
        pid per cluster run, one tid per component, with thread/process
        name metadata so the viewer labels lanes
        ``client``/``balancer``/``replica-N``/… per run.
        """
        tids: Dict[Tuple[int, str], int] = {}
        pids = set()
        events = []
        for span in self._spans:
            pid = max(1, span.run)
            pids.add(pid)
            tid = tids.setdefault((pid, span.component), len(tids) + 1)
            args = {}
            if span.request_id is not None:
                args["request_id"] = span.request_id
            if span.txn_id is not None:
                args["txn_id"] = span.txn_id
            if span.commit_version is not None:
                args["commit_version"] = span.commit_version
            if span.attrs:
                args.update(span.attrs)
            duration = span.end - span.start
            event = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X" if duration > 0 else "i",
                "ts": span.start * 1000.0,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
            if duration > 0:
                event["dur"] = duration * 1000.0
            else:
                event["s"] = "t"
            events.append(event)
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": component},
            }
            for (pid, component), tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        for pid in sorted(pids) or [1]:
            meta.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro run {pid} (virtual time)"},
                },
            )
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped, "spans": len(self._spans)},
        }

    def export_chrome(self, path: str) -> int:
        """Write Chrome-trace JSON to ``path``; returns span count."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return len(self._spans)

    def export_jsonl(self, path: str) -> int:
        """Write one JSON span record per line; returns span count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self._spans:
                fh.write(json.dumps(span.to_dict()))
                fh.write("\n")
        return len(self._spans)


def trace_invariant_report(
    spans: Iterable[Span],
    expected_refresh_appliers: int,
    up_to_version: Optional[int] = None,
) -> dict:
    """Check causal trace invariants over a span set.

    For every commit version observed in the spans (optionally limited
    to versions ``<= up_to_version``, e.g. the slowest replica's
    ``v_local`` so in-flight refreshes don't count as violations):

    * exactly one certification span (``certifier.certify``) produced
      that version, and
    * exactly ``expected_refresh_appliers`` ``refresh.apply`` spans
      exist — one per live non-origin replica — with no replica
      applying the same version twice.

    Returns ``{"versions": n, "violations": [...]}:`` an empty
    ``violations`` list means the trace is causally consistent.
    """
    certs: Dict[Tuple[int, int], int] = {}
    applies: Dict[Tuple[int, int], List[str]] = {}
    for span in spans:
        v = span.commit_version
        if v is None:
            continue
        key = (getattr(span, "run", 0), v)
        if span.name == "certifier.certify":
            certs[key] = certs.get(key, 0) + 1
        elif span.name == "refresh.apply":
            applies.setdefault(key, []).append(span.component)
    versions = set(certs) | set(applies)
    if up_to_version is not None:
        versions = {key for key in versions if key[1] <= up_to_version}
    violations = []
    for key in sorted(versions):
        _run, v = key
        n_cert = certs.get(key, 0)
        if n_cert != 1:
            violations.append(f"version {v}: {n_cert} certification spans (expected 1)")
        appliers = applies.get(key, [])
        if len(set(appliers)) != len(appliers):
            violations.append(f"version {v}: duplicate refresh.apply on a replica: {appliers}")
        if len(appliers) != expected_refresh_appliers:
            violations.append(
                f"version {v}: {len(appliers)} refresh.apply spans "
                f"(expected {expected_refresh_appliers}): {sorted(appliers)}"
            )
    return {"versions": len(versions), "violations": violations}


#: Module-level tracer singleton — mirror of :data:`~repro.metrics.profiler.PROFILER`.
TRACER = Tracer()
