"""Span recorder for the traced pass: timing wrappers around calls into a layer.

Knows nothing about the program under test.  The adapter names the functions
to wrap and the layer each belongs to; this module times every call, keeps a
span stack so each span knows its parent, and charges a span's *self* time
(duration minus the part its child spans cover) to its layer.  Aggregates are
exact over the whole run; raw spans are kept for a bounded sample of whole
top-level subtrees so the written trace stays small.
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["Recorder", "since", "by_layer", "FIELDS"]


class Recorder:
    """Aggregated self/total time per span name plus a bounded raw sample."""

    def __init__(self, sample_every: int = 997, sample_cap: int = 20_000):
        #: open spans, innermost last: [child_seconds, layer, span_id, container]
        self._stack: list[list] = []
        #: span name -> [layer, calls, entries, total_s, self_s, weight]
        #: (entries = calls made from another layer; weight = caller-defined
        #: work units, e.g. rows in an applied writeset)
        self.stats: dict[str, list] = {}
        self._sample_every = sample_every
        self._sample_cap = sample_cap
        self._subtrees_seen = 0
        self._sampling = False
        self._next_id = 0
        #: sampled raw spans: (id, parent_id, name, start_s, end_s, request_id)
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    # -- wrapping ----------------------------------------------------------
    def timed(self, layer: str, name: str, fn, weigh=None, request_id=None,
              container=False):
        """``fn`` wrapped so each call is one span named ``name`` in ``layer``.

        ``weigh(args)`` adds work units to the span's aggregate;
        ``request_id(args)`` tags the raw span when it is sampled.  A
        ``container`` span (the kernel's run loop) is always kept raw, and
        each of its direct children is kept or skipped as a whole subtree.
        """
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = [layer, 0, 0, 0.0, 0.0, 0]
        stack = self._stack
        recorder = self

        def span(*args, **kwargs):
            if not stack:
                parent = None
                keep = holds = True  # root spans are few: kept, and containers
            else:
                parent = stack[-1]
                holds = container
                if container:
                    keep = True
                elif parent[3]:
                    recorder._subtrees_seen += 1
                    keep = recorder._sampling = (
                        recorder._subtrees_seen % recorder._sample_every == 0
                        and len(recorder.spans) < recorder._sample_cap
                    )
                else:
                    keep = recorder._sampling
            frame = [0.0, layer, -1, holds]
            if keep:
                frame[2] = recorder._next_id
                recorder._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[1] += 1
                stats[3] += duration
                stats[4] += duration - frame[0]
                if parent is None:
                    stats[2] += 1
                else:
                    parent[0] += duration
                    if parent[1] != layer:
                        stats[2] += 1
                if weigh is not None:
                    stats[5] += weigh(args)
                if frame[2] >= 0:
                    recorder.spans.append((
                        frame[2],
                        parent[2] if parent is not None else -1,
                        name,
                        start,
                        end,
                        request_id(args) if request_id is not None else None,
                    ))

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def patch(self, owner, attr: str, layer: str, **options) -> None:
        """Replace ``owner.attr`` by its timed wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        self.replace(owner, attr, self.timed(layer, name, original, **options))

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had = attr in vars(owner)
        self._patched.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, had, original = self._patched.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def timed_generator(self, layer: str, generator):
        """A stand-in for ``generator`` whose every resume is one span.

        The simulation kernel drives processes through ``send``/``throw``;
        timing those two is timing every resume of the process.
        """
        name = f"{layer}:{getattr(generator, '__qualname__', 'generator')}"
        return _TimedGenerator(
            generator,
            self.timed(layer, name, generator.send),
            self.timed(layer, name, generator.throw),
        )

    # -- results -----------------------------------------------------------
    def snapshot(self) -> dict[str, list]:
        """A copy of the aggregates so far; subtract two with :func:`since`."""
        return {name: list(stats) for name, stats in self.stats.items()}

    def dump(self, path, extra: dict) -> None:
        """Write aggregates and the raw span sample as one JSON document."""
        document = dict(extra)
        document["aggregate_fields"] = list(FIELDS)
        document["aggregates"] = dict(sorted(self.stats.items()))
        document["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "request_id"]
        document["spans"] = self.spans
        with open(path, "w") as out:
            json.dump(document, out)


#: layout of one aggregate row
FIELDS = ("layer", "calls", "entries", "total_s", "self_s", "weight")
LAYER, CALLS, ENTRIES, TOTAL_S, SELF_S, WEIGHT = range(6)


def since(after: dict[str, list], before: dict[str, list]) -> dict[str, list]:
    """Aggregates accumulated between two snapshots."""
    zero = [None, 0, 0, 0.0, 0.0, 0]
    return {
        name: [row[LAYER]] + [
            now - then for now, then in zip(row[1:], before.get(name, zero)[1:])
        ]
        for name, row in after.items()
    }


def by_layer(stats: dict[str, list]) -> dict[str, list]:
    """Aggregate rows summed per layer (same layout, layer kept)."""
    layers: dict[str, list] = {}
    for row in stats.values():
        total = layers.setdefault(row[LAYER], [row[LAYER], 0, 0, 0.0, 0.0, 0])
        for field in range(1, 6):
            total[field] += row[field]
    return layers


class _TimedGenerator:
    """Quacks like a generator for the kernel's ``Process``."""

    __slots__ = ("_generator", "send", "throw", "__name__", "__qualname__")

    def __init__(self, generator, send, throw):
        self._generator = generator
        self.send = send
        self.throw = throw
        self.__name__ = getattr(generator, "__name__", "process")
        self.__qualname__ = getattr(generator, "__qualname__", self.__name__)

    def close(self):
        return self._generator.close()
