"""Lightweight always-available wall-clock profiler.

Virtual-time metrics (the :mod:`collector`) answer "how fast is the
*modelled* system"; this module answers "how fast is the *simulator*" —
the binding constraint on how large a cluster or how long a trace an
experiment can afford.  It provides named counters and ``perf_counter``
section timers behind a single global switch:

* **off** (the default): :meth:`Profiler.section` returns a shared no-op
  context manager and :meth:`Profiler.count` returns immediately — the
  instrumented code pays one attribute check and no clock reads, so the
  profiler can stay wired into hot paths permanently;
* **on** (``--profile`` on the CLI and bench runner): sections accumulate
  wall-clock seconds and call counts, and :meth:`Profiler.report` renders
  an events/sec summary plus a top-sections table.  While on, a
  ``gc.callbacks`` hook also times CPython's cyclic collector — its work
  grows with the objects a run retains, and it runs *inside* whichever
  section happens to allocate — as a ``gc.collect`` section plus
  ``gc.gen0``/``gc.gen1``/``gc.gen2`` collection counters.

All times here are *real* seconds, never virtual milliseconds.
"""

from __future__ import annotations

import gc
from time import perf_counter

__all__ = ["Profiler", "PROFILER"]

#: the sections :meth:`Profiler.report` lists, longest first
TOP_SECTIONS = 10


class _NullSection:
    """Shared do-nothing context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SECTION = _NullSection()


class _Section:
    """A live section timer: accumulates into its profiler on exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Section":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._start
        sections = self._profiler.sections
        total, calls = sections.get(self._name, (0.0, 0))
        sections[self._name] = (total + elapsed, calls + 1)
        return False


class Profiler:
    """Named counters plus wall-clock section timers, off by default."""

    __slots__ = ("enabled", "counters", "sections", "_gc_start")

    def __init__(self):
        self.enabled = False
        #: name -> cumulative count
        self.counters: dict[str, int] = {}
        #: name -> (cumulative wall seconds, number of entries)
        self.sections: dict[str, tuple[float, int]] = {}
        self._gc_start = 0.0

    # -- switching ---------------------------------------------------------
    def enable(self) -> None:
        if not self.enabled:
            gc.callbacks.append(self._on_gc)
        self.enabled = True

    def disable(self) -> None:
        if self.enabled:
            gc.callbacks.remove(self._on_gc)
        self.enabled = False

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook (registered only while enabled)."""
        if phase == "start":
            self._gc_start = perf_counter()
            return
        elapsed = perf_counter() - self._gc_start
        total, calls = self.sections.get("gc.collect", (0.0, 0))
        self.sections["gc.collect"] = (total + elapsed, calls + 1)
        name = f"gc.gen{info['generation']}"
        self.counters[name] = self.counters.get(name, 0) + 1

    def reset(self) -> None:
        """Clear all accumulated counters and section timings."""
        self.counters.clear()
        self.sections.clear()

    # -- instrumentation ---------------------------------------------------
    def section(self, name: str):
        """Context manager timing one named section (no-op while off)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named counter (no-op while off)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    # -- reporting ---------------------------------------------------------
    def report(self) -> str:
        """Render the accumulated profile.

        A ``kernel.events`` count adds an events-per-second headline (the
        simulator's core speed metric) over the wall time of the ``run.*``
        sections, the runs whose events were counted; sections are listed by
        cumulative wall time, descending, at most :data:`TOP_SECTIONS` of
        them.
        """
        lines = ["-- profile " + "-" * 49]
        events = self.counters.get("kernel.events")
        wall_s = sum(
            total for name, (total, _) in self.sections.items() if name.startswith("run.")
        )
        if events is not None and wall_s:
            lines.append(
                f"   {events:,} kernel events in {wall_s:.2f}s wall "
                f"= {events / wall_s:,.0f} events/s"
            )
        if self.sections:
            ranked = sorted(
                self.sections.items(), key=lambda item: item[1][0], reverse=True
            )
            lines.append(
                f"   {'section':<28} {'total s':>9} {'calls':>9} {'per call':>11}"
            )
            for name, (total, calls) in ranked[:TOP_SECTIONS]:
                per_call = total / calls if calls else 0.0
                lines.append(
                    f"   {name:<28} {total:>9.3f} {calls:>9,} {per_call * 1e6:>9,.1f}us"
                )
            if len(ranked) > TOP_SECTIONS:
                lines.append(f"   ... {len(ranked) - TOP_SECTIONS} more sections")
        for name in sorted(self.counters):
            lines.append(f"   {name:<28} {self.counters[name]:>9,}")
        if len(lines) == 1:
            lines.append("   (no sections or counters recorded)")
        return "\n".join(lines)


#: process-wide profiler instance — hot paths hold a reference to this and
#: pay only the ``enabled`` check while profiling is off
PROFILER = Profiler()
