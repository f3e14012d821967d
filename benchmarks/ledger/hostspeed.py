"""Host-speed calibration: a fixed loop run beside every timed piece of work.

The box this ledger runs on is a few cores of a shared host whose speed
moves by 10-40 % for seconds to minutes at a time, in wall time and CPU time
alike (measured: 60 fresh-process repetitions of one tpcw-shopping run, same
seed, took 4.2-7.2 s within six minutes).  No repetition count that fits a
run averages that out, so every timed piece (a build, a 1/60 slice of a
timed region, a cell of the sweep) is bracketed by the fixed calibration loop
below, and its time is divided by the slowdown the two loops beside it show:

    reference seconds = measured seconds / (calibration seconds / NOMINAL_S)

i.e. host seconds on a box on which the loop takes ``NOMINAL_S``.  On those
repetitions this took the spread of single repetitions from 9.8 % to 5.0 %
inter-quartile and from 67 % to 16 % fastest-to-slowest; on a calmer quarter
of an hour from 5.3 % to 2.5 % and from 20 % to 7 %.  It does not remove the
box's noise, it divides it by two to four.

The loop is the simulator's instruction mix in miniature (heap of tuples,
generator resumes, attribute reads over a scattered object table, dict
stores, small allocations); a tight arithmetic loop tracked the slowdown half
as well, a table five times larger no better.  It is always run once per
boundary, so always on caches the work before it has filled.  It knows
nothing about the program under test, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import heapq
from functools import lru_cache
from time import perf_counter

__all__ = ["NOMINAL_S", "HostSpeed"]

#: what one calibration loop takes on the quiet 2-core box the ledger was
#: sized on (median of 2 700 loops, Python 3.11); the unit of "reference speed"
NOMINAL_S = 0.0073

_TABLE_SIZE = 40_000
_STEPS = 7_000


class _Entry:
    __slots__ = ("at", "label")

    def __init__(self, at: int, label: str):
        self.at = at
        self.label = label


def _counter():
    count = 0
    while True:
        yield count
        count += 1


@lru_cache(maxsize=None)
def _table() -> list:
    return [_Entry(i, str(i)) for i in range(_TABLE_SIZE)]


class HostSpeed:
    """Times pieces of work, one calibration loop before the first piece and
    one after each; reports the pieces at reference speed."""

    def __init__(self):
        self._table = _table()
        self._order = [(i * 7919) % _TABLE_SIZE for i in range(_STEPS)]
        #: seconds of every calibration loop; loops k and k + 1 bracket piece k
        self.loops: list[float] = []
        #: measured seconds of every piece
        self.pieces: list[float] = []

    def _loop(self) -> float:
        # No garbage collection inside the loop: its cost grows with the
        # heap of the program under test, which the loop must not measure.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            table = self._table
            push, pop = heapq.heappush, heapq.heappop
            ticks = _counter()
            heap: list = []
            seen = {}
            for step, index in enumerate(self._order):
                entry = table[index]
                push(heap, (entry.at * 0.5, step, entry))
                if step & 1:
                    at, _step, popped = pop(heap)
                    seen[popped.label] = at
                next(ticks)
            return perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def timed(self, work):
        """``work()``, timed as the next piece, with a calibration loop after
        it (and before it, if it is the first)."""
        if not self.loops:
            self.loops.append(self._loop())
        start = perf_counter()
        result = work()
        self.pieces.append(perf_counter() - start)
        self.loops.append(self._loop())
        return result

    def reference_pieces(self) -> list[float]:
        """Every piece's seconds over the host's slowdown beside it: the mean
        of the loops before and after it, over nominal."""
        return [
            seconds * 2.0 * NOMINAL_S / (before + after)
            for seconds, before, after in zip(self.pieces, self.loops, self.loops[1:])
        ]

    def raw_s(self) -> float:
        return sum(self.pieces)

    def reference_s(self) -> float:
        return sum(self.reference_pieces())

    def calibration_s(self) -> float:
        return sum(self.loops)
