"""Transaction stage timings.

The paper breaks transaction delay into stages (Section V, Metrics):

* read-only transactions: **version** (synchronization start delay),
  **queries**, **commit**;
* update transactions additionally: **certify** (round trip to the
  certifier), **sync** (waiting for previous commits in the global order),
  and — under EAGER only — **global** (the global commit delay).

:class:`StageTimings` is the per-transaction record; it travels back to the
client inside the response and feeds the Figure 4 latency-breakdown bench.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["STAGE_NAMES", "StageTimings"]

#: Stage order used in reports, matching Figure 4's legend.
STAGE_NAMES = ("version", "queries", "certify", "sync", "commit", "global")


@dataclass(slots=True)
class StageTimings:
    """Per-transaction latency breakdown, all in milliseconds."""

    version: float = 0.0  # synchronization start delay (lazy/session configs)
    queries: float = 0.0  # executing the transaction's SQL statements
    certify: float = 0.0  # querying the certifier
    sync: float = 0.0     # committing prior txns per the global order
    commit: float = 0.0   # local DBMS commit
    global_: float = 0.0  # EAGER global commit delay

    @property
    def total(self) -> float:
        """Sum of all stages (excludes client think time)."""
        return (
            self.version
            + self.queries
            + self.certify
            + self.sync
            + self.commit
            + self.global_
        )

    @property
    def synchronization_delay(self) -> float:
        """The paper's Figure 6 metric: the synchronization *start* delay for
        the lazy configurations and the *global commit* delay for EAGER."""
        return self.version + self.global_

    def as_dict(self) -> dict[str, float]:
        """Stage values keyed by the paper's stage names."""
        return {
            "version": self.version,
            "queries": self.queries,
            "certify": self.certify,
            "sync": self.sync,
            "commit": self.commit,
            "global": self.global_,
        }

    def add(self, other: "StageTimings") -> None:
        """Accumulate another transaction's stages into this one."""
        self.version += other.version
        self.queries += other.queries
        self.certify += other.certify
        self.sync += other.sync
        self.commit += other.commit
        self.global_ += other.global_

    def scaled(self, factor: float) -> "StageTimings":
        """A copy with every stage multiplied by ``factor`` (for averaging)."""
        return StageTimings(
            version=self.version * factor,
            queries=self.queries * factor,
            certify=self.certify * factor,
            sync=self.sync * factor,
            commit=self.commit * factor,
            global_=self.global_ * factor,
        )
