"""Differential property test of refresh intake and the refresh applier.

One replica proxy is driven through a drawn arrival schedule: refresh
writesets out of version order, duplicate deliveries, predecessor vectors
over four partitions (one table each), a version a local commit reserves,
and a crash while a refresh holds the CPU, followed by a recovery replay.
The same schedule also drives :class:`ReferenceProxy`, whose intake and
applier are written plainly, one helper per step.  Both runs must install,
count and report alike, and each must keep the applier's invariants:

* every version is installed exactly once, and only after its ``after`` set;
* the ``CommitApplied`` watermarks sent are non-decreasing;
* a refresh's own version is gone from the pending maps when it is
  reported, and nothing stale is pending once the run settles.
"""

from collections import Counter
from heapq import heappush

from hypothesis import given, settings, strategies as st

from repro.middleware import (
    CommitApplied,
    RecoveryReply,
    RecoveryRequest,
    RefreshWriteset,
    ReplicaPerformance,
    ReplicaProxy,
)
from repro.sim import Environment, Event, LatencyModel, Network, RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet

from .conftest import low_variance_params, make_catalog, make_engine

TABLES = ("p0", "p1", "p2", "p3")  # partition p writes table TABLES[p]
LATENCY_MS = 0.1
POLL_MS = 0.05
HORIZON_MS = 200.0
TIMES = st.sampled_from([0.05 * step for step in range(0, 200, 3)])
OFFSETS = st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.6, 1.0, 2.5])


class ReferenceProxy(ReplicaProxy):
    """The refresh intake and applier with no step written out: each
    applier turn purges, picks the smallest ready version by definition,
    holds the CPU through ``Resource.use``, re-validates, installs and
    publishes."""

    def _receive_refresh(self, message):
        version = message.commit_version
        if self.engine.database.has_applied(version):
            self.duplicate_refreshes_ignored += 1
            return
        if version in self._pending_refresh:
            self.duplicate_refreshes_ignored += 1
        else:
            heappush(self._pending_versions, version)
        self._pending_refresh[version] = message.writeset
        if message.prev_versions:
            self._pending_prevs[version] = message.prev_versions
        self._wake_applier()

    def _apply_refreshes(self):
        database = self.engine.database
        while True:
            self._purge_stale_refreshes()
            version = None if self.crashed else self._smallest_ready()
            if version is None:
                self._applier_wakeup = Event(self.env)
                yield self._applier_wakeup
                self._applier_wakeup = None
                continue
            writeset = self._pending_refresh.pop(version)
            prevs = self._pending_prevs.pop(version, None)
            yield from self.cpu.use(self.perf.refresh(len(writeset)))
            if self.crashed or database.has_applied(version) or version in self._reserved:
                continue
            after = None if prevs is None else tuple(prev for _p, prev in prevs)
            self.engine.apply_refresh(writeset, version, after=after)
            self.refresh_applied_count += 1
            self._pending_refresh.pop(version, None)
            self._pending_prevs.pop(version, None)
            self._publish_applied(version, prevs, len(writeset))

    def _smallest_ready(self):
        """A pending, unreserved, unapplied version is ready when it heads
        the watermark or every predecessor its vector names is applied."""
        database = self.engine.database
        ready = [
            version for version in self._pending_refresh
            if version not in self._reserved
            and not database.has_applied(version)
            and (
                version == database.version + 1
                or (
                    version in self._pending_prevs
                    and all(database.has_applied(prev)
                            for _p, prev in self._pending_prevs[version])
                )
            )
        ]
        return min(ready, default=None)


@st.composite
def schedules(draw):
    n = draw(st.integers(2, 9), label="versions")
    vectors = draw(st.booleans(), label="vectors")
    parts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="parts")
    reserved = draw(st.none() | st.integers(1, n), label="reserved")
    arrivals = []
    for version in range(1, n + 1):
        # The origin of a local commit normally gets no refresh of it: a
        # copy only comes from a replay overlapping the reservation.
        least = 0 if version == reserved else 1
        base = draw(TIMES)
        offsets = draw(st.lists(OFFSETS, min_size=least, max_size=3))
        arrivals += [(base + offset, version) for offset in offsets]
    return {
        "n": n,
        "vectors": vectors,
        "parts": parts,
        "sizes": draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)),
        "arrivals": sorted(arrivals),
        "reserved": reserved,
        # "hold": reserve the moment the version's own refresh holds the CPU
        "reserve_mode": draw(st.sampled_from(["time", "hold"])),
        "reserve_at": draw(TIMES),
        "crash_at": draw(st.none() | TIMES, label="crash_at"),
        "down_ms": draw(st.sampled_from([0.1, 0.3, 2.0, 6.0])),
    }


def drive(proxy_cls, schedule):
    """Run ``schedule`` against one proxy of ``proxy_cls``; return what it
    did and the proxy."""
    n, parts = schedule["n"], schedule["parts"]
    env = Environment()
    network = Network(
        env, RngRegistry(77).stream("net"), LatencyModel(base=LATENCY_MS, jitter=0.0)
    )
    writesets, prevs = {}, {}
    last = {}
    for version in range(1, n + 1):
        part = parts[version - 1]
        writesets[version] = WriteSet([
            WriteOp(TABLES[part], version * 10 + i, OpKind.INSERT,
                    {"id": version * 10 + i, "v": version})
            for i in range(schedule["sizes"][version - 1])
        ])
        if schedule["vectors"]:
            prevs[version] = ((part, last.get(part, 0)),)
        last[part] = version

    reports = []

    def certifier(message):
        if isinstance(message, CommitApplied):
            reports.append(message.commit_version)
        elif isinstance(message, RecoveryRequest):
            replay = [v for v in range(1, n + 1) if v > message.after_version]
            network.send("certifier", message.replica, RecoveryReply(
                message.replica,
                tuple((v, writesets[v]) for v in replay),
                prevs=tuple(prevs[v] for v in replay) if prevs else None,
            ))

    network.register("certifier", certifier)
    network.register("lb")
    proxy = proxy_cls(
        env=env,
        network=network,
        name="replica-0",
        engine=make_engine(TABLES),
        perf=ReplicaPerformance(low_variance_params(), RngRegistry(5).stream("perf")),
        level="sc-coarse",
        templates=make_catalog(TABLES),
    )
    database = proxy.engine.database
    installs = []  # (time, version, versions it had to follow)
    stale_at_report = []
    last_refresh = [None]

    def after_set(version):
        if version in prevs:
            return {prev for _p, prev in prevs[version]} - {0}
        return set(range(1, version))

    apply_writeset = database.apply_writeset

    def recording_apply(writeset, version, after=None):
        follows = set(range(1, version)) if after is None else set(after) - {0}
        installs.append((env.now, version, follows))
        apply_writeset(writeset, version, after)

    database.apply_writeset = recording_apply
    apply_refresh = proxy.engine.apply_refresh

    def recording_refresh(writeset, version, after=None):
        last_refresh[0] = version
        apply_refresh(writeset, version, after=after)

    proxy.engine.apply_refresh = recording_refresh

    def tap(sender, _recipient, message):
        if sender == "replica-0" and isinstance(message, CommitApplied):
            version = last_refresh[0]
            if version is not None and (
                version in proxy._pending_refresh or version in proxy._pending_prevs
            ):
                stale_at_report.append(version)
            last_refresh[0] = None

    network.add_tap(tap)

    def feed():
        for at, version in schedule["arrivals"]:
            yield env.timeout(max(0.0, at - env.now))
            network.send("certifier", "replica-0", RefreshWriteset(
                version, writesets[version], "replica-1", version,
                prev_versions=prevs.get(version),
            ))

    def in_hold(version):
        return (
            not proxy.crashed
            and proxy.cpu.in_use > 0
            and version not in proxy._pending_refresh
            and any(at + LATENCY_MS <= env.now for at, v in schedule["arrivals"]
                    if v == version)
        )

    def local_commit(version):
        """The lifecycle's sync and commit stages for a version certified
        here, polling where the lifecycle waits on a clock."""
        yield env.timeout(schedule["reserve_at"])
        if schedule["reserve_mode"] == "hold":
            deadline = env.now + 20.0
            while not in_hold(version) and env.now < deadline:
                yield env.timeout(POLL_MS / 5)
        while proxy.crashed:
            yield env.timeout(POLL_MS)
        if database.has_applied(version):
            return  # a refresh copy got there first: nothing to commit
        proxy._reserved.add(version)
        proxy._wake_applier()
        while not all(database.has_applied(prev) for prev in after_set(version)):
            if version not in proxy._reserved:
                return  # a crash took the reservation; the replay brings it
            yield env.timeout(POLL_MS)
        if version not in proxy._reserved:
            return
        yield from proxy.cpu.use(proxy.perf.commit(len(writesets[version])))
        if version not in proxy._reserved:
            return
        after = None if version not in prevs else tuple(p for _q, p in prevs[version])
        database.apply_writeset(writesets[version], version, after)
        proxy._reserved.discard(version)
        proxy.committed_count += 1
        proxy._publish_applied(version, prevs.get(version), len(writesets[version]))

    def crash_and_recover():
        yield env.timeout(schedule["crash_at"])
        # Land the crash inside a CPU hold when one comes soon.
        for _ in range(40):
            if proxy.cpu.in_use > 0:
                break
            yield env.timeout(POLL_MS / 5)
        network.take_down("replica-0")
        proxy.crash()
        yield env.timeout(schedule["down_ms"])
        proxy.recover()

    env.process(feed())
    if schedule["reserved"] is not None:
        env.process(local_commit(schedule["reserved"]))
    if schedule["crash_at"] is not None:
        env.process(crash_and_recover())
    env.run(until=HORIZON_MS)
    return installs, reports, stale_at_report, proxy


@settings(max_examples=200, deadline=None)
@given(schedule=schedules())
def test_intake_matches_reference_applier(schedule):
    installs, reports, stale_at_report, proxy = drive(ReplicaProxy, schedule)
    reference = drive(ReferenceProxy, schedule)
    n = schedule["n"]

    # Each version exactly once, and only after its ``after`` set.
    assert Counter(version for _t, version, _after in installs) == Counter(range(1, n + 1))
    installed = set()
    for _t, version, after in installs:
        assert after <= installed, (version, after - installed)
        installed.add(version)
    assert proxy.v_local == n and proxy.applier_alive

    # The same installs, counters and reports as the reference applier.
    assert installs == reference[0]
    assert reports == reference[1]
    assert proxy.refresh_applied_count == reference[3].refresh_applied_count
    assert proxy.duplicate_refreshes_ignored == reference[3].duplicate_refreshes_ignored
    assert proxy.refresh_applied_count + proxy.committed_count == n

    # Watermarks only grow, and nothing stale is pending.
    assert reports == sorted(reports) and reports[-1] == n
    assert not stale_at_report, stale_at_report
    assert not proxy._pending_refresh and not proxy._pending_prevs
