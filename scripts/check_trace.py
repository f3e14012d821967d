#!/usr/bin/env python
"""Validate a Chrome-trace file produced by ``repro <cmd> --trace``.

Checks, in order:

1. the file is valid JSON in the Trace Event Format (``traceEvents``,
   metadata events, microsecond timestamps);
2. the expected lifecycle span names are present (client submit, proxy
   pipeline stages, certification, refresh apply);
3. the causal invariant holds for every committed version the file
   covers: exactly one certification event, no duplicate refresh
   appliers (the exact applier count is asserted by the test suite,
   which knows the cluster topology — this checker is topology-blind);
4. optionally (``--strict-appliers N``), every version was applied by
   exactly N distinct replicas.

Exits non-zero with a diagnostic on the first failed check.  Used by the
CI tracing smoke gate together with the zero-overhead structural check in
``tests/metrics/test_tracing.py``.

Usage::

    python scripts/check_trace.py out.json [--strict-appliers N]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

REQUIRED_SPAN_NAMES = {
    "client.request",
    "proxy.queries",
    "proxy.commit",
    "certifier.certify",
    "refresh.apply",
}


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load {path}: {exc}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("not a Trace Event Format object (no 'traceEvents' key)")
    return doc


def check_structure(doc: dict) -> list:
    events = doc["traceEvents"]
    if not events:
        fail("traceEvents is empty")
    phases = {e.get("ph") for e in events}
    if "M" not in phases:
        fail("no metadata events (thread/process names) present")
    if "X" not in phases:
        fail("no complete ('X') duration events present")
    for e in events:
        if e.get("ph") == "X" and (e.get("dur", -1) < 0 or e.get("ts", -1) < 0):
            fail(f"negative timestamp/duration in event {e!r}")
    return events


def check_span_names(events: list) -> None:
    names = {e.get("name") for e in events}
    missing = REQUIRED_SPAN_NAMES - names
    if missing:
        fail(f"expected lifecycle spans missing from trace: {sorted(missing)}")


def check_invariants(events: list, strict_appliers: int | None) -> int:
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    # versions are scoped per pid: each cluster run in a sweep command
    # (e.g. fig5) restarts commit versions from 1 under its own pid
    certs = defaultdict(int)
    appliers = defaultdict(list)
    for e in events:
        version = (e.get("args") or {}).get("commit_version")
        if version is None:
            continue
        key = (e.get("pid"), version)
        if e.get("name") == "certifier.certify":
            if (e.get("args") or {}).get("outcome", "commit") == "commit":
                certs[key] += 1
        elif e.get("name") == "refresh.apply":
            tid = (e.get("pid"), e.get("tid"))
            appliers[key].append(thread_names.get(tid, e.get("tid")))
    if not certs:
        fail("no certification events with a commit_version found")
    for (pid, version), count in sorted(certs.items()):
        if count != 1:
            fail(
                f"run {pid} version {version}: {count} certification "
                "events (expected 1)"
            )
    # Only versions below the trace's replication horizon have settled;
    # the newest versions may legitimately still be applying.
    settled = [key for key in certs if appliers.get(key)]
    if not settled:
        fail("no refresh.apply events correlate with any certified version")
    settled_horizon = defaultdict(int)
    for pid, version in settled:
        settled_horizon[pid] = max(settled_horizon[pid], version)
    for key in settled:
        pid, version = key
        names = appliers[key]
        if len(set(names)) != len(names):
            fail(f"run {pid} version {version}: duplicate refresh appliers {names}")
        if strict_appliers is not None and len(names) != strict_appliers:
            # the last few versions may still be in flight — only flag
            # versions a later version has already overtaken everywhere
            if len(names) < strict_appliers and version < settled_horizon[pid] - 10:
                fail(
                    f"run {pid} version {version}: {len(names)} refresh "
                    f"appliers (expected {strict_appliers})"
                )
    return len(certs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace_file")
    parser.add_argument(
        "--strict-appliers", type=int, default=None, metavar="N",
        help="require exactly N distinct refresh appliers per settled version",
    )
    args = parser.parse_args(argv)
    doc = load(args.trace_file)
    events = check_structure(doc)
    check_span_names(events)
    versions = check_invariants(events, args.strict_appliers)
    spans = sum(1 for e in events if e.get("ph") == "X")
    print(
        f"check_trace: OK: {spans} spans, {versions} committed versions, "
        f"invariants hold ({args.trace_file})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
