"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro table1
    python -m repro fig3 [--full] [--seed N]
    python -m repro fig4 | fig5 | fig6 | fig7 [--full] [--seed N]
    python -m repro claims
    python -m repro audit [--level sc-fine|relaxed:3] [--replicas 4] [--clients 16]
    python -m repro availability [--full] [--seed N]
    python -m repro saturation [--full] [--seed N]
    python -m repro nemesis [--seed N] [--duration-ms T] [--no-kill-certifier] [--rolling]
    python -m repro scrub [--seed N] [--corruptions K] [--interval-ms T] [--light]
    python -m repro membership [--seed N] [--join-at-ms T]
    python -m repro levels

``--full`` switches from the quick windows to the paper-scale sweeps
(minutes instead of tens of seconds per figure).  The fault commands
(``nemesis``, ``scrub``, ``membership``) end in the safety audit of
:func:`repro.faults.audit.audit`, ``claims`` in the claims table of
:mod:`repro.bench.claims`; each exits 1 when its verdict is FAIL.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .bench import claims
from .core.policy import available_policies, resolve_policy
from .metrics.profiler import PROFILER
from .metrics.tracing import TRACER

__all__ = ["main", "build_parser"]


def _policy_spec(spec: str) -> str:
    """argparse type for ``--level``: validate against the policy registry,
    keeping the raw spec string for later resolution."""
    try:
        resolve_policy(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok(value)``
    (a bad value exits with code 2 and a usage error)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" text
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_count = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_ms = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_at_ms = _checked(float, lambda v: 0 <= v < math.inf, "non-negative and finite")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "within [0, 1]")


def _observability_parent() -> argparse.ArgumentParser:
    """The shared ``--profile`` / ``--trace`` / ``--stats`` flags.

    Every subcommand (and the root parser) accepts them, so both
    ``repro --trace out.json fig5`` and ``repro fig5 --trace out.json``
    work.  Defaults are ``SUPPRESS`` so a subparser never overwrites a
    value the root parser already captured; read them back with
    ``getattr(args, name, fallback)``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--profile",
        action="store_true",
        default=argparse.SUPPRESS,
        help="enable the wall-clock profiler and print its report at the end",
    )
    group.add_argument(
        "--trace",
        metavar="OUT.json",
        default=argparse.SUPPRESS,
        help="enable per-transaction tracing and write a Chrome-trace JSON "
             "file (open in chrome://tracing or https://ui.perfetto.dev)",
    )
    group.add_argument(
        "--trace-sample-rate",
        type=_fraction,
        metavar="RATE",
        default=argparse.SUPPRESS,
        help="fraction of transactions to trace (0..1, default 1.0); "
             "sampling is deterministic in the request id",
    )
    group.add_argument(
        "--stats",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print the metrics-registry report for the last cluster built",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    observability = _observability_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Strongly consistent replication for a bargain' "
            "(ICDE 2010): regenerate the paper's tables and figures."
        ),
        parents=[observability],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[observability], **kwargs)

    add_parser("table1", help="Table I — version maintenance walkthrough")

    figures = {name: f"regenerate {name}" for name in ("fig3", "fig4", "fig5", "fig6", "fig7")}
    figures["availability"] = ("replica-crash availability: detection latency, throughput "
                               "dip, time-to-recover (SC-FINE vs EAGER)")
    figures["saturation"] = ("overload protection under open-loop load: saturation sweep "
                             "(p99/goodput/shed rate) plus the retry-storm experiment")
    for figure, text in figures.items():
        figure_parser = add_parser(figure, help=text)
        figure_parser.add_argument(
            "--full", action="store_true",
            help="paper-scale sweep instead of the quick one",
        )
        figure_parser.add_argument("--seed", type=int, default=0)

    audit = add_parser(
        "audit", help="run a loaded cluster and audit its consistency"
    )
    audit.add_argument(
        "--level", default="sc-coarse", type=_policy_spec,
        metavar="{" + ",".join(available_policies()) + "}[:K]",
        help="a registered consistency policy, optionally parameterized "
             "(e.g. sc-fine, relaxed:3)",
    )
    audit.add_argument(
        "--workload", default="micro", choices=["micro", "tpcw", "tpcc"],
    )
    audit.add_argument("--replicas", type=_positive_int, default=4)
    audit.add_argument("--clients", type=_positive_int, default=16)
    audit.add_argument("--duration-ms", type=_positive_ms, default=2_000.0)
    audit.add_argument("--seed", type=int, default=0)

    nemesis = add_parser(
        "nemesis",
        help="seeded chaos soak (crashes, partitions, certifier kill) "
             "with the full safety audit",
    )
    nemesis.add_argument("--seed", type=int, default=3)
    nemesis.add_argument("--duration-ms", type=_positive_ms, default=2_500.0)
    nemesis.add_argument("--replicas", type=_positive_int, default=3)
    nemesis.add_argument("--clients", type=_positive_int, default=6)
    nemesis.add_argument(
        "--no-kill-certifier", action="store_true",
        help="leave the certifier alone (replica crashes and partitions only)",
    )
    nemesis.add_argument(
        "--rolling", action="store_true",
        help="rolling-restart mode: serially crash-restart every replica "
             "(one held past the horizon purge, forcing a full re-bootstrap) "
             "on an elastic cluster, with the same safety audit",
    )

    scrub = add_parser(
        "scrub",
        help="anti-entropy demo: inject silent corruption and watch the "
             "scrubber detect, quarantine, repair and re-admit",
    )
    scrub.add_argument("--seed", type=int, default=7)
    scrub.add_argument("--duration-ms", type=_positive_ms, default=4_000.0)
    scrub.add_argument("--replicas", type=_positive_int, default=3)
    scrub.add_argument("--clients", type=_positive_int, default=8)
    scrub.add_argument("--corruptions", type=_count, default=3,
                       help="silent faults to inject, spaced over the run")
    scrub.add_argument("--interval-ms", type=_positive_ms, default=200.0,
                       help="scrub round period")
    scrub.add_argument(
        "--light", action="store_true",
        help="light scrubs (incremental digests only — misses bit rot)",
    )

    membership = add_parser(
        "membership",
        help="replica lifecycle demo: join a brand-new replica to a loaded "
             "cluster and watch it bootstrap to live",
    )
    membership.add_argument("--seed", type=int, default=5)
    membership.add_argument("--duration-ms", type=_positive_ms, default=2_500.0)
    membership.add_argument("--replicas", type=_positive_int, default=3)
    membership.add_argument("--clients", type=_positive_int, default=6)
    membership.add_argument("--join-at-ms", type=_at_ms, default=800.0,
                            help="virtual time at which the new replica joins")

    add_parser("claims", help="judge every paper claim on the quick figures; exit 1 on a FAIL")

    everything = add_parser(
        "all", help="regenerate Table I and every figure (quick scale)"
    )
    everything.add_argument("--full", action="store_true")
    everything.add_argument("--seed", type=int, default=0)

    add_parser("levels", help="list the consistency configurations")
    return parser


def _run_audit(args) -> str:
    from .bench import ExperimentConfig, run_experiment
    from .core.cluster import ClusterConfig
    from .histories import (
        is_session_consistent,
        is_strongly_consistent,
        staleness_report,
    )
    from .workloads import MicroBenchmark, TPCCBenchmark, TPCWBenchmark

    factories = {
        "micro": lambda: MicroBenchmark(update_types=20, rows_per_table=300),
        "tpcw": lambda: TPCWBenchmark(mix="shopping", num_items=300,
                                      num_customers=200, num_authors=100),
        "tpcc": lambda: TPCCBenchmark(num_warehouses=1,
                                      districts_per_warehouse=8,
                                      customers_per_district=20,
                                      num_items=100),
    }
    policy = resolve_policy(args.level)
    result = run_experiment(ExperimentConfig(
        workload_factory=factories[args.workload],
        cluster=ClusterConfig(num_replicas=args.replicas, level=policy, seed=args.seed),
        clients=args.clients, warmup_ms=0.0, measure_ms=args.duration_ms,
    ))
    summary, history = result.summary, result.history
    with PROFILER.section("checkers"):
        staleness = staleness_report(history)
        observational = is_strongly_consistent(history)
        strict = is_strongly_consistent(history, observational=False)
        session = is_session_consistent(history)
    lines = [
        f"workload={args.workload} level={policy.label} replicas={args.replicas} "
        f"clients={args.clients} virtual-duration={args.duration_ms:.0f}ms",
        f"throughput: {summary.tps:.1f} TPS, response {summary.mean_response_ms:.2f} ms, "
        f"aborts {summary.aborted}",
        f"strong consistency (observational): {observational}",
        f"strong consistency (strict):        {strict}",
        f"session consistency:                {session}",
        f"snapshot staleness: mean {staleness['mean']:.2f}, "
        f"max {staleness['max']:.0f} versions",
    ]
    return "\n".join(lines)


def _verdict(label: str, cluster, checks: dict[str, bool]) -> tuple[list[str], bool]:
    """A fault command's closing lines: one per check of the safety audit
    run on ``cluster`` with its offender count (and the first offender), one
    per command-specific check, then ``label: PASS`` or ``FAIL``."""
    from .faults.audit import audit

    report = audit(cluster)
    lines = ["", f"acknowledged commits: {report.committed}"]
    for field in fields(report)[1:]:
        offenders = getattr(report, field.name)
        lines.append(f"{field.name.replace('_', ' ')}: {len(offenders)}"
                     + (f"  (first: {offenders[0]})" if offenders else ""))
    lines += [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in checks.items()]
    ok = report.ok and all(checks.values())
    return lines + ["", f"{label}: " + ("PASS" if ok else "FAIL")], ok


def _fault_cluster(preset, args, **overrides):
    """A fault command's cluster: the micro-benchmark on a ``ClusterConfig``
    preset, loaded by ``args.clients`` clients that retry aborts."""
    from .core.cluster import ReplicatedDatabase
    from .workloads import MicroBenchmark

    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100),
        preset(num_replicas=args.replicas, seed=args.seed, **overrides),
    )
    cluster.add_clients(args.clients, retry_aborts=True)
    return cluster


def _run_nemesis(args) -> tuple[str, bool]:
    from .core.cluster import ClusterConfig
    from .faults import FaultInjector, Nemesis
    from .sim.rng import RngRegistry

    rolling = getattr(args, "rolling", False)
    # The purge victim must return through the full checkpoint bootstrap,
    # so rolling mode runs on the elastic configuration.
    preset = ClusterConfig.elastic if rolling else ClusterConfig.self_healing
    cluster = _fault_cluster(preset, args, level="sc-fine")
    nemesis = Nemesis(
        cluster,
        RngRegistry(args.seed).stream("nemesis"),
        duration_ms=args.duration_ms,
        injector=FaultInjector(cluster),
        kill_certifier=not args.no_kill_certifier and not rolling,
        rolling_restart=rolling,
    )
    if rolling:
        # The rolling script runs to completion (every replica cycled back
        # to live), not to a fixed deadline.
        limit = cluster.env.now + args.duration_ms + 30_000.0
        while not nemesis.finished and cluster.env.now < limit:
            cluster.run(cluster.env.now + 500.0)
    else:
        cluster.run(args.duration_ms + 700.0)
    cluster.quiesce(max_wait_ms=60_000.0)

    certifier = cluster.certifier
    lines = [
        f"nemesis seed={args.seed} duration={args.duration_ms:.0f}ms "
        f"replicas={args.replicas} clients={args.clients}"
        + (" mode=rolling-restart" if rolling else ""),
        "",
        "fault schedule:",
    ]
    lines += [f"  {t:8.1f}  {action:15s} {detail}"
              for t, action, detail in nemesis.actions]
    lines += [
        "",
        f"certifier: {certifier.name} (epoch {certifier.epoch}), "
        f"V_commit={certifier.commit_version}",
    ]
    checks = {}
    if rolling:
        from .metrics import render

        bootstrap = cluster.bootstrap
        lines += ["", "lifecycle timeline:"]
        lines += [f"  {t:8.1f}  {state:22s} {replica} {detail}"
                  for t, state, replica, detail in bootstrap.events]
        lines += ["", render(cluster.metrics, sections=("bootstrap",))]
        purged = any(action == "rolling-purge" for _t, action, _d in nemesis.actions)
        checks = {
            "rolling restart finished": nemesis.finished,
            "purged returnee re-bootstrapped":
                bootstrap.bootstraps_completed >= 1 or not purged,
        }
    verdict, ok = _verdict("audit", cluster, checks)
    return "\n".join(lines + verdict), ok


def _run_scrub(args) -> tuple[str, bool]:
    from .core.cluster import ClusterConfig
    from .faults import FaultInjector
    from .metrics import render

    cluster = _fault_cluster(
        ClusterConfig.anti_entropy, args,
        scrub_interval_ms=args.interval_ms, scrub_deep=not args.light,
    )
    injector = FaultInjector(cluster)

    # Space the injections over the first ~60% of the run so the scrubber
    # has time to repair and re-verify each one before the window closes.
    kinds = ["corrupt_row", "skip_refresh", "double_apply_refresh"]

    def _inject():
        rng = cluster.rngs.stream("scrub-demo")
        gap = (0.6 * args.duration_ms) / max(1, args.corruptions)
        for i in range(args.corruptions):
            yield cluster.env.timeout(gap)
            victims = injector.surviving_replicas()
            name = rng.choice(victims)
            kind = kinds[i % len(kinds)]
            try:
                getattr(injector, kind)(name)
            except ValueError:
                pass  # no visible rows yet; keep the demo running

    cluster.env.process(_inject(), name="scrub-demo-injector")
    cluster.run(args.duration_ms)
    cluster.quiesce(max_wait_ms=60_000.0)

    scrubber = cluster.scrubber
    lines = [
        f"scrub seed={args.seed} duration={args.duration_ms:.0f}ms "
        f"replicas={args.replicas} clients={args.clients} "
        f"interval={args.interval_ms:.0f}ms "
        f"mode={'light' if args.light else 'deep'}",
        "",
        "injected faults:",
    ]
    lines += [f"  {t:8.1f}  {kind:22s} {name} {detail or ''}"
              for t, kind, name, detail in injector.corruptions]
    lines += ["", "scrubber timeline:"]
    lines += [f"  {t:8.1f}  {event:17s} {replica} {detail}"
              for t, event, replica, detail in scrubber.events]
    lines += ["", render(cluster.metrics, sections=("scrub",))]

    corrupted = {name for _t, _k, name, _d in injector.corruptions}
    detected = {replica for _t, event, replica, _d in scrubber.events
                if event == "quarantined"}
    lines += [
        "",
        f"corrupted replicas: {sorted(corrupted)}",
        f"detected (quarantined): {sorted(detected)}",
    ]
    # The audit's digest check proves no silent divergence persisted: a
    # corruption the workload overwrote before the next scrub round
    # self-heals without a quarantine, and that is fine.
    verdict, ok = _verdict("audit", cluster, {})
    return "\n".join(lines + verdict), ok


def _run_membership(args) -> tuple[str, bool]:
    from .core.cluster import ClusterConfig
    from .metrics import render

    cluster = _fault_cluster(ClusterConfig.elastic, args, level="sc-fine")
    cluster.run(args.join_at_ms)
    joiner = cluster.add_replica_online()
    cluster.run(args.join_at_ms + args.duration_ms)
    cluster.quiesce(max_wait_ms=60_000.0)

    bootstrap = cluster.bootstrap
    lines = [
        f"membership seed={args.seed} replicas={args.replicas}+1 "
        f"clients={args.clients} join-at={args.join_at_ms:.0f}ms "
        f"duration={args.duration_ms:.0f}ms",
        "",
        f"joined {joiner} to a running cluster under load",
        "",
        "lifecycle timeline:",
    ]
    commit = cluster.commit_version
    lines += [
        f"  {t:8.1f}  {state:22s} {replica} {detail}"
        for t, state, replica, detail in bootstrap.events
    ]
    proxy = cluster.replicas[joiner]
    lines += [
        "",
        render(cluster.metrics, sections=("bootstrap",)),
        "",
        f"joiner V_local={proxy.v_local}, V_commit={commit}, "
        f"catch-up lag={commit - proxy.v_local} versions",
        f"joiner served: executed={proxy.executed_count} "
        f"committed={proxy.committed_count}",
    ]
    went_live = any(state == "live" and replica == joiner
                    for _t, state, replica, _d in bootstrap.events)
    verdict, ok = _verdict("membership", cluster, {
        "lifecycle completed (joining → catching-up → live)":
            went_live and bootstrap.bootstraps_completed >= 1,
    })
    return "\n".join(lines + verdict), ok


def _run_levels() -> str:
    lines = ["Consistency configurations:"]
    for name in available_policies():
        policy = resolve_policy(name)
        traits = []
        if policy.is_strong:
            traits.append("strong")
        if policy.is_lazy:
            traits.append("lazy")
        if policy.uses_start_delay:
            traits.append("start-delay")
        spec = name if name == policy.spec else f"{name}[:K]"
        lines.append(f"  {spec:12s} ({policy.label}) — {', '.join(traits) or '—'}")
    return "\n".join(lines)


#: commands that print figures of :data:`claims.FIGURES`: each figure with a
#: command of its name, and ``saturation`` with the retry storm
_FIGURE_COMMANDS = {name: (name,) for name in claims.FIGURES}
_FIGURE_COMMANDS["saturation"] = ("saturation", "retry_storm")


def _figure(name: str, quick: bool, seed: int) -> str:
    figure = claims.FIGURES[name]
    return figure.render(figure.compute(quick, seed))


#: commands that end in a PASS/FAIL verdict and exit 1 on FAIL
_VERDICT_COMMANDS = {
    "nemesis": _run_nemesis, "scrub": _run_scrub, "membership": _run_membership,
    "claims": lambda _args: claims.report(claims.evaluate()),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    exit_code = 0
    profile = getattr(args, "profile", False)
    trace_out = getattr(args, "trace", None)
    show_stats = getattr(args, "stats", False)
    if profile:
        PROFILER.reset()
        PROFILER.enable()
    if trace_out:
        TRACER.reset()
        TRACER.configure(sample_rate=getattr(args, "trace_sample_rate", 1.0))
        TRACER.enable()
    quick, seed = not getattr(args, "full", False), getattr(args, "seed", 0)
    if args.command in _FIGURE_COMMANDS:
        print("\n\n".join(_figure(name, quick, seed) for name in _FIGURE_COMMANDS[args.command]))
    elif args.command == "all":
        for name, figure in claims.FIGURES.items():
            if figure.paper:
                print(_figure(name, quick, seed))
                print()
    elif args.command == "audit":
        print(_run_audit(args))
    elif args.command in _VERDICT_COMMANDS:
        text, ok = _VERDICT_COMMANDS[args.command](args)
        print(text)
        exit_code = 0 if ok else 1
    elif args.command == "levels":
        print(_run_levels())
    if show_stats:
        from .metrics import latest_registry, render

        registry = latest_registry()
        print()
        if registry is None:
            print("stats: no cluster was built by this command")
        else:
            print(render(registry, sections=("summary", "partition", "scrub",
                                             "bootstrap", "replicas", "trace")))
    if trace_out:
        TRACER.disable()
        TRACER.export_chrome(trace_out)
        totals = TRACER.stage_totals()
        print()
        print(
            f"trace: {len(TRACER)} spans ({TRACER.dropped} dropped) "
            f"-> {trace_out}"
        )
        if totals:
            from .metrics.report import format_table

            rows = [[name, total] for name, total in sorted(totals.items())]
            print(format_table(["span", "total_ms"], rows, floatfmt="{:.2f}"))
    if profile:
        PROFILER.disable()
        print()
        print(PROFILER.report())
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
