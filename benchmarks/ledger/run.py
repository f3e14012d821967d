#!/usr/bin/env python3
"""The perf ledger: six named workloads, host-time and simulated-time
end-to-end metrics, per-layer attribution from a traced pass.

    python benchmarks/ledger/run.py [--seed N] [--reps N] [--out FILE]
        every workload, interleaved, each repetition in a fresh interpreter,
        then one traced pass per workload; prints every metric by name with
        its unit, checks correctness, writes the machine-readable ledger
    python benchmarks/ledger/run.py --smoke
        the same with windows / 10 and one repetition; asserts that every
        name in BENCHMARK.json was printed with a unit
    python benchmarks/ledger/run.py --compare A.json B.json
        one verdict per (workload, metric) between two ledgers
    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, repeated until set-up and timed regions add up to S
        host seconds; the last line of standard output is one JSON object
        (the benchmark driver's protocol)

Exit status is non-zero when a correctness check or the stall guard fails.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import catalog

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
#: what BENCHMARK.json passes as --seconds
RUN_SECONDS = 12.0

#: a repetition that takes longer than this is reported as a failure
CHILD_TIMEOUT_S = 170
#: upper limit on repetitions of one driver run, whatever ``--seconds`` says
MAX_DRIVER_REPS = 6


# ---------------------------------------------------------------------------
# Child processes: one repetition each, one at a time
# ---------------------------------------------------------------------------

def child_main(argv: list[str]) -> int:
    """``--child``: run one repetition (or the probes) in this interpreter
    and print its result as the last line of standard output."""
    parser = argparse.ArgumentParser(prog="run.py --child")
    parser.add_argument("what")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", default="plain")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    import adapter

    if args.what == "probes":
        result = adapter.run_probes(args.scale)
    else:
        result = adapter.run_once(
            args.what, args.seed, args.scale, args.mode, args.trace_out)
    print(json.dumps(result))
    return 0


def spawn(what: str, seed: int = 1, scale: float = 1.0, mode: str = "plain",
          trace_out: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter and wait for it."""
    command = [sys.executable, str(HERE / "run.py"), "--child", what,
               "--seed", str(seed), "--scale", repr(scale), "--mode", mode]
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ledger: repetition failed ({what}, mode={mode}, "
                         f"exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# From raw repetitions to named metrics
# ---------------------------------------------------------------------------

def summarise(values: list[float]) -> dict:
    """Median, quartiles and sample count; ``noisy`` when the inter-quartile
    range exceeds a tenth of the median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {
        "value": median, "q1": q1, "q3": q3, "n": len(values),
        "noisy": bool(median) and (q3 - q1) > 0.1 * abs(median),
    }


def _divide(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def end_to_end(plain: list[dict]) -> dict:
    """The end-to-end metrics of one workload from its untraced repetitions.
    Host metrics become median/quartiles; simulated ones are identical in
    every repetition (the gate checks that) and are taken from the first."""
    first = plain[0]
    txns = first["counts"].get("txns_total")
    metrics = {
        "setup_s": summarise([s for rep in plain for s in rep["setup_samples_s"]]),
        "wall_s": summarise([rep["wall_s"] for rep in plain]),
        "peak_rss_mb": summarise([rep["peak_rss_mb"] for rep in plain]),
    }
    if txns:
        metrics["sim_txn_per_wall_s"] = summarise(
            [txns / rep["wall_s"] for rep in plain])
    sim = first["sim"]
    for name, value in sim.items():
        if name in catalog.BY_NAME and value is not None:
            metrics[name] = {"value": value, "n": sim.get("committed")}
    if "failed_share" in metrics:
        metrics["failed_share"]["n"] = sim.get("attempts")
        metrics["committed_share"] = {
            "value": 1.0 - sim["failed_share"], "n": sim.get("attempts")}
    return metrics


def per_layer(plain: list[dict], traced: dict | None, probes: dict | None,
              repro_trace: dict | None) -> dict:
    """The per-layer metrics of one workload: exact counts from the registry
    (any pass), self times and call counts from the traced pass, probes."""
    wall = statistics.median(rep["wall_s"] for rep in plain)
    first = plain[0]
    metrics = {
        name: value for name, value in first["counts"].items()
        if name in catalog.BY_NAME
    }
    metrics["bench.host.wall_raw_s"] = statistics.median(
        rep["wall_raw_s"] for rep in plain)
    metrics["bench.host.slowdown"] = statistics.median(
        rep["wall_raw_s"] / rep["wall_s"] for rep in plain)
    metrics["sim.kernel.events_per_wall_s"] = _divide(
        first["counts"].get("kernel_events"), wall)
    if first.get("cell_wall_s_max") is not None:
        metrics["bench.experiments.cell_wall_s_max"] = statistics.median(
            rep["cell_wall_s_max"] for rep in plain)
    if traced is not None:
        for name, value in traced["traced"].items():
            if name in catalog.BY_NAME:
                metrics[name] = value
        metrics["storage.database.rows_applied_per_wall_s"] = _divide(
            traced["traced"].get("rows_applied"), wall)
        metrics["bench.trace.overhead_ratio"] = _divide(traced["wall_s"], wall)
    if repro_trace is not None:
        metrics["metrics.tracing.on_1pct_wall_ratio"] = _divide(
            repro_trace["wall_s"], wall)
    if probes is not None:
        metrics.update(probes["metrics"])
    return {name: value for name, value in metrics.items() if value is not None}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(name: str, plain: list[dict], traced: dict | None) -> list[str]:
    """Every reason this workload's outputs cannot be trusted (empty = pass)."""
    failures = []
    runs = plain + ([traced] if traced is not None else [])
    fingerprints = {run["fingerprint"] for run in runs}
    if len(fingerprints) != 1:
        failures.append(
            "simulated statistics differ between repetitions or between the "
            f"traced and untraced passes: {sorted(fingerprints)}")
    for run in runs:
        for check, passed in run["checks"].items():
            if check == "not_stalled" and not passed:
                failures.append(
                    f"stalled ({run['mode']}): no commit in the last quarter "
                    "of the measure window; wall_s is not a speed")
            elif not passed:
                failures.append(f"check failed ({run['mode']}): {check}")
    if traced is not None:
        failures += bypass_failures(name, traced)
    return sorted(set(failures))


def bypass_failures(name: str, traced: dict) -> list[str]:
    """The bypass predictions, asserted on the traced pass's call counts."""
    failures = []
    calls = traced["traced"].get("calls", {})
    if name == "micro-readonly":
        for layer in ("middleware.certifier", "storage.database.apply_writeset",
                      "storage.digest"):
            if calls.get(layer):
                failures.append(f"bypass broken: {calls[layer]} {layer} calls")
    if name != "chaos-soak":
        for layer in ("middleware.control", "storage.digest"):
            if calls.get(layer):
                failures.append(
                    f"bypass broken: {calls[layer]} {layer} calls outside chaos-soak")
    global_ms = traced["counts"].get("sim.stage.global_ms")
    if name == "tpcc-eager" and not global_ms:
        failures.append("sim.stage.global_ms is not > 0 on tpcc-eager")
    if name != "tpcc-eager" and global_ms:
        failures.append(f"sim.stage.global_ms = {global_ms} outside tpcc-eager")
    if name != "fig5-sweep":
        share = traced["traced"].get("bench.trace.attributed_share") or 0.0
        if share < 0.90:
            failures.append(f"traced pass attributes only {share:.2f} of the run")
    return failures


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _number(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name: str, e2e: dict, layers: dict, failures: list[str],
                   notes: list[str], sections=("end_to_end", "per_layer")) -> set[str]:
    """Print every metric of one workload by name with its unit; returns the
    names printed."""
    printed = set()
    print(f"\n== {name} ==")
    if "end_to_end" in sections:
        for metric in catalog.END_TO_END:
            stats = e2e.get(metric.name)
            if stats is None:
                print(f"  {metric.name:<28} absent")
                continue
            line = f"  {metric.name:<28} {_number(stats['value']):>12} {metric.unit}"
            if "q1" in stats:
                line += (f"   [q1 {_number(stats['q1'])}, q3 {_number(stats['q3'])},"
                         f" n={stats['n']}]")
                if stats["noisy"]:
                    line += " noisy"
            elif stats.get("n") is not None:
                line += f"   [exact, base n={stats['n']}]"
            print(line)
            printed.add(metric.name)
    if "per_layer" in sections:
        for metric in catalog.PER_LAYER:
            value = layers.get(metric.name)
            if value is None:
                print(f"  {metric.name:<48} absent")
                continue
            print(f"  {metric.name:<48} {_number(value):>12} {metric.unit}")
            printed.add(metric.name)
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  FAIL: {failure}")
    return printed


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Full ledger (and --smoke)
# ---------------------------------------------------------------------------

def run_ledger(seed: int, reps: int | None, smoke: bool, out: Path) -> int:
    scale = 0.1 if smoke else 1.0
    specs = workloads()
    wanted = {
        name: 1 if smoke else reps or spec.repetitions for name, spec in specs.items()
    }
    host = host_facts()
    print(f"ledger: seed={seed} scale={scale} nproc={host['nproc']} "
          f"python={host['python']} loadavg={host['loadavg']}")
    started = perf_counter()

    # Untraced repetitions, interleaved A B C ... A B C, one process at a time.
    plain: dict[str, list] = {name: [] for name in specs}
    for round_number in range(max(wanted.values())):
        for name in specs:
            if round_number < wanted[name]:
                plain[name].append(spawn(name, seed, scale))
                print(f"  {name} repetition {round_number + 1}/{wanted[name]}: "
                      f"wall {plain[name][-1]['wall_s']:.3f} s", flush=True)
    # Traced pass, the program's own tracer at 1 %, and the probes.
    traced = {
        name: spawn(name, seed, scale, "traced", OUT / f"trace-{name}.json")
        for name in specs
    }
    repro_trace = spawn("micro-update", seed, scale, "repro-trace-1pct")
    probes = spawn("probes", scale=scale)

    ledger = {
        "schema": 1, "seed": seed, "scale": scale, "host": host, "workloads": {},
    }
    printed: dict[str, set] = {}
    failed = False
    for name in specs:
        e2e = end_to_end(plain[name])
        layers = per_layer(
            plain[name], traced[name], probes,
            repro_trace if name == "micro-update" else None)
        failures = gate(name, plain[name], traced[name])
        notes = sorted({
            note for run in plain[name] + [traced[name]] for note in run["notes"]
        } | set(probes["notes"]))
        printed[name] = print_workload(name, e2e, layers, failures, notes)
        failed = failed or bool(failures)
        ledger["workloads"][name] = {
            "why": specs[name].why,
            "end_to_end": e2e,
            "per_layer": layers,
            "fingerprint": plain[name][0]["fingerprint"],
            "checks": {
                run["mode"]: run["checks"] for run in plain[name][:1] + [traced[name]]
            },
            "unattributed_layers": traced[name]["traced"].get("unattributed_layers"),
            "failures": failures,
            "notes": notes,
        }
    ledger["host"]["loadavg_end"] = list(os.getloadavg())
    ledger["host"]["elapsed_s"] = perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nledger written to {out} in {ledger['host']['elapsed_s']:.0f} s")
    if smoke:
        failed = smoke_failures(printed) or failed
    print("ledger: FAIL" if failed else "ledger: PASS")
    return 1 if failed else 0


def benchmark_json() -> tuple[dict, dict]:
    """BENCHMARK.json and the bound of each end-to-end metric in it."""
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    return benchmark, {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def smoke_failures(printed: dict[str, set]) -> bool:
    """``--smoke``: BENCHMARK.json must list exactly the catalog, and every
    name in it must have been printed (with its unit) for some workload."""
    benchmark, bounds = benchmark_json()
    problems = []
    try:
        end_to_end_list, per_layer_list = catalog.benchmark_json_lists(bounds)
    except KeyError as missing:
        end_to_end_list, per_layer_list = [], []
        problems.append(f"BENCHMARK.json has no bound for {missing}")
    if end_to_end_list != benchmark["end_to_end"]:
        problems.append("BENCHMARK.json end_to_end differs from catalog.py")
    if per_layer_list != benchmark["per_layer"]:
        problems.append("BENCHMARK.json per_layer differs from catalog.py")
    if [w["name"] for w in benchmark["workloads"]] != list(workloads()):
        problems.append("BENCHMARK.json workloads differ from the adapter's")
    if benchmark["run_seconds"] != RUN_SECONDS:
        problems.append("BENCHMARK.json run_seconds differs from RUN_SECONDS")
    everywhere = set().union(*printed.values())
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        if metric["name"] not in everywhere:
            problems.append(f"{metric['name']} was never printed")
        if not metric["unit"]:
            problems.append(f"{metric['name']} has no unit")
    for problem in problems:
        print(f"  SMOKE FAIL: {problem}")
    return bool(problems)


def workloads() -> dict:
    """The adapter's workload table.  Imported on first use: it pulls in the
    program under test, which ``--compare`` does not need."""
    from adapter import WORKLOADS

    return WORKLOADS


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, metric): same / better / worse / unresolved."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    _benchmark, bounds = benchmark_json()
    tally: dict[str, int] = {}
    bad = False
    print(f"{'workload':<16} {'metric':<48} {'A':>12} {'B':>12}  verdict")
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            print(f"{name:<16} missing from {path_b}")
            bad = True
            continue
        for metric in catalog.END_TO_END + catalog.PER_LAYER:
            section = "end_to_end" if metric in catalog.END_TO_END else "per_layer"
            va, vb = side_a[section].get(metric.name), side_b[section].get(metric.name)
            if va is None and vb is None:
                continue
            verdict = judge(metric, va, vb, bounds.get(metric.name))
            tally[verdict] = tally.get(verdict, 0) + 1
            bad = bad or verdict in ("worse", "changed", "unresolved")
            print(f"{name:<16} {metric.name:<48} {_number(_value(va)):>12} "
                  f"{_number(_value(vb)):>12}  {verdict}")
    print("\n" + ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items())))
    return 1 if bad else 0


def _value(stats):
    if isinstance(stats, dict):
        return stats["value"]
    return "absent" if stats is None else stats


def judge(metric, a, b, bound) -> str:
    """Verdict for one metric: exact metrics must be identical; host metrics
    are judged against the bound, or unresolved when either side's
    inter-quartile range is wider than it; traced host times are reported."""
    if a is None or b is None:
        return "changed"
    va, vb = _value(a), _value(b)
    if metric.kind == "exact":
        return "same" if va == vb else "changed"
    if metric.kind == "trace" or bound is None:
        return "info"
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0 for s in (a, b))
    if spread > bound:
        return "unresolved"
    change = (vb - va) / abs(va) if va else 0.0
    if metric.better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


# ---------------------------------------------------------------------------
# The benchmark driver's protocol: one workload, one JSON line
# ---------------------------------------------------------------------------

def run_driver(name: str, seed: int, seconds: float, trace: bool) -> int:
    benchmark, _bounds = benchmark_json()
    if name not in workloads():
        raise SystemExit(f"ledger: unknown workload {name!r}; "
                         f"known: {', '.join(workloads())}")
    plain = []
    measured = 0.0
    # Fresh-interpreter repetitions until set-up and timed regions add up to
    # the requested measuring time (one is enough when tracing: the traced
    # pass only needs an untraced reference).
    while not plain or (not trace and measured < seconds
                        and len(plain) < MAX_DRIVER_REPS):
        plain.append(spawn(name, seed))
        measured += plain[-1]["wall_raw_s"] + sum(plain[-1]["setup_samples_s"])
    traced = repro_trace = probes = None
    if trace:
        traced = spawn(name, seed, mode="traced", trace_out=OUT / f"trace-{name}.json")
        probes = spawn("probes")
        if name == "micro-update":
            repro_trace = spawn(name, seed, mode="repro-trace-1pct")

    failures = gate(name, plain, traced)
    e2e = end_to_end(plain)
    layers = per_layer(plain, traced, probes, repro_trace) if trace else {}
    notes = sorted({note for run in plain + [traced or plain[0]] for note in run["notes"]})
    print_workload(name, e2e, layers, failures, notes,
                   sections=("per_layer",) if trace else ("end_to_end",))

    metrics = {}
    if trace:
        for metric in benchmark["per_layer"]:
            value = layers.get(metric["name"], e2e.get(metric["name"], {}).get("value"))
            # the protocol wants every listed metric: one that does not apply
            # to this workload (printed "absent" above) is reported as 0
            metrics[metric["name"]] = {"value": value or 0, "unit": metric["unit"]}
    else:
        for metric in benchmark["end_to_end"]:
            stats = e2e.get(metric["name"])
            if stats is None:
                failures.append(f"end-to-end metric {metric['name']} is absent")
                continue
            metrics[metric["name"]] = {"value": stats["value"], "unit": metric["unit"]}
    # An operation is a client transaction finished in a measure window; the
    # clients retry every abort, so none ends without a commit.  On
    # fig5-sweep, whose clients belong to the figure code, an operation is
    # one cell of the figure and fails when it commits nothing.
    if name == "fig5-sweep":
        attempted = sum(rep["counts"]["bench.experiments.cells"] for rep in plain)
    else:
        attempted = sum(rep["sim"]["committed"] for rep in plain)
    stalled = sum(not rep["checks"]["not_stalled"] for rep in plain)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": stalled,
        "metrics": metrics,
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return child_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, help="repetitions per workload "
                        "(default 5, fig5-sweep 3)")
    parser.add_argument("--out", type=Path, default=OUT / "ledger.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_driver(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_ledger(args.seed, args.reps, args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
