#!/usr/bin/env python3
"""Reachability census: which functions of ``src/repro`` no entry point calls.

Runs every entry point in this process under a ``sys.setprofile`` hook
that records each Python function it enters, then prints every function of
``src/repro`` that none of them entered, with its line count, per file and
in total.  The entry points are every CLI command at quick scale, the
examples, the CI smoke benches and the benchmark ledger's workloads.  The
ledger's ``run.py`` runs each workload in a subprocess, which a profile
hook does not follow, so the census calls its ``adapter.run_once`` (scale
0.1, plain and traced) directly.  Standard library only::

    python scripts/census.py                  # everything (about 25 minutes)
    python scripts/census.py --only cli       # one group: cli, example, bench, ledger
    python scripts/census.py --list           # name the entry points, run nothing

A function's lines are its own: a nested function's lines count for it, not
for the function around it.  Exits 1 when an entry point raised (its
partial reach is still counted).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: the CLI commands, at their quick defaults; the flags reach the
#: observability paths (registry report, profiler, tracer export).  Each
#: figure is computed by ``all`` or ``claims`` (``claims`` computes the
#: availability, saturation and retry-storm figures too), so no figure runs
#: alone: ``table1`` reaches the single-figure branch of the CLI, and
#: ``audit`` alone traces (tracing every figure reaches nothing more).
CLI_COMMANDS = [
    ["table1"],
    ["levels"],
    ["all", "--stats", "--profile"],
    ["claims"],
    ["audit", "--trace", "{tmp}/audit-trace.json", "--stats"],
    ["nemesis"],
    ["nemesis", "--rolling"],
    ["scrub"],
    ["membership"],
]
#: the benches CI runs with ``--smoke``
SMOKE_BENCHES = [
    "bench_certifier_scaling.py",
    "bench_scrub.py",
    "bench_partitioned_certifier.py",
    "bench_hotpath.py",
]
#: the ledger's default seed, at the scale of its smoke run
LEDGER_SEED, LEDGER_SCALE = 1, 0.1
GROUPS = ("cli", "example", "bench", "ledger")


@dataclass(frozen=True)
class Function:
    """One ``def`` of the package: where it starts and how long it is."""

    path: str  # relative to the repository root
    qualname: str
    line: int  # first line, decorators included (the code object's)
    lines: int  # its own lines, nested functions' lines excluded


@dataclass(frozen=True)
class EntryPoint:
    group: str
    label: str
    run: Callable[[str], object]  # called with a scratch directory


def functions(package: Path = SRC / "repro") -> dict[tuple[str, int, str], Function]:
    """Every function of ``package``, keyed as its code object is:
    ``(real path, first line, name)``."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        relative = str(path.relative_to(ROOT))
        for node, qualname in _defs(ast.parse(path.read_text(), filename=str(path)), ""):
            own = _span(node) - sum(_span(inner) for inner in _nested(node))
            found[(real, _first(node), node.name)] = Function(
                relative, qualname, _first(node), own
            )
    return found


def _defs(node: ast.AST, prefix: str):
    """``(def node, qualified name)`` for every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            yield child, name
            yield from _defs(child, f"{name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def _nested(node: ast.AST):
    """The functions inside ``node`` with no function between."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _nested(child)


def _first(node: ast.AST) -> int:
    """A def's first line as its code object has it: the first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _span(node: ast.AST) -> int:
    return node.end_lineno - _first(node) + 1


def record(entry_points: list[EntryPoint], log=sys.stderr) -> tuple[set, list[str]]:
    """Run each entry point under the profile hook; return the code objects
    entered and the labels of the entry points that raised."""
    entered: set = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = []
    previous = sys.getprofile()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entry_points:
            start = perf_counter()
            status = "ok"
            sys.setprofile(hook)
            try:
                with open(os.devnull, "w") as sink, redirect_stdout(sink):
                    entry.run(tmp)
            except (Exception, SystemExit) as exc:
                if not (isinstance(exc, SystemExit) and exc.code in (0, None)):
                    failed.append(entry.label)
                    status = f"raised {exc!r}"
            finally:
                sys.setprofile(previous)
            print(f"census: {entry.label}: {status} ({perf_counter() - start:.1f} s)",
                  file=log)
    return entered, failed


def unreached(entered: set, known: dict) -> list[Function]:
    """The functions of ``known`` whose code no entry point entered."""
    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in entered
    }
    return [function for key, function in known.items() if key not in reached]


def report(missed: list[Function], known: dict) -> str:
    """Unreached functions with their line counts, per file and in total."""
    out = []
    by_file: dict[str, list[Function]] = {}
    for function in missed:
        by_file.setdefault(function.path, []).append(function)
    totals: dict[str, list[int]] = {}
    for function in known.values():
        count = totals.setdefault(function.path, [0, 0])
        count[0] += 1
        count[1] += function.lines
    for path in sorted(by_file):
        group = by_file[path]
        out.append(
            f"{path}: {len(group)} of {totals[path][0]} functions unreached "
            f"({sum(f.lines for f in group)} of {totals[path][1]} lines)"
        )
        for function in sorted(group, key=lambda f: f.line):
            out.append(f"  {function.lines:5d}  {function.qualname} (line {function.line})")
    all_lines = sum(f.lines for f in known.values())
    out.append(
        f"total: {len(missed)} of {len(known)} functions unreached "
        f"({sum(f.lines for f in missed):,} of {all_lines:,} function lines)"
    )
    return "\n".join(out)


def cli(*argv: str) -> EntryPoint:
    def run(tmp):
        from repro.cli import main

        main([arg.format(tmp=tmp) for arg in argv])

    return EntryPoint("cli", "repro " + " ".join(argv).replace("{tmp}/", ""), run)


def script(group: str, path: Path, *argv: str) -> EntryPoint:
    def run(_tmp):
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved

    return EntryPoint(group, " ".join([str(path.relative_to(ROOT)), *argv]), run)


def ledger(workload: str, mode: str) -> EntryPoint:
    def run(_tmp):
        path = str(ROOT / "benchmarks" / "ledger")
        if path not in sys.path:
            sys.path.insert(0, path)
        import adapter

        adapter.run_once(workload, LEDGER_SEED, LEDGER_SCALE, mode=mode)

    return EntryPoint("ledger", f"ledger {workload} {mode}", run)


def entry_points() -> list[EntryPoint]:
    points = [cli(*argv) for argv in CLI_COMMANDS]
    points += [script("example", path) for path in sorted((ROOT / "examples").glob("*.py"))]
    points += [script("bench", ROOT / "benchmarks" / name, "--smoke") for name in SMOKE_BENCHES]
    # The ledger's workloads as BENCHMARK.json declares them: importing its
    # adapter here would import repro before the hook is on.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    points += [
        ledger(w["name"], mode) for w in declared for mode in ("plain", "traced")
    ]
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=GROUPS, action="append",
                        help="run one group of entry points (repeatable)")
    parser.add_argument("--list", action="store_true", help="name the entry points and exit")
    args = parser.parse_args(argv)
    points = [p for p in entry_points() if not args.only or p.group in args.only]
    if args.list:
        print("\n".join(f"{p.group}: {p.label}" for p in points))
        return 0
    known = functions()
    entered, failed = record(points)
    print(report(unreached(entered, known), known))
    if failed:
        print("census: entry points that raised: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
