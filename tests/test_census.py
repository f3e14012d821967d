"""The reachability census (``scripts/census.py``) on one fast entry point."""

import importlib.util
import io
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_table1_reaches_its_experiment_and_not_run_replicated():
    census = load_census()
    known = census.functions()
    entered, failed = census.record([census.cli("table1")], log=io.StringIO())
    assert failed == []
    missed = {(f.path, f.qualname) for f in census.unreached(entered, known)}
    assert ("src/repro/bench/experiments.py", "table1") in {
        (f.path, f.qualname) for f in known.values()
    }
    assert ("src/repro/bench/experiments.py", "table1") not in missed
    assert ("src/repro/bench/runner.py", "run_replicated") in missed
    report = census.report(census.unreached(entered, known), known)
    assert "run_replicated" in report
    assert report.splitlines()[-1].startswith(f"total: {len(missed)} of {len(known)} functions")
