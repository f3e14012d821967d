"""What ``import repro`` costs every process that does it.

A counter, never a time: the modules a fresh interpreter has loaded after
importing the library, the CLI and the experiment harness.  Everything they
pull in must come from the standard library — the package declares no
dependency — and the total stays small (one third-party graph library once
made it 525).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.cli, repro.bench
imported = sorted({name.partition(".")[0] for name in set(sys.modules) - before})
print(json.dumps({"imported": imported, "total": len(sys.modules)}))
"""


def test_import_repro_loads_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    loaded = json.loads(result.stdout)
    foreign = [
        name for name in loaded["imported"]
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
    assert "repro" in loaded["imported"]
    assert loaded["total"] <= 200
