"""The benchmark harness still runs and still sees every layer it measures."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# counters that read 0 when engine code stops calling a binding the
# benchmark wraps, instead of failing
WRAPPED_COUNTERS = (
    "engine.param_probes",
    "engine.oracle_explored",
    "actions.max_feasible_calls",
    "engine.priced_delta_calls",
)


def test_traced_bundled_round_answers_and_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "bundled", "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in WRAPPED_COUNTERS:
        assert metrics[name]["value"] > 0, name
