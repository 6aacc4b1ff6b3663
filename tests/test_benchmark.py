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


# seed-1 counts of one traced oracle_grid round; a swap that goes around
# the wrapped kernel, or builds an extra state, changes them
ORACLE_GRID_SEED1_COUNTS = {
    "actions.apply_calls": 48_618,
    "kernels.swap_out_calls": 48_600,
    "model.worldstate_new": 48_609,
}


def traced_round(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_bundled_round_answers_and_counts_every_layer():
    metrics = traced_round("bundled")
    for name in WRAPPED_COUNTERS:
        assert metrics[name]["value"] > 0, name


def test_traced_oracle_grid_round_keeps_its_counts():
    metrics = traced_round("oracle_grid")
    for name, count in ORACLE_GRID_SEED1_COUNTS.items():
        assert metrics[name]["value"] == count, name
